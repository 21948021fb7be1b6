"""Polynomial positivity algorithms and the run preorder."""

from fractions import Fraction

from conftest import recurrence_example, instances

from respgame import (BUECHI, OPTIMISTIC, REACHABILITY, LassoRun, Objective,
                      PayoffGame, PlayerSet, TransitionSystem, generate,
                      oracle_shapley, positivity_buechi_opt_all,
                      positivity_reach_opt, shapley_exact)
from respgame.explicit import build_system
from respgame.positivity import positivity_buechi_opt, rho_order


def test_positivity_reach_clouds_instance():
    doc = generate("clouds", 3)
    ts, obj, run = build_system(doc)
    assert positivity_reach_opt(ts, obj.target, run) == {"crit"}


def test_positivity_reach_unreachable_target():
    ts = TransitionSystem(["a", "island"], 0, [(0, 0), (1, 1)])
    run = LassoRun((), (0,))
    assert positivity_reach_opt(ts, {1}, run) == frozenset()


def test_positivity_reach_matches_oracle():
    for ts, obj, run, _mode in instances(41, 60, max_states=8,
                                         kind=REACHABILITY):
        fast = positivity_reach_opt(ts, obj.target, run)
        slow = oracle_shapley(ts, obj, run, OPTIMISTIC).positivity()
        assert fast == slow


def _equal_shares(ts, target, run):
    """Optimistic reachability values by rule: each of the R states with
    positive responsibility gets 1/|R|, every other state 0."""
    positive = positivity_reach_opt(ts, target, run)
    share = Fraction(1, len(positive)) if positive else Fraction(0)
    return tuple(share if n in positive else Fraction(0) for n in ts.names)


def _exact_reach_opt(ts, target, run):
    obj = Objective(REACHABILITY, target=frozenset(target))
    return shapley_exact(PayoffGame(ts, obj, run, OPTIMISTIC,
                                    PlayerSet.of_states(ts, range(len(ts)))))


def test_values_reach_equal_share():
    # two states, each winning on its own, split the whole value
    ts = TransitionSystem(["s0", "a", "f", "sink"], 0,
                          [(0, 1), (0, 2), (1, 2), (1, 3), (2, 2), (3, 3)])
    run = LassoRun((0, 1), (3,))
    rep = _exact_reach_opt(ts, {2}, run)
    assert rep.value_of("s0") == Fraction(1, 2)
    assert rep.value_of("a") == Fraction(1, 2)
    assert rep.value_of("f") == 0 and rep.value_of("sink") == 0
    assert rep.values == _equal_shares(ts, {2}, run)


def test_values_reach_clouds():
    doc = generate("clouds", 3)
    ts, obj, run = build_system(doc)
    rep = _exact_reach_opt(ts, obj.target, run)
    assert rep.value_of("crit") == 1
    assert sum(rep.values, Fraction(0)) == 1
    assert rep.values == _equal_shares(ts, obj.target, run)


def test_values_reach_matches_exact():
    for ts, obj, run, _mode in instances(43, 60, max_states=8,
                                         kind=REACHABILITY):
        rule = _equal_shares(ts, obj.target, run)
        assert oracle_shapley(ts, obj, run, OPTIMISTIC).values == rule
        assert _exact_reach_opt(ts, obj.target, run).values == rule


def test_rho_order_prefix_chain_and_loop_class():
    ts, obj, run = recurrence_example()
    order = rho_order(ts, run, obj.target)
    seq = run.sequence()
    for i, s in enumerate(seq):
        for t in seq[i:]:
            assert order.le(s, t)
    for s in run.loop:
        for t in run.loop:
            assert order.le(s, t) and order.le(t, s)
    # prefix states strictly precede the loop
    assert order.lt(0, 3) and not order.lt(3, 0)


def test_rho_order_jump_targets():
    ts, obj, run = recurrence_example()
    order = rho_order(ts, run, obj.target)
    # the detour from the start goes through a target state and rejoins the
    # run at its second position
    assert order.down_f[0] == 1
    assert order.down[0] == 0
    # the trapped loop state reaches only itself
    assert order.down[3] == 3 and order.down_f[3] is None


def test_buechi_positivity_examples():
    ts, obj, run = recurrence_example()
    assert positivity_buechi_opt(ts, obj.target, run, 1)
    assert not positivity_buechi_opt(ts, obj.target, run, 4)
    assert positivity_buechi_opt_all(ts, obj.target, run) == {"s0", "s1", "s2"}


def test_buechi_positivity_matches_oracle_sample():
    for ts, obj, run, _mode in instances(47, 60, max_states=8, kind=BUECHI):
        fast = positivity_buechi_opt_all(ts, obj.target, run)
        slow = oracle_shapley(ts, obj, run, OPTIMISTIC).positivity()
        assert fast == slow, (ts.names, sorted(obj.target), run)


def test_buechi_positivity_ignores_self_winning_top_states():
    # the probed state's candidate coalition must not absorb a state that
    # wins alone: here t loops through the target by itself, so s1 (a null
    # player) would otherwise be claimed responsible
    names = ["s0", "s1", "t", "z", "f", "f2"]
    edges = [(0, 1), (1, 2), (1, 5), (2, 3), (2, 4), (3, 3), (4, 2), (5, 2)]
    ts = TransitionSystem(names, 0, edges)
    target = frozenset({4, 5})
    run = LassoRun((0, 1, 2), (3,))
    fast = positivity_buechi_opt_all(ts, target, run)
    slow = oracle_shapley(ts, Objective(BUECHI, target=target), run,
                          OPTIMISTIC).positivity()
    assert fast == slow == {"t"}


def test_buechi_positivity_ignores_self_winning_states_between():
    # the loop lies above q0, and q1, q2 and q4 win alone: a bottom-role
    # coalition for q0 that took them in would win without q0 and make the
    # null player q0 look responsible
    ts = TransitionSystem(
        [f"q{i}" for i in range(9)], 0,
        [(0, 1), (1, 2), (1, 5), (2, 3), (2, 4), (3, 3), (4, 0), (4, 7),
         (5, 7), (6, 2), (6, 6), (6, 8), (7, 1), (7, 4), (8, 1), (8, 4),
         (8, 7)])
    target = frozenset({0, 3, 5})
    run = LassoRun((0,), (1, 2, 4, 7))
    fast = positivity_buechi_opt_all(ts, target, run)
    slow = oracle_shapley(ts, Objective(BUECHI, target=target), run,
                          OPTIMISTIC).positivity()
    assert fast == slow == {"q1", "q2", "q4"}


def _reachable_from(succ, sources):
    seen = set(sources)
    stack = list(sources)
    while stack:
        for t in succ(stack.pop()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _reference_order(ts, run, target):
    """leq, down and down_f by graph search, from their definitions."""
    along = dict(run.edges())
    seq = run.sequence()

    def forced_except(free):
        def succ(s):
            return (along[s],) if s in along and s != free else ts.succ[s]
        return succ

    leq = {s: _reachable_from(forced_except(None), [s]) & set(along)
           for s in along}
    down, down_f = {}, {}
    for s in along:
        succ = forced_except(s)
        reach = _reachable_from(succ, [s])
        down[s] = min(seq.index(t) for t in reach if t in along)
        after = _reachable_from(succ, reach & set(target)) & set(along)
        down_f[s] = min((seq.index(t) for t in after), default=None)
    return (leq, {s: seq[i] for s, i in down.items()},
            {s: None if i is None else seq[i] for s, i in down_f.items()})


def _mask(states):
    return sum(1 << s for s in states)


def test_rho_order_masks_match_graph_search():
    cases = [recurrence_example()]
    cases += [inst[:3] for inst in instances(53, 80, max_states=9,
                                             kind=BUECHI)]
    for ts, obj, run in cases:
        order = rho_order(ts, run, obj.target)
        leq, down, down_f = _reference_order(ts, run, obj.target)
        assert order.leq == {s: _mask(up) for s, up in leq.items()}
        assert order.geq == {t: _mask(s for s in leq if t in leq[s])
                             for t in leq}
        assert order.down == down and order.down_f == down_f
        assert order.detours == _mask(s for s in down_f
                                      if down_f[s] is not None)
        for s in leq:
            for t in leq:
                assert order.le(s, t) == (t in leq[s])
                assert order.lt(s, t) == (t in leq[s] and s not in leq[t])


def test_buechi_search_probes_each_coalition_once(monkeypatch):
    ts, obj, run = build_system(generate("exp-coalitions", 30))
    games = []
    gamma = PayoffGame.gamma

    def counted(pg, mask):
        games.append(pg)
        return gamma(pg, mask)

    monkeypatch.setattr(PayoffGame, "gamma", counted)
    positive = positivity_buechi_opt_all(ts, obj.target, run)
    assert positive == frozenset(ts.names) - {"sf"}
    pg = games[0]
    assert all(g is pg for g in games)
    assert len(games) == pg.games_solved
    assert pg.games_solved <= 2 * len(run.states())
