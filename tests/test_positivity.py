"""Polynomial positivity algorithms and the run preorder."""

from fractions import Fraction
from unittest import mock

import pytest

from conftest import (Budget, recurrence_example, instances, mask,
                      spy_everywhere, system)

from respgame import (BUECHI, OPTIMISTIC, REACHABILITY, AnalysisTimeout,
                      LassoRun, Objective, PayoffGame, PlayerSet,
                      games, generate, model, oracle_shapley,
                      positivity, positivity_buechi_opt_all,
                      positivity_reach_opt, shapley_exact, solve)
from respgame.explicit import build_system
from respgame.games import engrave
from respgame.positivity import positivity_buechi_opt, rho_order
from respgame.shapley import bits


def test_positivity_reach_clouds_instance():
    doc = generate("clouds", 3)
    ts, obj, run = build_system(doc)
    assert positivity_reach_opt(ts, obj.target, run) == {"crit"}


def test_positivity_reach_unreachable_target():
    ts = system(["a", "island"], [(0, 0), (1, 1)])
    run = LassoRun((), (0,))
    assert positivity_reach_opt(ts, {1}, run) == frozenset()


def test_positivity_reach_matches_oracle():
    for ts, obj, run, _mode in instances(41, 60, max_states=8,
                                         kind=REACHABILITY):
        fast = positivity_reach_opt(ts, obj.target, run)
        slow = oracle_shapley(ts, obj, run, OPTIMISTIC).positivity()
        assert fast == slow


def reference_reach_opt(ts, target, run):
    """The search `positivity_reach_opt` replaced: the empty coalition's
    game, then one coalition game per run state."""
    obj = Objective(REACHABILITY, target=frozenset(target))
    pg = PayoffGame(ts, obj, run, OPTIMISTIC,
                    PlayerSet.of_states(ts, range(len(ts))))
    if pg.gamma(0) == 1:
        return frozenset()
    return frozenset(ts.names[s] for s in sorted(run.states())
                     if pg.gamma(1 << s) == 1)


def test_positivity_reach_matches_the_per_state_games():
    non_empty = 0
    for ts, obj, run, _mode in instances(67, 1000, max_states=12,
                                         kind=REACHABILITY):
        fast = positivity_reach_opt(ts, obj.target, run)
        assert fast == reference_reach_opt(ts, obj.target, run), (
            ts.names, sorted(obj.target), run)
        non_empty += bool(fast)
    assert non_empty >= 300


@pytest.mark.parametrize("edges, target, prefix, loop, positive", [
    # s0's successor 2 leaves the run, and only it reaches the target 3
    ([(0, 1), (0, 2), (1, 1), (2, 3), (3, 3)], {3}, (0,), (1,), {"s0"}),
    # s1's successor 3 reaches the target 5 only back through s0 and s1,
    # and from s1 on through its successor 4
    ([(0, 1), (1, 2), (1, 3), (1, 4), (2, 2), (3, 0), (4, 5), (5, 5)], {5},
     (0, 1), (2,), {"s1"}),
    # the run itself reaches the target 2, so the empty coalition wins
    ([(0, 1), (0, 2), (1, 1), (2, 2)], {2}, (0,), (2,), set()),
], ids=["off-run-successor", "back-through-the-state", "run-reaches-target"])
def test_positivity_reach_hand_built(edges, target, prefix, loop, positive):
    ts = system([f"s{i}" for i in range(1 + max(map(max, edges)))], edges)
    run = LassoRun(prefix, loop)
    assert (positivity_reach_opt(ts, target, run) == positive
            == reference_reach_opt(ts, target, run))


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
    ts = system(["s0", "a", "f", "sink"],
                [(0, 1), (0, 2), (1, 2), (1, 3), (2, 2), (3, 3)])
    run = LassoRun((0, 1), (3,))
    rep = _exact_reach_opt(ts, {2}, run)
    assert rep.as_dict()["s0"] == Fraction(1, 2)
    assert rep.as_dict()["a"] == Fraction(1, 2)
    assert rep.as_dict()["f"] == 0 and rep.as_dict()["sink"] == 0
    assert rep.values == _equal_shares(ts, {2}, run)


def test_values_reach_clouds():
    doc = generate("clouds", 3)
    ts, obj, run = build_system(doc)
    rep = _exact_reach_opt(ts, obj.target, run)
    assert rep.as_dict()["crit"] == 1
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
            assert order.leq[s] >> t & 1
    for s in run.loop:
        for t in run.loop:
            assert order.leq[s] >> t & 1 and order.leq[t] >> s & 1
    # prefix states strictly precede the loop
    assert order.above(0) >> 3 & 1 and not order.above(3) >> 0 & 1


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
    pg = PayoffGame(ts, obj, run, OPTIMISTIC,
                    PlayerSet.of_states(ts, range(len(ts))))
    order = rho_order(ts, run, obj.target)
    assert positivity_buechi_opt(pg, order, 1)
    assert not positivity_buechi_opt(pg, order, 4)
    assert positivity_buechi_opt_all(ts, obj.target, run) == {"s0", "s1", "s2"}


def test_buechi_positivity_matches_oracle_sample():
    for ts, obj, run, _mode in instances(47, 60, max_states=8, kind=BUECHI):
        fast = positivity_buechi_opt_all(ts, obj.target, run)
        slow = oracle_shapley(ts, obj, run, OPTIMISTIC).positivity()
        assert fast == slow, (ts.names, sorted(obj.target), run)


def _self_winning_top():
    """t loops through the target by itself, and s1 is a null player."""
    names = ["s0", "s1", "t", "z", "f", "f2"]
    edges = [(0, 1), (1, 2), (1, 5), (2, 3), (2, 4), (3, 3), (4, 2), (5, 2)]
    ts = system(names, edges)
    return ts, frozenset({4, 5}), LassoRun((0, 1, 2), (3,))


def _self_winning_between():
    """The loop lies above q0, and q1, q2 and q4 win alone."""
    ts = system(
        [f"q{i}" for i in range(9)],
        [(0, 1), (1, 2), (1, 5), (2, 3), (2, 4), (3, 3), (4, 0), (4, 7),
         (5, 7), (6, 2), (6, 6), (6, 8), (7, 1), (7, 4), (8, 1), (8, 4),
         (8, 7)])
    return ts, frozenset({0, 3, 5}), LassoRun((0,), (1, 2, 4, 7))


def test_buechi_positivity_ignores_self_winning_top_states():
    # the probed state's candidate coalition must not absorb a state that
    # wins alone: here t does, so s1 would otherwise be claimed responsible
    ts, target, run = _self_winning_top()
    fast = positivity_buechi_opt_all(ts, target, run)
    slow = oracle_shapley(ts, Objective(BUECHI, target=target), run,
                          OPTIMISTIC).positivity()
    assert fast == slow == {"t"}


def test_buechi_positivity_ignores_self_winning_states_between():
    # a bottom-role coalition for q0 that took in the states winning alone
    # would win without q0 and make the null player q0 look responsible
    ts, target, run = _self_winning_between()
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


def test_rho_order_masks_match_graph_search():
    cases = [recurrence_example()]
    cases += [inst[:3] for inst in instances(53, 80, max_states=9,
                                             kind=BUECHI)]
    for ts, obj, run in cases:
        order = rho_order(ts, run, obj.target)
        leq, down, down_f = _reference_order(ts, run, obj.target)
        assert order.leq == {s: mask(up) for s, up in leq.items()}
        assert order.geq == {t: mask(s for s in leq if t in leq[s])
                             for t in leq}
        assert order.down == down and order.down_f == down_f
        assert order.detours == mask(s for s in down_f
                                      if down_f[s] is not None)
        for s in leq:
            for t in leq:
                assert (order.leq[s] >> t & 1) == (t in leq[s])
                assert (order.above(s) >> t & 1) == (t in leq[s]
                                                     and s not in leq[t])


def test_rho_order_detour_back_to_the_state_takes_its_lowest_jump():
    # freed s1 reaches the target f, which leads back to s1 itself; from
    # there s1's jump to s0 is open, so the detour rejoins the run at s0
    ts = system(["s0", "s1", "l", "a", "f"],
                [(0, 1), (1, 0), (1, 2), (1, 3), (2, 2), (3, 4),
                 (4, 1)])
    run = LassoRun((0, 1), (2,))
    order = rho_order(ts, run, {4})
    _leq, down, down_f = _reference_order(ts, run, {4})
    assert order.down == down and order.down_f == down_f
    assert order.down[1] == order.down_f[1] == 0


def test_rho_order_makes_one_engrave_and_one_scc_pass():
    ts, obj, run = build_system(generate("exp-coalitions", 30))
    with mock.patch.object(positivity, "engrave", wraps=engrave) as engraved, \
            mock.patch.object(positivity, "_sccs", wraps=model._sccs) as sccs:
        rho_order(ts, run, obj.target)
    assert engraved.call_count == 1 and sccs.call_count == 1


def _reference_masks(order):
    """closes and skips of every run state, one state at a time from their
    definitions: the detour states whose detour rejoins the run at or below
    the state, and the states at or above it that jump strictly below it."""
    closes, skips = {}, {}
    for top in order.pos:
        closes[top] = mask(s for s in bits(order.detours)
                            if order.leq[order.down_f[s]] >> top & 1)
        below = order.geq[top] & ~order.leq[top]
        skips[top] = mask(s for s in bits(order.leq[top])
                           if below >> order.down[s] & 1)
    return closes, skips


def test_rho_order_exclusion_masks_match_their_definitions():
    cases = [recurrence_example()]
    cases += [inst[:3] for inst in instances(59, 120, max_states=10,
                                             kind=BUECHI)]
    for ts, obj, run in cases:
        order = rho_order(ts, run, obj.target)
        assert (order.closes, order.skips) == _reference_masks(order)


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
    assert pg.games_solved <= len(run.states())


def _probed_solo(ts, target, run):
    """The run states that win alone, one game per state."""
    pg = PayoffGame(ts, Objective(BUECHI, target=frozenset(target)), run,
                    OPTIMISTIC, PlayerSet.of_states(ts, range(len(ts))))
    return mask(s for s in run.states() if pg.gamma(1 << s) == 1)


def test_rho_order_solo_matches_single_state_games():
    ts, obj, run = recurrence_example()
    cases = [(ts, obj.target, run), _self_winning_top(),
             _self_winning_between()]
    cases += [(ts, obj.target, run) for ts, obj, run, _mode
              in instances(61, 150, max_states=10, kind=BUECHI)]
    for ts, target, run in cases:
        assert rho_order(ts, run, target).solo == _probed_solo(ts, target,
                                                               run)


# A target run state whose detour reaches only the loop.
NO_WAY_BACK = ([(0, 1), (1, 2), (1, 3), (2, 2), (3, 2)], {1}, (0, 1), (2,))


@pytest.mark.parametrize("edges, target, prefix, loop, solo", [
    # s0 reaches the cycle 3-4 through the target 4, s1 the target 5 on a
    # self-loop; the loop state 2 reaches the target 6 only on a path that
    # ends in the target-free sink 7
    ([(0, 1), (0, 3), (1, 2), (1, 5), (2, 2), (2, 6), (3, 4), (4, 3),
      (5, 5), (6, 7), (7, 7)], {4, 5, 6}, (0, 1), (2,), {0, 1}),
    # s1 reaches the target 3, which leads back to s0 and along the run to
    # s1; s0's detour through the target 4 rejoins only at the loop
    ([(0, 1), (0, 4), (1, 2), (1, 3), (2, 2), (3, 0), (4, 2)], {3, 4},
     (0, 1), (2,), {1}),
    # s1 is a target and its successor 3 leads back to s0 and so to s1
    ([(0, 1), (1, 2), (1, 3), (2, 2), (3, 0)], {1}, (0, 1), (2,), {1}),
    (*NO_WAY_BACK, set()),
], ids=["target-cycle-off-run", "target-then-back", "target-run-state",
        "target-run-state-no-way-back"])
def test_rho_order_solo_on_each_way_to_win_alone(edges, target, prefix,
                                                 loop, solo):
    ts = system([f"s{i}" for i in range(1 + max(map(max, edges)))], edges)
    run = LassoRun(prefix, loop)
    order = rho_order(ts, run, target)
    assert order.solo == mask(solo) == _probed_solo(ts, target, run)


def test_rho_order_solo_is_not_closes():
    # s1 is a target, so its own `closes` holds it, yet it loses alone
    edges, target, prefix, loop = NO_WAY_BACK
    ts = system([f"s{i}" for i in range(4)], edges)
    order = rho_order(ts, LassoRun(prefix, loop), target)
    assert order.closes[1] >> 1 & 1 and not order.solo >> 1 & 1


def test_polynomial_searches_stop_within_their_budget():
    # the reachability search asks its deadline once, before its one game
    ts, obj, run = build_system(generate("clouds", 3))
    with mock.patch.object(positivity, "solve", wraps=solve) as spy:
        with pytest.raises(AnalysisTimeout):
            positivity_reach_opt(ts, obj.target, run, deadline=Budget(0))
        assert spy.call_count == 0
        budget = Budget(1)
        assert positivity_reach_opt(ts, obj.target, run,
                                    deadline=budget) == {"crit"}
        assert spy.call_count == budget.calls == 1
    buechi = build_system(generate("exp-coalitions", 30))
    for search, (ts, obj, run), k in ((positivity_buechi_opt_all, buechi, 0),
                                      (positivity_buechi_opt_all, buechi, 40)):
        with spy_everywhere(games, "solve") as spy:
            with pytest.raises(AnalysisTimeout):
                search(ts, obj.target, run, deadline=Budget(k))
        assert spy.call_count <= k
