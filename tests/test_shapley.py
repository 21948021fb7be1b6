"""Coalition games, exact Shapley values, pruning and the oracle."""

from fractions import Fraction
from unittest import mock

import pytest

from conftest import (recurrence_example, diamond_example, refinement_example,
                      instances, is_switching_pair)

from respgame import (BUECHI, FORWARD, MODES, OPTIMISTIC, PARITY,
                      PESSIMISTIC, REACHABILITY, SAFETY, AnalysisTimeout,
                      HeuristicsConfig, LassoRun, Objective,
                      PlayerCapExceeded, PlayerSet, TransitionSystem,
                      find_violating_run, generate,
                      oracle_shapley, oracle_shapley_and_minimal,
                      prune_dummies, refine_loop, shapley_exact)
from respgame import games, shapley
from respgame.explicit import build_system
from respgame.games import build_game, game_value, solve
from respgame.shapley import PayoffGame


def _pg(ts, obj, run, mode, indices=None):
    indices = range(len(ts)) if indices is None else indices
    return PayoffGame(ts, obj, run, mode, PlayerSet.of_states(ts, indices))


def test_gamma_examples():
    ts, obj, run = recurrence_example()
    pg = _pg(ts, obj, run, OPTIMISTIC)
    index = pg.players.names.index
    assert pg.gamma(1 << index("s0") | 1 << index("s1")) == 1
    assert pg.gamma(1 << index("s1")) == 0
    # a full coalition still loses an unwinnable objective
    ts2 = TransitionSystem(["a", "island"], 0, [(0, 0), (1, 1)])
    obj2 = Objective(REACHABILITY, target=frozenset({1}))
    pg2 = _pg(ts2, obj2, LassoRun((), (0,)), PESSIMISTIC)
    assert pg2.gamma(pg2.full_mask()) == 0


def test_gamma_memoised():
    ts, obj, run = recurrence_example()
    pg = _pg(ts, obj, run, OPTIMISTIC)
    pg.gamma(3)
    solved = pg.games_solved
    pg.gamma(3)
    assert pg.games_solved == solved and pg.memo_hits == 1


def test_switching_pair_examples():
    ts, obj, run = recurrence_example()
    pg = _pg(ts, obj, run, OPTIMISTIC)
    s0, s1 = 1 << 0, 0
    assert is_switching_pair(pg, 1 << 0, 1)
    assert not is_switching_pair(pg, 0, 1)
    with pytest.raises(ValueError):
        is_switching_pair(pg, 1 << 1, 1)
    ts2 = TransitionSystem(["a", "island"], 0, [(0, 0), (1, 1)])
    pg2 = _pg(ts2, Objective(REACHABILITY, target=frozenset({1})),
              LassoRun((), (0,)), PESSIMISTIC)
    assert not is_switching_pair(pg2, pg2.full_mask() & ~1, 0)


def test_shapley_exact_buechi_example_both_modes():
    ts, obj, run = recurrence_example()
    opt = shapley_exact(_pg(ts, obj, run, OPTIMISTIC))
    assert opt.values == (Fraction(1, 6), Fraction(1, 6), Fraction(2, 3),
                          0, 0, 0)
    pes = shapley_exact(_pg(ts, obj, run, PESSIMISTIC))
    assert pes.values == (Fraction(1, 12), Fraction(1, 12), Fraction(3, 4),
                          0, Fraction(1, 12), 0)


def test_shapley_cap_refusal():
    ts, obj, run = recurrence_example()
    with pytest.raises(PlayerCapExceeded):
        shapley_exact(_pg(ts, obj, run, OPTIMISTIC), cap=3)


def _boundary_sizes(ts, obj, run, mode, players):
    """(|minimal winning|, |maximal losing|) from a table of every game."""
    n = len(players)
    table = [game_value(build_game(
        ts, obj, run, set().union(*(players.members[i] for i in range(n)
                                    if mask >> i & 1)), mode))
        for mask in range(1 << n)]
    bits = [1 << p for p in range(n)]
    minimal = sum(1 for mask in range(1 << n) if table[mask]
                  and not any(table[mask ^ b] for b in bits if mask & b))
    maximal = sum(1 for mask in range(1 << n) if not table[mask]
                  and all(table[mask | b] for b in bits if not mask & b))
    return minimal, maximal


@pytest.mark.parametrize("mode", (PESSIMISTIC, OPTIMISTIC))
@pytest.mark.parametrize("size", (3, 4, 5, 6))
def test_monotone_fill_matches_oracle_within_boundary_bound(size, mode):
    ts, obj, run = build_system(generate("exp-coalitions", size))
    players = prune_dummies(ts, obj, run, mode)
    pg = PayoffGame(ts, obj, run, mode, players)
    rep = shapley_exact(pg)
    indices = [ts.names.index(name) for name in players.names]
    assert rep.values == oracle_shapley(ts, obj, run, mode, indices).values
    n = len(players)
    minimal, maximal = _boundary_sizes(ts, obj, run, mode, players)
    assert pg.games_solved <= (n + 1) * (minimal + maximal)
    assert pg.games_solved < 1 << n


def test_unwinnable_grand_coalition_solves_one_game():
    ts = TransitionSystem(["a", "b", "island"], 0,
                          [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)])
    obj = Objective(REACHABILITY, target=frozenset({2}))
    for mode in (OPTIMISTIC, PESSIMISTIC, FORWARD):
        pg = _pg(ts, obj, LassoRun((), (0,)), mode)
        rep = shapley_exact(pg)
        assert pg.games_solved == 1
        assert rep.values == (0, 0, 0)


def test_empty_coalition_winning_gives_zero_values():
    # every path reaches b, so Sat wins while controlling nothing
    ts = TransitionSystem(["a", "b", "c"], 0,
                          [(0, 1), (0, 2), (1, 0), (1, 1), (2, 1)])
    obj = Objective(REACHABILITY, target=frozenset({1}))
    pg = _pg(ts, obj, None, FORWARD)
    assert pg.gamma(0) == 1
    rep = shapley_exact(pg)
    assert rep.values == (0, 0, 0)


def test_diamond_example_true_values_and_blocks():
    # the four-state diamond: pessimistic values are (2/3, 1/6, 1/6, 0)
    # and the {s0,s1} block carries full block responsibility, both
    # confirmed by the oracle
    ts, obj, run = diamond_example()
    rep = shapley_exact(_pg(ts, obj, run, PESSIMISTIC))
    assert rep.values == (Fraction(2, 3), Fraction(1, 6), Fraction(1, 6), 0)
    assert oracle_shapley(ts, obj, run, PESSIMISTIC).values == rep.values
    blocks = PlayerSet.of_blocks(
        ["left", "mid", "sink"],
        [frozenset({0, 1}), frozenset({2}), frozenset({3})])
    brep = shapley_exact(PayoffGame(ts, obj, run, PESSIMISTIC, blocks))
    assert brep.as_dict() == {"left": Fraction(1), "mid": Fraction(0),
                              "sink": Fraction(0)}


def test_prune_dummies_optimistic_restricted_to_run():
    ts, obj, run = recurrence_example()
    players = prune_dummies(ts, obj, run, OPTIMISTIC)
    assert set(players.names) <= {"s0", "s1", "s2", "s3"}


def test_prune_dummies_deterministic_system_empty():
    ts = TransitionSystem(["a", "b"], 0, [(0, 1), (1, 0)])
    obj = Objective(REACHABILITY, target=frozenset())
    players = prune_dummies(ts, obj, LassoRun((), (0, 1)), PESSIMISTIC)
    assert len(players) == 0


def test_prune_dummies_keeps_responsible_states():
    ts, obj, run = refinement_example()
    players = prune_dummies(ts, obj, run, PESSIMISTIC)
    assert {"s2", "s3", "s6", "s8"} <= set(players.names)


def test_pruned_states_are_null():
    for ts, obj, run, mode in instances(101, 120):
        players = prune_dummies(ts, obj, run, mode)
        full = oracle_shapley(ts, obj, run, mode)
        for name, value in zip(full.names, full.values):
            if name not in players.names:
                assert value == 0, (name, mode)


def test_pruning_preserves_values():
    for ts, obj, run, mode in instances(55, 80, max_states=8):
        players = prune_dummies(ts, obj, run, mode)
        pruned = shapley_exact(PayoffGame(ts, obj, run, mode, players))
        full = oracle_shapley(ts, obj, run, mode)
        for name in players.names:
            assert pruned.value_of(name) == full.value_of(name)


def test_efficiency_sums_to_full_gamma():
    for ts, obj, run, mode in instances(7, 120, max_states=8):
        pg = _pg(ts, obj, run, mode)
        rep = shapley_exact(pg)
        total = sum(rep.values, Fraction(0))
        assert total == pg.gamma(pg.full_mask())


def test_optimistic_positives_lie_on_run():
    for ts, obj, run, _mode in instances(21, 120, max_states=8):
        rep = shapley_exact(_pg(ts, obj, run, OPTIMISTIC))
        on_run = {ts.names[s] for s in run.states()}
        assert rep.positivity() <= on_run


def test_optimistic_reachability_values_all_equal():
    count = 0
    for ts, obj, run, _mode in instances(33, 150, max_states=8,
                                         kind=REACHABILITY):
        rep = shapley_exact(_pg(ts, obj, run, OPTIMISTIC))
        positive = {v for v in rep.values if v > 0}
        assert len(positive) <= 1
        count += bool(positive)
    assert count > 10


def test_threshold_examples():
    ts, obj, run = recurrence_example()
    opt = shapley_exact(_pg(ts, obj, run, OPTIMISTIC))
    assert opt.value_of("s2") > Fraction(1, 2)
    assert not opt.value_of("s2") > Fraction(1)
    pes = shapley_exact(_pg(ts, obj, run, PESSIMISTIC))
    assert not pes.value_of("s0") > Fraction(1, 12)  # strict comparison


def test_oracle_matches_exact_on_examples():
    ts, obj, run = recurrence_example()
    for mode in (OPTIMISTIC, PESSIMISTIC, FORWARD):
        assert (oracle_shapley(ts, obj, run, mode).values
                == shapley_exact(_pg(ts, obj, run, mode)).values)


def test_oracle_empty_player_set():
    ts, obj, run = recurrence_example()
    rep = oracle_shapley(ts, obj, run, OPTIMISTIC, [])
    assert rep.names == () and rep.values == ()


def test_oracle_minimal_winning_ladder():
    doc = generate("exp-coalitions", 3)
    ts, obj, run = build_system(doc)
    minimal = oracle_shapley_and_minimal(ts, obj, run, OPTIMISTIC)[1]
    assert len(minimal) == 8
    for coalition in minimal:
        assert "s0" in coalition
        for i in (1, 2, 3):
            assert len(coalition & {f"s{i}a", f"s{i}b"}) == 1


def test_oracle_minimal_winning_single_pair():
    doc = generate("exp-coalitions", 1)
    ts, obj, run = build_system(doc)
    assert len(oracle_shapley_and_minimal(ts, obj, run, OPTIMISTIC)[1]) == 2


def test_oracle_cap():
    doc = generate("clouds", 10)
    ts, obj, run = build_system(doc)
    with pytest.raises(PlayerCapExceeded):
        oracle_shapley(ts, obj, run, PESSIMISTIC)


def test_report_accessors():
    ts, obj, run = recurrence_example()
    rep = shapley_exact(_pg(ts, obj, run, OPTIMISTIC))
    assert rep.positivity() == {"s0", "s1", "s2"}
    assert rep.value_of("s3") == 0
    assert rep.as_dict()["s2"] == Fraction(2, 3)


def _reached(succ, start):
    seen, stack = {start}, [start]
    while stack:
        for t in succ[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def test_gamma_solves_only_the_states_reachable_from_the_initial_state():
    # d and e form a component that a, b and c never reach; it holds a
    # target of every objective and an edge back into the reachable part
    ts = TransitionSystem(["a", "b", "c", "d", "e"], 0,
                          [(0, 1), (0, 2), (1, 0), (2, 2), (3, 3), (3, 4),
                           (3, 0), (4, 3)])
    objectives = (Objective(SAFETY, target=frozenset({2, 4})),
                  Objective(REACHABILITY, target=frozenset({4})),
                  Objective(BUECHI, target=frozenset({1, 3})),
                  Objective(PARITY, colours=(1, 0, 1, 2, 2)))
    for obj in objectives:
        run = find_violating_run(ts, obj)
        for mode in MODES:
            pg = _pg(ts, obj, run, mode)
            with mock.patch.object(shapley, "solve", wraps=solve) as spy:
                for mask in range(1 << len(ts)):
                    cold = game_value(build_game(ts, obj, run,
                                                 pg.flatten(mask), mode))
                    assert pg.gamma(mask) == cold, (obj.kind, mode, mask)
            assert spy.call_count == 1 << len(ts)
            for call in spy.call_args_list:
                arena = call.args[0].arena
                assert set(arena.states) == _reached(arena.succ, 0)
                assert not {3, 4} & set(arena.states)


def test_value_solves_build_no_strategy():
    with mock.patch.object(games, "_attractor_strategy",
                           wraps=games._attractor_strategy) as spy:
        for ts, obj, run, mode in instances(41, 60):
            pg = _pg(ts, obj, run, mode)
            shapley_exact(pg)
            refine_loop(pg, HeuristicsConfig())
            prune_dummies(ts, obj, run, mode)
        assert spy.call_count == 0
        # the strategy of a solve is still there for whoever reads it
        ts, obj, run = recurrence_example()
        region = solve(build_game(ts, obj, run, set(range(len(ts))),
                                  PESSIMISTIC))
        assert region.strategy and spy.call_count == 1


def test_prune_dummies_checks_the_deadline_before_each_game():
    ts, obj, run = recurrence_example()
    ticks = []

    def expired():
        raise AnalysisTimeout("timeout")

    with mock.patch.object(shapley, "solve", wraps=solve) as spy:
        with pytest.raises(AnalysisTimeout):
            prune_dummies(ts, obj, run, PESSIMISTIC, deadline=expired)
        assert spy.call_count == 0
        players = prune_dummies(ts, obj, run, PESSIMISTIC,
                                deadline=lambda: ticks.append(spy.call_count))
    assert ticks == [0, 1]
    assert players == prune_dummies(ts, obj, run, PESSIMISTIC)
