"""Engraving, arena construction and the four game solvers."""

import random

import pytest

from conftest import (enumerate_unsat_strategies, engraving_example, recurrence_example, parity_jump_example, refinement_example,
                      _play_outcome, instances, random_objective,
                      random_total_system)

from respgame import (BUECHI, FORWARD, OPTIMISTIC, PARITY, PESSIMISTIC,
                      REACHABILITY, SAFETY, LassoRun, Objective,
                      TransitionSystem, arena_to_dot, build_game, engrave,
                      game_value, solve)
from respgame.games import Game, GameArena, attractor


def _edge_set(succ):
    return {(s, t) for s, ts_ in enumerate(succ) for t in ts_}


def test_engrave_keeps_coalition_choices():
    ts, _obj, run = engraving_example()
    out = engrave(ts.succ, run, {4})
    edges = _edge_set(out)
    assert (0, 2) in edges and (0, 1) not in edges
    assert (2, 4) in edges and (2, 1) not in edges and (2, 3) not in edges
    assert {(4, 3), (4, 5), (4, 6)} <= edges


def test_engrave_full_coalition_is_identity():
    ts, _obj, run = engraving_example()
    out = engrave(ts.succ, run, set(range(len(ts))))
    assert out == ts.succ


def test_engrave_empty_coalition_forces_run():
    ts, _obj, run = engraving_example()
    out = engrave(ts.succ, run, set())
    run_next = dict(run.edges())
    for s in run.states():
        assert out[s] == (run_next[s],)


def test_build_game_modes_assign_owners():
    ts, obj, run = engraving_example()
    opt = build_game(ts, obj, run, {2}, OPTIMISTIC)
    assert opt.arena.sat == frozenset({2}) | (frozenset(range(7)) - run.states())
    pes = build_game(ts, obj, run, {2}, PESSIMISTIC)
    assert pes.arena.sat == frozenset({2})
    fwd = build_game(ts, obj, None, {2}, FORWARD)
    assert _edge_set(fwd.arena.succ) == _edge_set(ts.succ)


def test_optimistic_value_examples():
    ts, obj, run = engraving_example()
    assert game_value(build_game(ts, obj, run, {2}, OPTIMISTIC)) == 1
    assert game_value(build_game(ts, obj, run, {4}, OPTIMISTIC)) == 0
    assert game_value(build_game(ts, obj, run, set(), OPTIMISTIC)) == 0


def test_optimistic_empty_coalition_full_run_coverage():
    ts = TransitionSystem(["a", "b"], 0, [(0, 1), (1, 0), (1, 1)])
    run = LassoRun((), (0, 1))
    game = build_game(ts, Objective(SAFETY, target=frozenset()), run, set(),
                      OPTIMISTIC)
    assert game.arena.sat == frozenset()


def test_attractor_chain():
    arena = GameArena(("a", "b", "c"), 0, ((1,), (2,), (2,)),
                      frozenset({0, 1, 2}))
    attr, levels = attractor(arena, {2}, for_sat=True)
    assert attr == {0, 1, 2}
    assert levels == {2: 0, 1: 1, 0: 2}


def test_attractor_opponent_choice_blocks():
    # b belongs to the opponent and can escape to d, so nothing upstream
    # of the target joins
    arena = GameArena(("a", "b", "c", "d"), 0, ((1,), (2, 3), (2,), (3,)),
                      frozenset({0, 2, 3}))
    attr, _ = attractor(arena, {2}, for_sat=True)
    assert attr == {2}


def test_attractor_of_everything():
    ts, _obj, run = recurrence_example()
    arena = build_game(ts, Objective(SAFETY, target=frozenset()), run, set(),
                       PESSIMISTIC).arena
    attr, _ = attractor(arena, set(range(6)), for_sat=True)
    assert attr == set(range(6))


def test_solve_worked_example_regions():
    ts, obj, run = refinement_example()
    empty = solve(build_game(ts, obj, run, set(), PESSIMISTIC))
    assert empty.sat_wins == frozenset({4, 7})
    full = solve(build_game(ts, obj, run, set(range(11)), PESSIMISTIC))
    assert full.sat_wins == frozenset(range(9))


def test_solve_parity_single_even_loop():
    ts = TransitionSystem(["a"], 0, [(0, 0)])
    game = build_game(ts, Objective(PARITY, colours=(2,)), None, {0}, FORWARD)
    region = solve(game)
    assert region.sat_wins == frozenset({0})
    assert region.strategy == {0: 0}


def test_game_value_parity_forward_jump():
    ts, obj, run = parity_jump_example()
    assert game_value(build_game(ts, obj, run, {0, 1, 3, 4}, OPTIMISTIC)) == 1
    assert game_value(build_game(ts, obj, run, {0, 1, 4}, OPTIMISTIC)) == 0


def test_game_value_trivial_reachability():
    ts, _obj, run = recurrence_example()
    obj = Objective(REACHABILITY, target=frozenset({0}))
    for c in (set(), {3}, set(range(6))):
        assert game_value(build_game(ts, obj, run, c, PESSIMISTIC)) == 1


def _random_games(seed, count, max_states=9, kind=None):
    rng = random.Random(seed)
    made = 0
    while made < count:
        ts = random_total_system(rng, max_states)
        obj = random_objective(rng, ts, kind)
        coalition = frozenset(s for s in range(len(ts)) if rng.random() < 0.5)
        arena = GameArena(ts.names, ts.initial, ts.succ, coalition)
        made += 1
        yield Game(arena, obj)


def dual_game(game: Game) -> Game:
    """Swap the players and complement the objective.

    Safety and reachability dualise into each other; Buechi and parity are
    complemented through the parity encoding (shift every colour by one).
    Solving the dual yields the opponent's winning region, against which
    the determinacy test below cross-checks `solve`.
    """
    arena = game.arena
    swapped = GameArena(arena.names, arena.initial, arena.succ,
                        frozenset(range(len(arena))) - arena.sat)
    obj = game.objective
    if obj.kind == SAFETY:
        dual_obj = Objective(REACHABILITY, target=obj.target)
    elif obj.kind == REACHABILITY:
        dual_obj = Objective(SAFETY, target=obj.target)
    elif obj.kind == BUECHI:
        colours = tuple(3 if s in obj.target else 2
                        for s in range(len(arena)))
        dual_obj = Objective(PARITY, colours=colours)
    else:
        dual_obj = Objective(PARITY,
                             colours=tuple(c + 1 for c in obj.colours))
    return Game(swapped, dual_obj)


@pytest.mark.parametrize("kind", [SAFETY, REACHABILITY, BUECHI, PARITY])
def test_determinacy_against_dual(kind):
    for game in _random_games(len(kind), 1000, max_states=10, kind=kind):
        wins = solve(game).sat_wins
        dual_wins = solve(dual_game(game)).sat_wins
        assert wins | dual_wins == frozenset(range(len(game.arena)))
        assert not wins & dual_wins


def test_region_closedness():
    for game in _random_games(77, 400):
        region = solve(game)
        for s, t in region.strategy.items():
            assert s in region.sat_wins and s in game.arena.sat
            assert t in region.sat_wins


def test_strategy_sound_against_all_opponents():
    checked = 0
    for game in _random_games(31, 400, max_states=8):
        opponents = enumerate_unsat_strategies(game.arena)
        if opponents is None:
            continue
        region = solve(game)
        for strat_unsat in opponents:
            for s in region.sat_wins:
                checked += 1
                assert _play_outcome(game.arena, game.objective, s,
                                     region.strategy, strat_unsat)
    assert checked > 1000


def test_monotone_value_in_coalition():
    for ts, obj, run, mode in instances(13, 150):
        n = len(ts)
        rng = random.Random(n * 17)
        small = frozenset(s for s in range(n) if rng.random() < 0.4)
        extra = frozenset(s for s in range(n) if rng.random() < 0.4)
        lo = game_value(build_game(ts, obj, run, small, mode))
        hi = game_value(build_game(ts, obj, run, small | extra, mode))
        assert lo <= hi


def test_optimistic_opponent_has_no_choices():
    for ts, obj, run, _mode in instances(29, 120):
        game = build_game(ts, obj, run, set(), OPTIMISTIC)
        for s in range(len(ts)):
            if s not in game.arena.sat:
                assert len(game.arena.succ[s]) == 1


def test_dot_export_shapes_and_run_edges():
    ts, obj, run = engraving_example()
    game = build_game(ts, obj, run, {4}, PESSIMISTIC)
    dot = arena_to_dot(game, run=run, values={4: "1/2"}, positives={4})
    assert "shape=box" in dot and "shape=ellipse" in dot
    assert dot.count('run="1"') == len(run.prefix) + len(run.loop)
    assert "fillcolor=gold" in dot
    assert "1/2" in dot
