"""Engraving, arena construction and the four game solvers."""

import random

import pytest

from conftest import (engraving_example, enumerate_strategies, instances,
                      parity_jump_example, random_objective,
                      random_total_system, recurrence_example,
                      reference_engrave, reference_lists, refinement_example,
                      system, _play_outcome)

from respgame import (BUECHI, FORWARD, MODES, OPTIMISTIC, PARITY,
                      PESSIMISTIC, REACHABILITY, SAFETY, LassoRun, Objective,
                      PayoffGame, PlayerSet, arena_to_dot, build_game,
                      engrave, game_value, solve)
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
    # a view over the model's tuples, not a copy of them
    assert tuple(out) == ts.succ
    assert all(out[s] is ts.succ[s] for s in range(len(ts)))


def test_engrave_empty_coalition_forces_run():
    ts, _obj, run = engraving_example()
    out = engrave(ts.succ, run, set())
    run_next = dict(run.edges())
    for s in run.states():
        assert out[s] == (run_next[s],)


@pytest.mark.parametrize("kind", [SAFETY, REACHABILITY, BUECHI, PARITY])
def test_built_arenas_solve_as_arenas_over_the_reference_lists(kind):
    # the view build_game engraves lists what reference_engrave copies, and
    # every solver reads it as it reads the copies with predecessor lists
    # of their own: solve, game_value and the payoff game's seeded gamma
    # and region, in every mode and for every coalition
    for ts, obj, run, _ in instances(71 + len(kind), 12, max_states=6,
                                     kind=kind):
        players = PlayerSet.of_states(ts, range(len(ts)))
        for mode in MODES:
            pg = PayoffGame(ts, obj, run, mode, players)
            for mask in range(1 << len(ts)):
                coalition = pg.flatten(mask)
                game = build_game(ts, obj, run, coalition, mode)
                lists = reference_lists(ts, run, coalition, mode)
                assert list(game.arena.succ) == list(lists)
                ref = Game(GameArena(ts.names, ts.initial, lists,
                                     game.arena.sat), obj)
                region = solve(ref)
                assert solve(game) == region, (mode, mask)
                assert game_value(game) == int(ts.initial in region)
                assert pg.region(pg.game(mask)) == region, (mode, mask)
                assert pg.gamma(mask) == int(ts.initial in region)


@pytest.mark.parametrize("kind", [SAFETY, REACHABILITY, BUECHI, PARITY])
def test_an_arena_on_a_view_engraved_for_other_owners_solves_as_its_lists(
        kind):
    # the attractor reads the cut off ownership, so an arena whose owners
    # are not the view's own (the swapped players, an equal set that is
    # another object, a random set) must still solve as the copied lists
    rng = random.Random(len(kind))
    for ts, obj, run, _ in instances(83 + len(kind), 60, max_states=7,
                                     kind=kind):
        n = len(ts)
        coalition = frozenset(s for s in range(n) if rng.random() < 0.5)
        view = engrave(ts.succ, run, coalition)
        lists = reference_engrave(ts.succ, run, coalition)
        owner_sets = (coalition, frozenset(range(n)) - coalition,
                      set(coalition),
                      {s for s in range(n) if rng.random() < 0.5})
        for sat in owner_sets:
            arena = GameArena(ts.names, ts.initial, view, sat, ts.preds())
            own = GameArena(ts.names, ts.initial, lists, sat)
            assert list(arena.succ) == list(lists)
            assert solve(Game(arena, obj)) == solve(Game(own, obj)), sat


def test_build_game_reads_no_successor_list():
    ts, obj, run = engraving_example()
    ts.preds()  # the model's predecessor lists are built once, up front
    reads = []

    class Counting(tuple):
        def __iter__(self):
            reads.append("iter")
            return super().__iter__()

        def __getitem__(self, index):
            reads.append(index)
            return super().__getitem__(index)

    ts.succ = Counting(ts.succ)
    for mode in MODES:
        for coalition in ((), {2}, {4}, range(len(ts))):
            game = build_game(ts, obj, run, coalition, mode)
            assert len(game.arena.succ) == len(ts)
    assert reads == []


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
    ts = system(["a", "b"], [(0, 1), (1, 0), (1, 1)])
    run = LassoRun((), (0, 1))
    game = build_game(ts, Objective(SAFETY, target=frozenset()), run, set(),
                      OPTIMISTIC)
    assert game.arena.sat == frozenset()


def test_attractor_chain():
    arena = GameArena(("a", "b", "c"), 0, ((1,), (2,), (2,)),
                      frozenset({0, 1, 2}))
    assert attractor(arena, {2}, for_sat=True) == {0, 1, 2}


def test_attractor_opponent_choice_blocks():
    # b belongs to the opponent and can escape to d, so nothing upstream
    # of the target joins
    arena = GameArena(("a", "b", "c", "d"), 0, ((1,), (2, 3), (2,), (3,)),
                      frozenset({0, 2, 3}))
    assert attractor(arena, {2}, for_sat=True) == {2}


def test_attractor_of_everything():
    ts, _obj, run = recurrence_example()
    arena = build_game(ts, Objective(SAFETY, target=frozenset()), run, set(),
                       PESSIMISTIC).arena
    assert attractor(arena, set(range(6)), for_sat=True) == set(range(6))


def test_solve_worked_example_regions():
    ts, obj, run = refinement_example()
    empty = solve(build_game(ts, obj, run, set(), PESSIMISTIC))
    assert empty == frozenset({4, 7})
    full = solve(build_game(ts, obj, run, set(range(11)), PESSIMISTIC))
    assert full == frozenset(range(9))


def test_solve_parity_single_even_loop():
    ts = system(["a"], [(0, 0)])
    game = build_game(ts, Objective(PARITY, colours=(2,)), None, {0}, FORWARD)
    assert solve(game) == frozenset({0})


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
        wins = solve(game)
        dual_wins = solve(dual_game(game))
        assert wins | dual_wins == frozenset(range(len(game.arena)))
        assert not wins & dual_wins


def _positional_region(game):
    """The states from which some positional Sat strategy beats every
    positional opponent strategy, or None when either player has too many
    strategies to enumerate."""
    arena = game.arena
    mine = enumerate_strategies(arena, arena.sat)
    theirs = enumerate_strategies(arena, set(range(len(arena))) - arena.sat)
    if mine is None or theirs is None:
        return None
    region = set()
    for strat_sat in mine:
        beats_all = set(range(len(arena))) - region
        for strat_unsat in theirs:
            beats_all = {s for s in beats_all
                         if _play_outcome(arena, game.objective, s, strat_sat,
                                          strat_unsat)}
            if not beats_all:
                break
        region |= beats_all
    return frozenset(region)


@pytest.mark.parametrize("kind", [SAFETY, REACHABILITY, BUECHI, PARITY])
def test_solve_equals_positional_brute_force(kind):
    # all four objectives are positionally determined, so the winning
    # region is exactly what some positional strategy wins against every
    # positional opponent: this pins completeness as well as soundness
    checked = 0
    for game in _random_games(31 + len(kind), 300, max_states=7, kind=kind):
        expected = _positional_region(game)
        if expected is None:
            continue
        checked += 1
        assert solve(game) == expected
    assert checked >= 250


@pytest.mark.parametrize("kind", [SAFETY, REACHABILITY, BUECHI, PARITY])
def test_arenas_on_shared_predecessor_lists_solve_as_on_their_own(kind):
    # every engraved arena shares the model's predecessor lists, which keep
    # the edges engraving cut; an arena built from its engraved successor
    # lists alone has none of them.  Parity runs Zielonka, whose attractors
    # are restricted to `alive`.
    for ts, obj, run, mode in instances(41 + len(kind), 30, max_states=7,
                                        kind=kind):
        for mask in range(1 << len(ts)):
            coalition = {s for s in range(len(ts)) if mask >> s & 1}
            game = build_game(ts, obj, run, coalition, mode)
            arena = game.arena
            assert arena.preds() is ts.preds()
            own = GameArena(arena.names, arena.initial, arena.succ,
                            arena.sat)
            region = solve(game)
            assert region == solve(Game(own, obj)), (mode, mask)
            assert game_value(game) == int(ts.initial in region)


@pytest.mark.parametrize("kind", [SAFETY, REACHABILITY, BUECHI, PARITY])
def test_attractor_stopped_at_a_state_holds_it_as_the_full_one_does(kind):
    for ts, obj, run, mode in instances(53 + len(kind), 20, max_states=7,
                                        kind=kind):
        target = obj.target if obj.colours is None else {
            s for s, c in enumerate(obj.colours) if c % 2}
        for mask in range(1 << len(ts)):
            coalition = {s for s in range(len(ts)) if mask >> s & 1}
            arena = build_game(ts, obj, run, coalition, mode).arena
            for for_sat in (True, False):
                full = attractor(arena, target, for_sat)
                for s in range(len(ts)):
                    stopped = attractor(arena, target, for_sat, until=s)
                    assert stopped <= full
                    assert (s in stopped) == (s in full)


def test_attractor_stops_once_the_state_joins():
    arena = GameArena(("a", "b", "c", "d"), 0, ((1,), (2,), (3,), (3,)),
                      frozenset())
    assert attractor(arena, {3}, for_sat=True) == {0, 1, 2, 3}
    assert attractor(arena, {3}, for_sat=True, until=2) == {2, 3}
    assert attractor(arena, {3}, for_sat=True, until=3) == {3}


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
