"""Property-based checks over generated systems."""

import math
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from respgame import (BUECHI, MODES, PARITY, REACHABILITY, SAFETY, Game,
                      GameArena, NoViolation, Objective, PayoffGame,
                      PlayerSet, TransitionSystem, attractor, build_game,
                      engrave, find_violating_run, game_value, shapley_exact,
                      solve, validate_run, violates)


@st.composite
def total_systems(draw, max_states=7):
    n = draw(st.integers(min_value=2, max_value=max_states))
    edges = []
    for s in range(n):
        succs = draw(st.sets(st.integers(min_value=0, max_value=n - 1),
                             min_size=1, max_size=3))
        edges.extend((s, t) for t in succs)
    return TransitionSystem([f"q{i}" for i in range(n)], 0, edges)


@st.composite
def violating_instances(draw):
    ts = draw(total_systems())
    n = len(ts)
    kind = draw(st.sampled_from((SAFETY, REACHABILITY)))
    target = draw(st.sets(st.integers(min_value=0, max_value=n - 1),
                          max_size=n))
    obj = Objective(kind, target=frozenset(target))
    try:
        run = find_violating_run(ts, obj)
    except NoViolation:
        return None
    return ts, obj, run


@given(violating_instances())
@settings(max_examples=150, deadline=None)
def test_found_runs_are_valid_and_violating(inst):
    if inst is None:
        return
    ts, obj, run = inst
    assert validate_run(ts, run) is None
    assert violates(ts, obj, run)


@given(violating_instances(), st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=150, deadline=None)
def test_engrave_idempotent_and_total(inst, seed):
    if inst is None:
        return
    ts, _obj, run = inst
    coalition = {s for s in range(len(ts)) if (seed >> s) & 1}
    once = engrave(ts.succ, run, coalition)
    twice = engrave(once, run, coalition)
    assert once == twice
    assert all(once[s] for s in range(len(ts)))
    forced = {s: t for s, t in run.edges() if s not in coalition}
    for s in range(len(ts)):
        if s in forced:
            assert once[s] == (forced[s],)
        else:
            assert once[s] is ts.succ[s]


@given(total_systems(), st.integers(min_value=0, max_value=2 ** 16),
       st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=150, deadline=None)
def test_attractor_monotone_in_target(ts, bits_a, bits_b):
    n = len(ts)
    small = {s for s in range(n) if (bits_a >> s) & 1}
    extra = {s for s in range(n) if (bits_b >> s) & 1}
    sat = frozenset(range(0, n, 2))
    arena = GameArena(ts.names, ts.initial, ts.succ, sat)
    attr_small, _ = attractor(arena, small, for_sat=True)
    attr_big, _ = attractor(arena, small | extra, for_sat=True)
    assert attr_small <= attr_big


@given(total_systems(), st.integers(min_value=0, max_value=2 ** 16),
       st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=150, deadline=None)
def test_safety_region_shrinks_with_larger_avoid_set(ts, bits_a, bits_b):
    n = len(ts)
    small = frozenset(s for s in range(n) if (bits_a >> s) & 1)
    big = small | frozenset(s for s in range(n) if (bits_b >> s) & 1)
    arena = GameArena(ts.names, ts.initial, ts.succ,
                      frozenset(range(0, n, 2)))
    win_small = solve(Game(arena, Objective(SAFETY, target=small)))
    win_big = solve(Game(arena, Objective(SAFETY, target=big)))
    assert win_big.sat_wins <= win_small.sat_wins


def _naive_shapley(pg):
    """The defining sum over a table of every coalition game."""
    n = len(pg.players)
    table = [game_value(build_game(pg.ts, pg.objective, pg.run,
                                   pg.flatten(mask), pg.mode))
             for mask in range(1 << n)]
    fact = math.factorial
    values = []
    for p in range(n):
        bit = 1 << p
        values.append(sum(
            (Fraction(fact(mask.bit_count()) * fact(n - mask.bit_count() - 1),
                      fact(n)) * (table[mask | bit] - table[mask])
             for mask in range(1 << n) if not mask & bit), Fraction(0)))
    return tuple(values)


@st.composite
def coalition_games(draw):
    ts = draw(total_systems())
    n = len(ts)
    kind = draw(st.sampled_from((SAFETY, REACHABILITY, BUECHI, PARITY)))
    if kind == PARITY:
        obj = Objective(PARITY, colours=tuple(
            draw(st.lists(st.integers(min_value=0, max_value=3),
                          min_size=n, max_size=n))))
    else:
        obj = Objective(kind, target=frozenset(draw(st.sets(
            st.integers(min_value=0, max_value=n - 1), max_size=n))))
    try:
        run = find_violating_run(ts, obj)
    except NoViolation:
        run = None
    assume(run is not None)
    mode = draw(st.sampled_from(MODES))
    blocks = draw(st.integers(min_value=2, max_value=3))
    owner = draw(st.lists(st.integers(min_value=0, max_value=blocks - 1),
                          min_size=n, max_size=n))
    members = [frozenset(s for s in range(n) if owner[s] == b)
               for b in range(blocks)]
    names = [f"b{b}" for b in range(blocks) if members[b]]
    members = [m for m in members if m]
    return ts, obj, run, mode, PlayerSet.of_blocks(names, members)


@given(coalition_games())
@settings(max_examples=150, deadline=None)
def test_shapley_exact_equals_defining_sum(inst):
    ts, obj, run, mode, blocks = inst
    for players in (PlayerSet.of_states(ts, range(len(ts))), blocks):
        pg = PayoffGame(ts, obj, run, mode, players)
        assert shapley_exact(pg).values == _naive_shapley(pg)
