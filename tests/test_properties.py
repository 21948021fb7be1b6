"""Property-based checks over generated systems."""

import math
from fractions import Fraction
from unittest import mock

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from conftest import own_arena, system
from respgame import model
from respgame import (BUECHI, MODES, OPTIMISTIC, PARITY, REACHABILITY,
                      SAFETY, NoViolation, Objective, PayoffGame, PlayerSet,
                      build_game, engrave,
                      find_violating_run, game_value, oracle_shapley,
                      positivity_buechi_opt_all, shapley_exact, solve,
                      violates)
from respgame.games import Game, attractor
from respgame.model import require_valid_run


@st.composite
def total_systems(draw, max_states=7):
    n = draw(st.integers(min_value=2, max_value=max_states))
    edges = []
    for s in range(n):
        succs = draw(st.sets(st.integers(min_value=0, max_value=n - 1),
                             min_size=1, max_size=3))
        edges.extend((s, t) for t in succs)
    return system([f"q{i}" for i in range(n)], edges)


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
    require_valid_run(ts, run)
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
    assert list(once) == list(twice)
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
    arena = own_arena(ts.initial, ts.succ, sat)
    assert (attractor(arena, small, for_sat=True)
            <= attractor(arena, small | extra, for_sat=True))


@given(total_systems(), st.integers(min_value=0, max_value=2 ** 16),
       st.integers(min_value=0, max_value=2 ** 16))
@settings(max_examples=150, deadline=None)
def test_safety_region_shrinks_with_larger_avoid_set(ts, bits_a, bits_b):
    n = len(ts)
    small = frozenset(s for s in range(n) if (bits_a >> s) & 1)
    big = small | frozenset(s for s in range(n) if (bits_b >> s) & 1)
    arena = own_arena(ts.initial, ts.succ, frozenset(range(0, n, 2)))
    win_small = solve(Game(arena, Objective(SAFETY, target=small)))
    win_big = solve(Game(arena, Objective(SAFETY, target=big)))
    assert win_big <= win_small


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
def objectives_for(draw, ts):
    n = len(ts)
    kind = draw(st.sampled_from((SAFETY, REACHABILITY, BUECHI, PARITY)))
    if kind == PARITY:
        return Objective(PARITY, colours=tuple(draw(st.lists(
            st.integers(min_value=0, max_value=3), min_size=n, max_size=n))))
    return Objective(kind, target=frozenset(draw(st.sets(
        st.integers(min_value=0, max_value=n - 1), max_size=n))))


@st.composite
def coalition_games(draw):
    ts = draw(total_systems())
    n = len(ts)
    obj = draw(objectives_for(ts))
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


@given(coalition_games(),
       st.lists(st.integers(min_value=0, max_value=2 ** 7 - 1), min_size=1,
                max_size=4))
@settings(max_examples=150, deadline=None)
def test_value_queries_and_shared_predecessors_match_the_full_solve(inst,
                                                                    masks):
    ts, obj, run, mode, _blocks = inst
    pg = PayoffGame(ts, obj, run, mode, PlayerSet.of_states(ts, range(len(ts))))
    for mask in masks:
        mask &= pg.full_mask()
        game = build_game(ts, obj, run, pg.flatten(mask), mode)
        region = solve(game)
        value = int(ts.initial in region)
        assert pg.gamma(mask) == game_value(game) == value
        arena = game.arena
        own = own_arena(arena.initial, arena.succ, arena.sat)
        assert own.preds is not arena.preds
        assert solve(Game(own, obj)) == region


@given(total_systems(), st.data())
@settings(max_examples=150, deadline=None)
def test_buechi_positivity_search_matches_the_oracle(ts, data):
    target = data.draw(st.sets(st.integers(min_value=0,
                                           max_value=len(ts) - 1)))
    obj = Objective(BUECHI, target=frozenset(target))
    try:
        run = find_violating_run(ts, obj)
    except NoViolation:
        run = None
    assume(run is not None)
    assert (positivity_buechi_opt_all(ts, obj.target, run)
            == oracle_shapley(ts, obj, run, OPTIMISTIC).positivity())


def _reference_cycle_through(succ, state, allowed):
    """The per-candidate cycle search: one SCC pass for every call."""
    allowed = set(allowed)
    starts = [t for t in succ[state] if t in allowed]
    if state in starts:
        return [state]
    comp = model._sccs(succ, allowed)
    cid = comp.get(state)
    if cid is None:
        return None
    members = {s for s, c in comp.items() if c == cid}
    if len(members) == 1:
        return None
    best = None
    for t in sorted(starts):
        if t not in members:
            continue
        back = model._bfs_path(succ, t, {state}, allowed=members | {state})
        if back is not None and (best is None or len(back) < len(best)):
            best = back
    if best is None:
        return None
    return [state] + best[:-1]


def _reference_violating_run(ts, obj):
    """`find_violating_run` as it was with one SCC pass per candidate."""
    succ, n = ts.succ, len(ts)
    bfs, lasso = model._bfs_path, model._canonical_lasso
    if obj.kind == SAFETY:
        path = bfs(succ, ts.initial, obj.target)
        if path is None:
            raise NoViolation("the target set is unreachable")
        seq = list(path)
        seen = {s: i for i, s in enumerate(seq)}
        cur = seq[-1]
        while True:
            nxt = succ[cur][0]
            if nxt in seen:
                k = seen[nxt]
                return model.LassoRun(tuple(seq[:k]), tuple(seq[k:]))
            seen[nxt] = len(seq)
            seq.append(nxt)
            cur = nxt
    if obj.kind == REACHABILITY:
        if ts.initial in obj.target:
            raise NoViolation("the initial state is already in the target")
        allowed = set(range(n)) - set(obj.target)
        reach = model._reachable(succ, ts.initial, allowed=allowed)
        for w in sorted(reach):
            cycle = _reference_cycle_through(succ, w, reach)
            if cycle is not None:
                path = bfs(succ, ts.initial, {w}, allowed=reach)
                return lasso(path[:-1], cycle)
        raise NoViolation("every run eventually reaches the target")
    if obj.kind == BUECHI:
        allowed = set(range(n)) - set(obj.target)
        reach = model._reachable(succ, ts.initial)
        for w in sorted(reach & allowed):
            cycle = _reference_cycle_through(succ, w, allowed)
            if cycle is not None:
                return lasso(bfs(succ, ts.initial, {w})[:-1], cycle)
        raise NoViolation("every reachable cycle meets the target set")
    reach = model._reachable(succ, ts.initial)
    for w in sorted(reach):
        c = obj.colours[w]
        if c % 2 == 0:
            continue
        allowed = {s for s in range(n) if obj.colours[s] <= c}
        cycle = _reference_cycle_through(succ, w, allowed)
        if cycle is not None:
            return lasso(bfs(succ, ts.initial, {w})[:-1], cycle)
    raise NoViolation("no reachable odd-dominated cycle exists")


def _outcome(search, ts, obj):
    try:
        return search(ts, obj)
    except NoViolation as exc:
        return f"no violation: {exc}"


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_run_search_matches_per_candidate_reference(data):
    ts = data.draw(total_systems(max_states=12))
    obj = data.draw(objectives_for(ts))
    with mock.patch.object(model, "_sccs", wraps=model._sccs) as sccs:
        found = _outcome(find_violating_run, ts, obj)
    assert found == _outcome(_reference_violating_run, ts, obj)
    # one SCC pass per allowed set: parity has one per odd colour met, and
    # Buechi, searched as parity with colour 1 off the target, one when a
    # reachable state is off the target
    reach = model._reachable(ts.succ, ts.initial)
    if obj.kind == PARITY:
        odd = {obj.colours[s] for s in reach if obj.colours[s] % 2}
        assert sccs.call_count <= len(odd)
    else:
        passes = {SAFETY: 0, BUECHI: int(bool(reach - obj.target)),
                  REACHABILITY: int(ts.initial not in obj.target)}
        assert sccs.call_count == passes[obj.kind]
