"""Shared fixtures: the worked-example systems, random instances and the
exhaustive oracles the derived expectations are computed with."""

import random
import sys
from contextlib import ExitStack, contextmanager
from itertools import product
from unittest import mock

from respgame import (BUECHI, PARITY, REACHABILITY, SAFETY, FORWARD,
                      OPTIMISTIC, PESSIMISTIC, AnalysisTimeout, LassoRun,
                      NoViolation, Objective, TransitionSystem,
                      find_violating_run, violates)
from respgame.games import Engraved, GameArena
from respgame.model import predecessors, require_valid_run


class Budget:
    """A deadline that allows `k` calls and raises AnalysisTimeout on the
    (k+1)-th; `calls` counts every call made."""

    def __init__(self, k=float("inf")):
        self.k = k
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls > self.k:
            raise AnalysisTimeout(f"budget of {self.k} calls spent")


@contextmanager
def spy_everywhere(module, name):
    """One `mock` spy on `module.name` under every `respgame` module that
    binds that function, so a call counts whichever module makes it: a
    payoff game's coalition games are built in `shapley`, its bounds in
    `games`."""
    original = getattr(module, name)
    spy = mock.Mock(wraps=original)
    with ExitStack() as stack:
        for key, bound in list(sys.modules.items()):
            if (key == "respgame" or key.startswith("respgame.")) \
                    and getattr(bound, name, None) is original:
                stack.enter_context(mock.patch.object(bound, name, spy))
        yield spy


def system(names, edges):
    """The system on `names` with the edge list `edges`, initial state 0;
    a repeated edge gives one successor."""
    succ = [set() for _ in names]
    for s, t in edges:
        succ[s].add(t)
    return TransitionSystem(names, 0,
                            succ=[tuple(sorted(ends)) for ends in succ])


def mask(positions) -> int:
    """The bitmask of `positions`, as the package keeps a coalition, a
    refinement block or a set of run states."""
    return sum(1 << p for p in positions)


def own_arena(initial, succ, sat) -> GameArena:
    """An arena on the successor lists `succ`, wrapped in a view that cuts
    no state, with predecessor lists of its own."""
    return GameArena(initial, Engraved(succ, {}, frozenset(sat)),
                     predecessors(succ))


def engraving_example():
    """Safety system whose run deviations are pruned by engraving."""
    names = ["s0", "s1", "s2", "s3", "s4", "s5", "bad"]
    edges = [(0, 1), (0, 2), (1, 0), (1, 3), (2, 1), (2, 3), (2, 4), (3, 5),
             (4, 3), (4, 5), (4, 6), (5, 6), (6, 6)]
    ts = system(names, edges)
    obj = Objective(SAFETY, target=frozenset({6}))
    run = LassoRun((0, 2, 4), (6,))
    return ts, obj, run


def recurrence_example():
    """Six-state recurrence example with known exact values."""
    names = ["s0", "s1", "s2", "s3", "s4", "s5"]
    edges = [(0, 1), (0, 5), (1, 2), (1, 4), (2, 2), (2, 3), (3, 3), (4, 0),
             (4, 1), (5, 1)]
    ts = system(names, edges)
    obj = Objective(BUECHI, target=frozenset({2, 5}))
    run = LassoRun((0, 1, 2), (3,))
    return ts, obj, run


def parity_jump_example():
    """Parity system where winning needs a forward jump over a bad colour."""
    names = ["s0", "s1", "s2", "s3", "s4", "s5"]
    edges = [(0, 1), (0, 5), (1, 2), (1, 3), (2, 3), (3, 0), (3, 4), (4, 1),
             (4, 4), (5, 4)]
    ts = system(names, edges)
    obj = Objective(PARITY, colours=(1, 1, 3, 1, 1, 2))
    run = LassoRun((0, 1, 2, 3), (4,))
    return ts, obj, run


def diamond_example():
    """Diamond with a looping run; the grouping examples live here."""
    names = ["s0", "s1", "s2", "s3"]
    edges = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 3), (2, 2), (2, 3), (3, 3)]
    ts = system(names, edges)
    obj = Objective(REACHABILITY, target=frozenset({3}))
    run = LassoRun((), (0,))
    return ts, obj, run


def refinement_example():
    """Eleven-state safety system driving the refinement worked example."""
    names = ["s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "bad"]
    edges = [(0, 1), (0, 2), (1, 2), (2, 1), (2, 3), (3, 4), (3, 5), (3, 6),
             (4, 7), (5, 6), (6, 8), (6, 9), (7, 4), (8, 7), (8, 9), (9, 10),
             (10, 10)]
    ts = system(names, edges)
    obj = Objective(SAFETY, target=frozenset({10}))
    run = LassoRun((0, 2, 3, 6, 9), (10,))
    return ts, obj, run


def decoy_frontier_example():
    """Frontier containing a state with zero responsibility."""
    names = ["s0", "s1", "s2", "bad"]
    edges = [(0, 1), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
    ts = system(names, edges)
    obj = Objective(SAFETY, target=frozenset({3}))
    run = LassoRun((0, 1), (3,))
    return ts, obj, run


def empty_frontier_example():
    """Recurrence instance whose first witness has an empty frontier."""
    names = ["s0", "s1", "s2", "s3"]
    edges = [(0, 1), (1, 1), (1, 2), (1, 3), (2, 0), (3, 0)]
    ts = system(names, edges)
    obj = Objective(BUECHI, target=frozenset({3}))
    run = LassoRun((0,), (1,))
    return ts, obj, run


FIXTURES = {"engraving_example": engraving_example, "recurrence_example": recurrence_example, "parity_jump_example": parity_jump_example, "diamond_example": diamond_example,
            "refinement_example": refinement_example, "decoy_frontier_example": decoy_frontier_example, "empty_frontier_example": empty_frontier_example}


def reference_engrave(succ, run, coalition) -> tuple:
    """The engraved graph's successor lists as a copy: every run state
    outside the coalition keeps only its run edge.  What the view that
    `engrave` returns must list."""
    out = list(succ)
    forced = run.forced
    for s in forced.keys() - coalition:
        out[s] = forced[s]
    return tuple(out)


def reference_lists(ts, run, coalition, mode) -> tuple:
    """The successor lists of the arena `build_game` makes in `mode`."""
    if mode == FORWARD:
        return ts.succ
    return reference_engrave(ts.succ, run, coalition)


def random_total_system(rng: random.Random, max_states: int = 9,
                        min_states: int = 2) -> TransitionSystem:
    n = rng.randint(min_states, max_states)
    edges = []
    for s in range(n):
        out = rng.randint(1, min(3, n))
        edges.extend((s, t) for t in rng.sample(range(n), out))
    return system([f"q{i}" for i in range(n)], edges)


def random_objective(rng: random.Random, ts: TransitionSystem,
                     kind=None) -> Objective:
    n = len(ts)
    kind = kind or rng.choice((SAFETY, REACHABILITY, BUECHI, PARITY))
    if kind == PARITY:
        return Objective(PARITY,
                         colours=tuple(rng.randint(0, 3) for _ in range(n)))
    size = rng.randint(0 if kind == REACHABILITY else 1, max(1, n // 2))
    return Objective(kind, target=frozenset(rng.sample(range(n),
                                                       min(size, n))))


def random_instance(rng: random.Random, max_states: int = 9, kind=None,
                    mode=None):
    """(ts, obj, run, mode) with a violating run, or None when satisfied."""
    ts = random_total_system(rng, max_states)
    obj = random_objective(rng, ts, kind)
    try:
        run = find_violating_run(ts, obj)
    except NoViolation:
        return None
    require_valid_run(ts, run)
    assert violates(ts, obj, run)
    mode = mode or rng.choice((OPTIMISTIC, PESSIMISTIC, FORWARD))
    return ts, obj, run, mode


def instances(seed: int, count: int, max_states: int = 9, kind=None,
              mode=None):
    """Yield `count` violating instances deterministically."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        inst = random_instance(rng, max_states, kind=kind, mode=mode)
        if inst is None:
            continue
        made += 1
        yield inst


def all_simple_lassos(ts: TransitionSystem):
    """Every simple lasso run of the system, by exhaustive path search."""
    succ = ts.succ
    found = []

    def extend(path, on_path):
        last = path[-1]
        for t in succ[last]:
            if t in on_path:
                j = path.index(t)
                found.append(LassoRun(tuple(path[:j]), tuple(path[j:])))
            else:
                path.append(t)
                on_path.add(t)
                extend(path, on_path)
                on_path.discard(t)
                path.pop()

    extend([ts.initial], {ts.initial})
    return found


def exhaustive_violation_exists(ts, obj) -> bool:
    return any(violates(ts, obj, run) for run in all_simple_lassos(ts))


def _play_outcome(arena, obj, start, strat_sat, strat_unsat):
    """Simulate the positional strategies from `start`; True iff the
    satisfying player wins the induced lasso."""
    seen = {}
    play = []
    cur = start
    while cur not in seen:
        seen[cur] = len(play)
        play.append(cur)
        if obj.kind == REACHABILITY and cur in obj.target:
            return True
        if obj.kind == SAFETY and cur in obj.target:
            return False
        if cur in arena.sat:
            nxt = strat_sat.get(cur)
            assert nxt is not None, f"strategy undefined at {cur}"
        else:
            nxt = strat_unsat[cur]
        cur = nxt
    k = seen[cur]
    loop = play[k:]
    prefix = play[:k]
    if obj.kind == SAFETY:
        return not (set(prefix) | set(loop)) & obj.target
    if obj.kind == REACHABILITY:
        return bool((set(prefix) | set(loop)) & obj.target)
    if obj.kind == BUECHI:
        return bool(set(loop) & obj.target)
    return max(obj.colours[s] for s in loop) % 2 == 0


def enumerate_strategies(arena, owned, cap: int = 300):
    """All positional strategies on the states `owned`, or None when there
    are more than `cap`."""
    owned = sorted(owned)
    total = 1
    for s in owned:
        total *= len(arena.succ[s])
        if total > cap:
            return None
    return [dict(zip(owned, picks))
            for picks in product(*(arena.succ[s] for s in owned))]


def is_switching_pair(pg, coalition_mask: int, player: int) -> bool:
    """gamma(C) = 0 and gamma(C + player) = 1; the player must be outside C."""
    bit = 1 << player
    if coalition_mask & bit:
        raise ValueError("player already in the coalition")
    return pg.gamma(coalition_mask) == 0 and pg.gamma(coalition_mask | bit) == 1
