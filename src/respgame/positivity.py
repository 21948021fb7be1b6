"""Polynomial positivity algorithms for optimistic reachability and Buechi."""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from .games import OPTIMISTIC, build_game, engrave, solve
from .model import (BUECHI, REACHABILITY, LassoRun, Objective,
                    TransitionSystem, _sccs)
from .shapley import PayoffGame, PlayerSet


def positivity_reach_opt(ts: TransitionSystem, target, run: LassoRun,
                         deadline=None) -> frozenset:
    """States with positive optimistic responsibility for a reachability
    objective, read off the winning region W of one game: the empty
    coalition's, on the fully engraved system.

    Every state with a choice there belongs to Sat, so W holds the states
    that reach a target along engraved edges.  When the initial state is in
    W the empty coalition wins and there are no switching pairs at all.
    Otherwise no run state is in W, since the run leads from the initial
    state to each of them, and a state is responsible exactly when it wins
    on its own.  With only s free the play follows the run to s, and a
    shortest winning play leaves s once and then uses only engraved edges:
    s wins alone iff some successor of s is in W.  And every winning
    coalition holds a state that wins alone: the last run state where a
    winning play leaves the run, since from there the play uses only
    engraved edges.  So every minimal winning coalition is a single state,
    and one region answers every run state.
    """
    obj = Objective(REACHABILITY, target=frozenset(target))
    if deadline is not None:
        deadline()
    won = solve(build_game(ts, obj, run, (), OPTIMISTIC))
    if ts.initial in won:
        return frozenset()
    return frozenset(ts.names[s] for s in run.states()
                     if not won.isdisjoint(ts.succ[s]))


def bits(mask: int):
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class RhoOrder(NamedTuple):
    """Reachability preorder over run states plus the jump targets.

    Sets of run states are bitmasks, bit s for state s.  `pos` maps each
    run state to its index along the run (prefix first, loop after).  The
    rank of a run state is its index for prefix states and `len(prefix)`
    for loop states.  `leq[s]` holds the run states reachable from s in
    the fully engraved system, where every run state follows only the run:
    those of rank at least s's, so loop states are pairwise equivalent.
    `geq[t]` holds the run states that reach t.  `down[s]` is the earliest
    run state the satisfying player can reach when controlling s alone,
    `down_f[s]` the earliest one reachable through a target state (None
    when no such detour exists).  `detours` holds the run states that have
    such a detour.  `closes[s]` holds the detour states whose detour
    rejoins the run at or below s: they close the loop on their own.
    `skips[s]` holds the run states at or above s that jump strictly below
    it on their own.  `solo` holds the run states whose coalition of
    themselves alone wins.  It is not read off `closes`: a target run
    state with no way back to itself is in its own `closes` but loses.
    """

    pos: Dict[int, int]
    leq: Dict[int, int]
    geq: Dict[int, int]
    down: Dict[int, int]
    down_f: Dict[int, Optional[int]]
    detours: int
    closes: Dict[int, int]
    skips: Dict[int, int]
    solo: int

    def above(self, s: int) -> int:
        """The run states strictly above s."""
        return self.leq[s] & ~self.geq[s]

    def in_run_order(self, mask: int) -> List[int]:
        """The states of `mask`, all on the run, in run order."""
        return sorted(bits(mask), key=self.pos.__getitem__)


def rho_order(ts: TransitionSystem, run: LassoRun, target=()) -> RhoOrder:
    """Compute the run preorder, the downward jump targets and the
    exclusion masks, from one SCC pass over the fully engraved system.

    Freeing run state s adds only s's own successors to that system, and
    the opponent has no choices there, so player reachability is graph
    reachability.  The run states a state reaches are those of rank at
    least the least rank it reaches.  So `down[s]` is the least rank
    reached from s or one of its successors, and `down_f[s]` the least
    rank reached after a target state; that is `down[s]` when it is at or
    below s's own rank, because the detour then reaches back to s.  Tarjan
    numbers the components sinks first, so one pass in component order
    settles every successor before its predecessors.

    The same pass decides which run states win alone.  With only s free
    the play follows the run to s, and a shortest winning play leaves s
    once and then moves along the fully engraved system only.  It either
    reaches a component there that holds a target and a cycle (`lasso`;
    when the run loop is target-free, such a component lies off the run),
    or it returns to s through a target: it reaches rank at most s's after
    a target state, and from there the run leads back to s.  When s is a
    target itself, the way back passes s, so the same test holds.
    """
    seq = run.sequence()
    pos = {s: i for i, s in enumerate(seq)}
    top = len(run.prefix)
    none = top + 1  # past every rank: reaches no run state
    rank = {s: min(i, top) for s, i in pos.items()}
    # at_least[r]: the run states of rank r or more
    at_least = [0] * (none + 1)
    for s, r in rank.items():
        at_least[r] |= 1 << s
    for r in range(top, -1, -1):
        at_least[r] |= at_least[r + 1]
    leq = {s: at_least[r] for s, r in rank.items()}
    geq = {s: at_least[0] & ~at_least[r + 1] for s, r in rank.items()}
    succ = tuple(engrave(ts.succ, run, ()))
    comp = _sccs(succ, range(len(ts)))
    target = frozenset(target)
    # per component: the least rank reached, and the least reached after a
    # target; `comp` lists the states component by component, sinks first
    low = [none] * len(ts)
    for v, c in comp.items():
        low[c] = min([low[c], rank.get(v, none)]
                     + [low[comp[t]] for t in succ[v]])
    # per component also whether it reaches a target on a cycle: a target
    # with a successor in its own component lies on one
    low_f = [none] * len(ts)
    lasso = [False] * len(ts)
    for v, c in comp.items():
        low_f[c] = min([low_f[c], low[c] if v in target else none]
                       + [low_f[comp[t]] for t in succ[v]])
        lasso[c] = lasso[c] or any(
            lasso[comp[t]] or (v in target and comp[t] == c) for t in succ[v])
    down, down_f = {}, {}
    below = [0] * (none + 1)  # run states by the rank they jump to, plus 1
    closes_at = [0] * (none + 1)  # detour states by the rank they rejoin
    solo = 0
    for s, r in rank.items():
        d = min([r] + [low[comp[t]] for t in ts.succ[s]])
        f = min(low_f[comp[t]] for t in ts.succ[s])
        if f <= r or any(lasso[comp[t]] for t in ts.succ[s]):
            solo |= 1 << s
        if s in target or f <= r:
            f = d
        down[s] = seq[d]
        down_f[s] = seq[f] if f < none else None
        below[d + 1] |= 1 << s
        closes_at[f] |= 1 << s
    # summed up: below[r] jumps below rank r, closes_at[r] rejoins at or below
    for r in range(top):
        below[r + 1] |= below[r]
        closes_at[r + 1] |= closes_at[r]
    return RhoOrder(pos, leq, geq, down, down_f, closes_at[top],
                    {s: closes_at[r] for s, r in rank.items()},
                    {s: leq[s] & below[r] for s, r in rank.items()}, solo)


class BuechiSearch(NamedTuple):
    """What the searches over one system, target and run share: the
    coalition game with its memo, and `order`, which holds the run order,
    the jump targets, the exclusion masks and the states that win alone,
    all from one SCC pass up front.
    """

    pg: PayoffGame
    order: RhoOrder

    @staticmethod
    def of(ts: TransitionSystem, target, run: LassoRun,
           deadline=None) -> "BuechiSearch":
        obj = Objective(BUECHI, target=frozenset(target))
        pg = PayoffGame(ts, obj, run, OPTIMISTIC,
                        PlayerSet.of_states(ts, range(len(ts))), deadline)
        return BuechiSearch(pg, rho_order(ts, run, target))


def positivity_buechi_opt(search: BuechiSearch, state: int) -> bool:
    """Decide positive optimistic responsibility under a Buechi objective.

    Polynomial search over the shapes a minimal winning coalition can take:
    the state wins alone, or closes the loop through the target (bottom
    role), or supplies one of the downward jumps (middle role).  Each
    candidate coalition is assembled maximally, as a mask of state
    players, and tested with one game solve.  Candidates never include a
    state that wins alone: it would mask whether `state` itself is
    pivotal.
    """
    order, pg = search.order, search.pg
    if state not in order.pos:
        return False
    solo = order.solo
    me = 1 << state
    if solo & me:
        return True
    geq = order.geq
    # state as the bottom of the winning loop; alone it loses
    df_s = order.down_f[state]
    if df_s is not None:
        between = order.above(state) & ~solo
        for s_top in order.in_run_order(order.leq[df_s] & ~(solo | me)):
            coalition = (me | 1 << s_top
                         | between & geq[s_top] & ~order.closes[s_top])
            if pg.gamma(coalition) == 1:
                return True
    # state as one of the middle jumps
    for s_bottom in order.in_run_order(geq[state] & ~order.leq[state]
                                       & order.detours & ~solo):
        df_b = order.down_f[s_bottom]
        between = order.above(s_bottom) & ~solo
        skip_at = order.in_run_order(order.above(order.down[state])
                                     & geq[state] & order.above(s_bottom)
                                     & geq[df_b])
        for s_top in order.in_run_order(order.leq[state] & order.leq[df_b]):
            middle = between & geq[s_top] & ~order.closes[s_top]
            for s_skip in skip_at:
                coalition = (me | 1 << s_bottom
                             | middle & ~order.skips[s_skip])
                if pg.gamma(coalition) == 1:
                    return True
    return False


def positivity_buechi_opt_all(ts: TransitionSystem, target, run: LassoRun,
                              deadline=None) -> frozenset:
    """Positivity set for the whole system (names), from searches that
    share one coalition game, its memo and the states that win alone."""
    search = BuechiSearch.of(ts, target, run, deadline)
    out = set()
    for s in range(len(ts)):
        if positivity_buechi_opt(search, s):
            out.add(ts.names[s])
    return frozenset(out)
