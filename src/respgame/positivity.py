"""Polynomial positivity algorithms for optimistic reachability and Buechi."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .games import OPTIMISTIC, engrave
from .model import (BUECHI, REACHABILITY, LassoRun, Objective,
                    TransitionSystem, _reachable)
from .shapley import PayoffGame, PlayerSet


def positivity_reach_opt(ts: TransitionSystem, target, run: LassoRun,
                         deadline=None) -> frozenset:
    """States with positive optimistic responsibility for a reachability
    objective, in polynomial time.

    When the empty coalition already wins there are no switching pairs at
    all; otherwise a state is responsible exactly when it wins on its own.
    `deadline()`, when given, runs before the first probe and once per
    state.
    """
    obj = Objective(REACHABILITY, target=frozenset(target))
    pg = PayoffGame(ts, obj, run, OPTIMISTIC,
                    PlayerSet.of_states(ts, range(len(ts))))
    if deadline is not None:
        deadline()
    if pg.gamma(0) == 1:
        return frozenset()
    out = set()
    for s in sorted(run.states()):
        if deadline is not None:
            deadline()
        if pg.gamma(1 << s) == 1:
            out.add(ts.names[s])
    return frozenset(out)


def bits(mask: int):
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class RhoOrder:
    """Reachability preorder over run states plus the jump targets.

    Sets of run states are bitmasks, bit s for state s.  `pos` maps each
    run state to its index along the run (prefix first, loop after).
    `leq[s]` holds the run states reachable from s in the fully engraved
    system, where every run state follows only the run: the rest of the
    run from s, and the whole loop, so loop states are pairwise
    equivalent.  `geq[t]` holds the run states that reach t.  `down[s]` is
    the earliest run state the satisfying player can reach when
    controlling s alone, `down_f[s]` the earliest one reachable through a
    target state (None when no such detour exists).  `detours` holds the
    run states that have such a detour.
    """

    run: LassoRun
    pos: Dict[int, int]
    leq: Dict[int, int]
    geq: Dict[int, int]
    down: Dict[int, int]
    down_f: Dict[int, Optional[int]]
    detours: int

    def le(self, s: int, t: int) -> bool:
        return bool(self.leq[s] >> t & 1)

    def lt(self, s: int, t: int) -> bool:
        return bool(self.above(s) >> t & 1)

    def above(self, s: int) -> int:
        """The run states strictly above s."""
        return self.leq[s] & ~self.geq[s]

    def in_run_order(self, mask: int) -> List[int]:
        """The states of `mask`, all on the run, in run order."""
        return sorted(bits(mask), key=self.pos.__getitem__)


def rho_order(ts: TransitionSystem, run: LassoRun, target=()) -> RhoOrder:
    """Compute the run preorder and the downward jump targets.

    The preorder lives on the fully engraved system, where every run state
    is forced along the run, so it follows from the run alone.  Jump
    targets use the engraved system with the probed state freed: the
    opponent has no choices there, so player reachability is plain graph
    reachability.
    """
    seq = run.sequence()
    pos = {s: i for i, s in enumerate(seq)}
    loop = 0
    for s in run.loop:
        loop |= 1 << s
    leq = dict.fromkeys(run.loop, loop)
    suffix = loop
    for s in reversed(run.prefix):
        suffix |= 1 << s
        leq[s] = suffix
    geq = {}
    prefix = 0
    for s in run.prefix:
        prefix |= 1 << s
        geq[s] = prefix
    geq.update(dict.fromkeys(run.loop, prefix | loop))
    run_states = run.states()
    target = frozenset(target)
    down: Dict[int, int] = {}
    down_f: Dict[int, Optional[int]] = {}
    detours = 0
    for s in run_states:
        freed = engrave(ts.succ, run, frozenset([s]))
        reach = _reachable(freed, s)
        down[s] = min(reach & run_states, key=pos.__getitem__)
        via = reach & target
        if via:
            after = set()
            for f in sorted(via):
                after |= _reachable(freed, f)
            after &= run_states
            down_f[s] = (min(after, key=pos.__getitem__) if after else None)
        else:
            down_f[s] = None
        if down_f[s] is not None:
            detours |= 1 << s
    return RhoOrder(run, pos, leq, geq, down, down_f, detours)


@dataclass
class BuechiSearch:
    """What the searches over one system, target and run share.

    `solo` is the mask of the run states that win alone: the first search
    probes it and the later ones read it, so no coalition is probed
    twice for it.  The exclusion masks of `closes` and `skips` are
    computed on first use.
    """

    pg: PayoffGame
    order: RhoOrder
    solo: Optional[int] = None
    _closes: Dict[int, int] = field(default_factory=dict, init=False,
                                    repr=False)
    _skips: Dict[int, int] = field(default_factory=dict, init=False,
                                  repr=False)

    @staticmethod
    def of(ts: TransitionSystem, target, run: LassoRun) -> "BuechiSearch":
        obj = Objective(BUECHI, target=frozenset(target))
        pg = PayoffGame(ts, obj, run, OPTIMISTIC,
                        PlayerSet.of_states(ts, range(len(ts))))
        return BuechiSearch(pg, rho_order(ts, run, target))

    def closes(self, top: int) -> int:
        """Run states whose detour through the target rejoins the run at
        or below `top`: they close the loop on their own."""
        mask = self._closes.get(top)
        if mask is None:
            order = self.order
            mask = 0
            for s in bits(order.detours):
                if order.leq[order.down_f[s]] >> top & 1:
                    mask |= 1 << s
            self._closes[top] = mask
        return mask

    def skips(self, skip: int) -> int:
        """Run states at or above `skip` that jump strictly below it on
        their own."""
        mask = self._skips.get(skip)
        if mask is None:
            order = self.order
            below = order.geq[skip] & ~order.leq[skip]
            mask = 0
            for s in bits(order.leq[skip]):
                if below >> order.down[s] & 1:
                    mask |= 1 << s
            self._skips[skip] = mask
        return mask


def positivity_buechi_opt(ts: TransitionSystem, target, run: LassoRun,
                          state: int,
                          search: Optional[BuechiSearch] = None) -> bool:
    """Decide positive optimistic responsibility under a Buechi objective.

    Polynomial search over the shapes a minimal winning coalition can take:
    the state wins alone, or closes the loop through the target (bottom
    role), or supplies one of the downward jumps (middle role).  Each
    candidate coalition is assembled maximally, as a mask of state
    players, and tested with one game solve.  Candidates never include a
    state that wins alone: it would mask whether `state` itself is
    pivotal.
    """
    if search is None:
        search = BuechiSearch.of(ts, target, run)
    order, pg = search.order, search.pg
    if state not in order.pos:
        return False
    if search.solo is None:
        search.solo = 0
        for s in order.pos:
            if pg.gamma(1 << s) == 1:
                search.solo |= 1 << s
    solo = search.solo
    me = 1 << state
    if solo & me:
        return True
    geq = order.geq
    # state as the bottom of the winning loop
    df_s = order.down_f[state]
    if df_s is not None:
        between = order.above(state) & ~solo
        for s_top in order.in_run_order(order.leq[df_s] & ~solo):
            coalition = (me | 1 << s_top
                         | between & geq[s_top] & ~search.closes(s_top))
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
            middle = between & geq[s_top] & ~search.closes(s_top)
            for s_skip in skip_at:
                coalition = (me | 1 << s_bottom
                             | middle & ~search.skips(s_skip))
                if pg.gamma(coalition) == 1:
                    return True
    return False


def positivity_buechi_opt_all(ts: TransitionSystem, target, run: LassoRun,
                              deadline=None) -> frozenset:
    """Positivity set for the whole system (names), from searches that
    share one coalition game, its memo and the states that win alone.

    `deadline()`, when given, runs before the first probe and once per
    state.
    """
    search = BuechiSearch.of(ts, target, run)
    out = set()
    for s in range(len(ts)):
        if deadline is not None:
            deadline()
        if positivity_buechi_opt(ts, target, run, s, search):
            out.add(ts.names[s])
    return frozenset(out)
