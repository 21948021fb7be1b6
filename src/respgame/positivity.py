"""Polynomial positivity algorithms for optimistic reachability and Buechi."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional

from .errors import InputError
from .games import OPTIMISTIC, engrave
from .model import (BUECHI, REACHABILITY, LassoRun, Objective,
                    TransitionSystem, _reachable)
from .shapley import PayoffGame, PlayerSet, ResponsibilityReport


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


def values_reach_opt(ts: TransitionSystem, target,
                     run: LassoRun) -> ResponsibilityReport:
    """Exact optimistic reachability values: every responsible state gets
    1/|R|, everything else 0 (all-zero when no state is responsible)."""
    positive = positivity_reach_opt(ts, target, run)
    names = ts.names
    if positive:
        share = Fraction(1, len(positive))
        values = tuple(share if n in positive else Fraction(0) for n in names)
    else:
        values = tuple(Fraction(0) for _ in names)
    return ResponsibilityReport("states", OPTIMISTIC, names, values)


@dataclass(frozen=True)
class RhoOrder:
    """Reachability preorder over run states plus the jump targets.

    `pos` maps each run state to its index along the run (prefix first,
    loop after).  `leq[s]` is the set of run states reachable from s in the
    fully engraved system; loop states are pairwise equivalent.  `down[s]`
    is the earliest run state the satisfying player can reach when
    controlling s alone, `down_f[s]` the earliest one reachable through a
    target state (None when no such detour exists).
    """

    run: LassoRun
    pos: Dict[int, int]
    leq: Dict[int, frozenset]
    down: Dict[int, int]
    down_f: Dict[int, Optional[int]]

    def le(self, s: int, t: int) -> bool:
        return t in self.leq[s]

    def lt(self, s: int, t: int) -> bool:
        return t in self.leq[s] and s not in self.leq[t]

    def earliest(self, states) -> Optional[int]:
        states = [s for s in states if s in self.pos]
        if not states:
            return None
        return min(states, key=self.pos.__getitem__)


def rho_order(ts: TransitionSystem, run: LassoRun, target=()) -> RhoOrder:
    """Compute the run preorder and the downward jump targets.

    The preorder lives on the fully engraved system, where every run state
    is forced along the run.  Jump targets use the engraved system with the
    probed state freed: the opponent has no choices there, so player
    reachability is plain graph reachability.
    """
    seq = run.sequence()
    pos = {s: i for i, s in enumerate(seq)}
    run_states = run.states()
    base = engrave(ts.succ, run, frozenset())
    leq = {}
    for s in run_states:
        reach = _reachable(base, s)
        leq[s] = frozenset(reach & run_states)
    target = frozenset(target)
    down: Dict[int, int] = {}
    down_f: Dict[int, Optional[int]] = {}
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
    return RhoOrder(run, pos, leq, down, down_f)


def positivity_buechi_opt(ts: TransitionSystem, target, run: LassoRun,
                          state: int,
                          order: Optional[RhoOrder] = None,
                          pg: Optional[PayoffGame] = None) -> bool:
    """Decide positive optimistic responsibility under a Buechi objective.

    Polynomial search over the shapes a minimal winning coalition can take:
    the state wins alone, or closes the loop through the target (bottom
    role), or supplies one of the downward jumps (middle role).  Each
    candidate coalition is assembled maximally and tested with one game
    solve.
    """
    obj = Objective(BUECHI, target=frozenset(target))
    if pg is None:
        pg = PayoffGame(ts, obj, run, OPTIMISTIC,
                        PlayerSet.of_states(ts, range(len(ts))))
    elif len(pg.players) != len(ts):
        raise InputError("positivity search needs the full state player set")
    if order is None:
        order = rho_order(ts, run, target)
    if state not in order.pos:
        return False

    def is_winning(states) -> bool:
        mask = 0
        for s in states:
            mask |= 1 << s
        return pg.gamma(mask) == 1

    if is_winning([state]):
        return True
    rho_states = sorted(order.pos, key=order.pos.__getitem__)

    def candidates_between(lo, hi):
        # lo < s' <= hi in the run preorder
        return [s for s in rho_states if order.lt(lo, s) and order.le(s, hi)]

    def try_bottom(s, s_top) -> bool:
        coalition = {s, s_top}
        for sp in candidates_between(s, s_top):
            if is_winning([sp]):
                continue
            df = order.down_f.get(sp)
            if df is not None and order.le(df, s_top):
                continue
            coalition.add(sp)
        return is_winning(coalition)

    def try_middle(s, s_bottom, s_top, s_skip) -> bool:
        coalition = {s, s_bottom}
        for sp in candidates_between(s_bottom, s_top):
            if is_winning([sp]):
                continue
            df = order.down_f.get(sp)
            if df is not None and order.le(df, s_top):
                continue
            d = order.down[sp]
            if order.lt(d, s_skip) and order.le(s_skip, sp):
                continue
            coalition.add(sp)
        return is_winning(coalition)

    # state as the bottom of the winning loop
    df_s = order.down_f.get(state)
    if df_s is not None:
        for s_top in rho_states:
            if not order.le(df_s, s_top):
                continue
            if is_winning([s_top]):
                # a winning member would sit inside every assembled
                # coalition and mask whether `state` itself is pivotal
                continue
            if try_bottom(state, s_top):
                return True
    # state as one of the middle jumps
    for s_bottom in rho_states:
        if not order.lt(s_bottom, state) or is_winning([s_bottom]):
            continue
        df_b = order.down_f.get(s_bottom)
        if df_b is None:
            continue
        for s_top in rho_states:
            if not (order.le(state, s_top) and order.le(df_b, s_top)):
                continue
            for s_skip in rho_states:
                if not (order.lt(order.down[state], s_skip)
                        and order.le(s_skip, state)):
                    continue
                if not (order.lt(s_bottom, s_skip)
                        and order.le(s_skip, df_b)):
                    continue
                if try_middle(state, s_bottom, s_top, s_skip):
                    return True
    return False


def positivity_buechi_opt_all(ts: TransitionSystem, target, run: LassoRun,
                              deadline=None) -> frozenset:
    """Positivity set for the whole system (names), sharing one gamma memo.

    `deadline()`, when given, runs before the first probe and once per
    state.
    """
    obj = Objective(BUECHI, target=frozenset(target))
    pg = PayoffGame(ts, obj, run, OPTIMISTIC,
                    PlayerSet.of_states(ts, range(len(ts))))
    order = rho_order(ts, run, target)
    out = set()
    for s in range(len(ts)):
        if deadline is not None:
            deadline()
        if positivity_buechi_opt(ts, target, run, s, order=order, pg=pg):
            out.add(ts.names[s])
    return frozenset(out)
