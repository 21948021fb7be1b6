"""Engraved game arenas and solvers for the four objective classes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from .errors import InputError
from .model import (BUECHI, PARITY, REACHABILITY, SAFETY, LassoRun, Objective,
                    TransitionSystem)

OPTIMISTIC = "optimistic"
PESSIMISTIC = "pessimistic"
FORWARD = "forward"

MODES = (OPTIMISTIC, PESSIMISTIC, FORWARD)


class GameArena:
    """Two-player ownership partition over a (possibly engraved) graph.

    `sat` holds the indices controlled by the player trying to satisfy the
    objective; every other state belongs to the opponent.
    """

    __slots__ = ("names", "initial", "succ", "sat", "_preds")

    def __init__(self, names, initial, succ, sat):
        self.names = names
        self.initial = initial
        self.succ = succ
        self.sat = frozenset(sat)
        self._preds = None

    def preds(self):
        if self._preds is None:
            pred = [[] for _ in range(len(self.names))]
            for s, ts in enumerate(self.succ):
                for t in ts:
                    pred[t].append(s)
            self._preds = pred
        return self._preds

    def __len__(self):
        return len(self.names)


@dataclass(frozen=True)
class Game:
    arena: GameArena
    objective: Objective


@dataclass(frozen=True)
class WinningRegion:
    """Sat's winning region plus a positional strategy inside it.

    The strategy is a partial map on sat-controlled states; every defined
    edge stays inside `sat_wins` (the region is closed under the strategy).
    """

    sat_wins: frozenset
    strategy: Dict[int, int]


def engrave(succ, run: LassoRun, coalition) -> tuple:
    """Successor lists of the engraved graph: every run state outside the
    coalition keeps only the transition the run takes.

    The forced entries become `(t,)`; every other entry is the very tuple
    from `succ`, shared rather than copied, so all lists stay sorted and
    duplicate-free without a re-check.  `run` must be a valid run of the
    graph (see `validate_run`).
    """
    out = list(succ)
    for s, t in run.edges():
        if s not in coalition:
            out[s] = (t,)
    return tuple(out)


def build_game(ts: TransitionSystem, obj: Objective, run: Optional[LassoRun],
               coalition, mode: str) -> Game:
    """Assemble the arena for a coalition in the given mode.

    Pessimistic: engraved graph, Sat controls exactly the coalition.
    Optimistic: engraved graph, Sat additionally controls every state off
    the run.  Forward: original graph (no engraving), Sat = coalition.
    """
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    coalition = frozenset(coalition)
    if mode == FORWARD:
        arena = GameArena(ts.names, ts.initial, ts.succ, coalition)
        return Game(arena, obj)
    if run is None:
        raise InputError(f"{mode} mode requires a counterexample run")
    sat = coalition
    if mode == OPTIMISTIC:
        off_run = frozenset(range(len(ts))) - run.states()
        sat = coalition | off_run
    arena = GameArena(ts.names, ts.initial, engrave(ts.succ, run, coalition),
                      sat)
    return Game(arena, obj)


def attractor(arena: GameArena, target, for_sat: bool, alive=None):
    """Least set containing `target` closed under forced one-step moves.

    A state owned by the attracting player joins as soon as one successor
    is inside; an opponent state joins once all its successors are.
    Returns (attractor set, level map); levels are the synchronous round at
    which a state joined (targets at level 0), so they are canonical.
    With `alive`, the game is the subgame on those states: no other state
    joins or counts as a successor, and `target` must lie inside it.
    """
    succ = arena.succ
    preds = arena.preds()
    sat = arena.sat
    attr = set(target)
    level = {s: 0 for s in attr}
    count = {}
    frontier = sorted(attr)
    round_no = 0
    while frontier:
        round_no += 1
        joined = []
        for q in frontier:
            for p in preds[q]:
                if p in attr or (alive is not None and p not in alive):
                    continue
                if (p in sat) == for_sat:
                    attr.add(p)
                    level[p] = round_no
                    joined.append(p)
                else:
                    c = count.get(p)
                    if c is None:
                        c = (len(succ[p]) if alive is None
                             else sum(1 for t in succ[p] if t in alive))
                    c -= 1
                    count[p] = c
                    if c == 0:
                        attr.add(p)
                        level[p] = round_no
                        joined.append(p)
        frontier = sorted(set(joined))
    return attr, level


def _attractor_strategy(arena: GameArena, attr, level, for_sat: bool):
    """Rank-decreasing positional strategy for the attracting player."""
    strategy = {}
    for s in attr:
        if (s in arena.sat) != for_sat or level[s] == 0:
            continue
        pick = min(t for t in arena.succ[s]
                   if t in attr and level[t] < level[s])
        strategy[s] = pick
    return strategy


def _solve_safety(arena: GameArena, avoid) -> WinningRegion:
    bad, _ = attractor(arena, avoid, for_sat=False)
    wins = frozenset(range(len(arena))) - bad
    strategy = {}
    for s in sorted(wins & arena.sat):
        strategy[s] = min(t for t in arena.succ[s] if t in wins)
    return WinningRegion(wins, strategy)


def _solve_reachability(arena: GameArena, target) -> WinningRegion:
    attr, level = attractor(arena, target, for_sat=True)
    strategy = _attractor_strategy(arena, attr, level, for_sat=True)
    for s in sorted(set(target) & arena.sat):
        stay = [t for t in arena.succ[s] if t in attr]
        if stay:
            strategy[s] = min(stay)
    return WinningRegion(frozenset(attr), strategy)


def _solve_buechi(arena: GameArena, target) -> WinningRegion:
    """Recurrence fixpoint: shrink the target to states that can re-force a
    visit, then take Sat's attractor of what is left."""
    succ = arena.succ
    recur = set(target)
    while True:
        attr, level = attractor(arena, recur, for_sat=True)
        kept = set()
        for f in recur:
            ts_in = [t for t in succ[f] if t in attr]
            if f in arena.sat:
                if ts_in:
                    kept.add(f)
            else:
                if len(ts_in) == len(succ[f]):
                    kept.add(f)
        if kept == recur:
            break
        recur = kept
    if not recur:
        return WinningRegion(frozenset(), {})
    strategy = _attractor_strategy(arena, attr, level, for_sat=True)
    for f in sorted(recur & arena.sat):
        strategy[f] = min(t for t in succ[f] if t in attr)
    return WinningRegion(frozenset(attr), strategy)


def _zielonka(arena: GameArena, colours, alive):
    """Recursive parity solver; returns (win_even, win_odd, strat_even, strat_odd).

    Recursion removes the highest colour's attractor first; successor picks
    break ties by lowest index, so returned strategies are reproducible.
    """
    if not alive:
        return set(), set(), {}, {}
    succ, sat = arena.succ, arena.sat
    d = max(colours[s] for s in alive)
    if d == 0:
        # everything is winning for the even player; any surviving move does
        win = set(alive)
        strat = {}
        for s in sorted(alive):
            if s in sat:
                strat[s] = min(t for t in succ[s] if t in alive)
        return win, set(), strat, {}
    player_even = (d % 2 == 0)
    head = {s for s in alive if colours[s] == d}
    attr, level = attractor(arena, head, player_even, alive)
    rest = alive - attr
    w_even, w_odd, s_even, s_odd = _zielonka(arena, colours, rest)
    if player_even:
        w_self, w_opp, s_self, s_opp = w_even, w_odd, s_even, s_odd
    else:
        w_self, w_opp, s_self, s_opp = w_odd, w_even, s_odd, s_even
    if not w_opp:
        # the favoured player wins the whole subgame
        win = set(alive)
        strat = dict(s_self)
        strat.update(_attractor_strategy(arena, attr, level, player_even))
        for s in sorted(head):
            if (s in sat) == player_even:
                strat[s] = min(t for t in succ[s] if t in alive)
        if player_even:
            return win, set(), strat, {}
        return set(), win, {}, strat
    opp_attr, opp_level = attractor(arena, w_opp, not player_even, alive)
    remaining = alive - opp_attr
    w_even2, w_odd2, s_even2, s_odd2 = _zielonka(arena, colours, remaining)
    opp_strat = dict(s_opp)
    opp_strat.update(_attractor_strategy(arena, opp_attr, opp_level,
                                         not player_even))
    if player_even:
        win_even, strat_even = w_even2, s_even2
        win_odd = w_odd2 | opp_attr
        strat_odd = dict(s_odd2)
        strat_odd.update(opp_strat)
    else:
        win_odd, strat_odd = w_odd2, s_odd2
        win_even = w_even2 | opp_attr
        strat_even = dict(s_even2)
        strat_even.update(opp_strat)
    return win_even, win_odd, strat_even, strat_odd


def _solve_parity(arena: GameArena, colours) -> WinningRegion:
    w_even, _w_odd, s_even, _ = _zielonka(arena, colours,
                                          set(range(len(arena))))
    strategy = {s: t for s, t in s_even.items()
                if s in w_even and s in arena.sat}
    return WinningRegion(frozenset(w_even), strategy)


def solve(game: Game) -> WinningRegion:
    """Exact Sat winning region with a positional strategy.

    Safety is the complement of the opponent's attractor, reachability the
    Sat attractor, Buechi the recurrence fixpoint, parity a Zielonka
    recursion.  States outside the region are winning for the opponent.
    """
    obj = game.objective
    if obj.kind == SAFETY:
        return _solve_safety(game.arena, obj.target)
    if obj.kind == REACHABILITY:
        return _solve_reachability(game.arena, obj.target)
    if obj.kind == BUECHI:
        return _solve_buechi(game.arena, obj.target)
    return _solve_parity(game.arena, obj.colours)


def game_value(game: Game) -> int:
    """1 iff the initial state lies in Sat's winning region."""
    return 1 if game.arena.initial in solve(game).sat_wins else 0


def dual_game(game: Game) -> Game:
    """Swap the players and complement the objective.

    Safety and reachability dualise into each other; Buechi and parity are
    complemented through the parity encoding (shift every colour by one).
    Solving the dual yields the opponent's winning region, which is how the
    determinacy tests cross-check `solve`.
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


def arena_to_dot(game: Game, run: Optional[LassoRun] = None,
                 values: Optional[dict] = None,
                 positives: Optional[Iterable[int]] = None) -> str:
    """DOT rendering of an arena; see docs/dot.md for the attribute contract."""
    arena = game.arena
    positives = set(positives or ())
    run_edges = set(run.edges()) if run is not None else set()
    lines = ["digraph arena {"]
    lines.append('  rankdir=LR;')
    for s in range(len(arena)):
        shape = "box" if s in arena.sat else "ellipse"
        label = arena.names[s]
        if values is not None and s in values:
            label += "\\n" + str(values[s])
        attrs = [f'label="{label}"', f'shape={shape}']
        if s == arena.initial:
            attrs.append('penwidth=2')
        if s in positives:
            attrs.append('style=filled')
            attrs.append('fillcolor=gold')
        lines.append(f'  n{s} [{", ".join(attrs)}];')
    for s, ts in enumerate(arena.succ):
        for t in ts:
            if (s, t) in run_edges:
                lines.append(f'  n{s} -> n{t} [color=red, style=bold, run="1"];')
            else:
                lines.append(f'  n{s} -> n{t};')
    lines.append("}")
    return "\n".join(lines) + "\n"
