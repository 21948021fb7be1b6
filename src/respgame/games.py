"""Engraved game arenas and solvers for the four objective classes."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, Optional

from .errors import InputError
from .model import (BUECHI, REACHABILITY, SAFETY, LassoRun, Objective,
                    TransitionSystem)

OPTIMISTIC = "optimistic"
PESSIMISTIC = "pessimistic"
FORWARD = "forward"

MODES = (OPTIMISTIC, PESSIMISTIC, FORWARD)


class GameArena:
    """Two-player ownership partition over a (possibly engraved) graph.

    `sat` holds the indices controlled by the player trying to satisfy the
    objective; every other state belongs to the opponent.  `states` are the
    states of the game: all of them, or after `reachable()` only those
    reachable from `initial`; indices keep their meaning either way.
    """

    __slots__ = ("names", "initial", "succ", "sat", "states", "_preds")

    def __init__(self, names, initial, succ, sat, states=None, preds=None):
        self.names = names
        self.initial = initial
        self.succ = succ
        self.sat = frozenset(sat)
        self.states = range(len(names)) if states is None else states
        self._preds = preds

    def preds(self):
        if self._preds is None:
            pred = [[] for _ in range(len(self.names))]
            for s, ts in enumerate(self.succ):
                for t in ts:
                    pred[t].append(s)
            self._preds = pred
        return self._preds

    def reachable(self) -> "GameArena":
        """The subgame on the states reachable from `initial`.

        That set is closed under every successor, whoever owns the state,
        so each of its states keeps its value.  One forward pass finds it
        and fills the predecessor lists of its states only; the entries of
        the other states stay None.
        """
        succ = self.succ
        preds = [None] * len(succ)
        preds[self.initial] = []
        order = [self.initial]
        for s in order:
            for t in succ[s]:
                p = preds[t]
                if p is None:
                    preds[t] = [s]
                    order.append(t)
                else:
                    p.append(s)
        return GameArena(self.names, self.initial, succ, self.sat,
                         frozenset(order), preds)

    def __len__(self):
        return len(self.names)


@dataclass(frozen=True)
class Game:
    arena: GameArena
    objective: Objective

    def reachable(self) -> "Game":
        """The same game on the states reachable from the initial state."""
        return Game(self.arena.reachable(), self.objective)


class WinningRegion:
    """Sat's winning region plus a positional strategy inside it.

    The strategy is a partial map on sat-controlled states; every defined
    edge stays inside `sat_wins` (the region is closed under the strategy).
    It is put together from `moves`, callables that each return part of
    it, the first time it is read, so a solve whose strategy nobody reads
    builds none.
    """

    __slots__ = ("sat_wins", "_moves", "_strategy")

    def __init__(self, sat_wins: frozenset, moves=()):
        self.sat_wins = sat_wins
        self._moves = moves
        self._strategy = None

    @property
    def strategy(self) -> Dict[int, int]:
        if self._strategy is None:
            self._strategy = {}
            for part in self._moves:
                self._strategy.update(part())
            self._moves = ()
        return self._strategy


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


def off_run_states(ts: TransitionSystem, run: LassoRun) -> frozenset:
    return frozenset(range(len(ts))) - run.states()


def build_game(ts: TransitionSystem, obj: Objective, run: Optional[LassoRun],
               coalition, mode: str, off_run=None) -> Game:
    """Assemble the arena for a coalition in the given mode.

    Pessimistic: engraved graph, Sat controls exactly the coalition.
    Optimistic: engraved graph, Sat additionally controls every state off
    the run; a caller building many games passes `off_run_states(ts, run)`
    as `off_run` so that it is not recomputed for each.  Forward: original
    graph (no engraving), Sat = coalition.
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
        if off_run is None:
            off_run = off_run_states(ts, run)
        sat = coalition | off_run
    arena = GameArena(ts.names, ts.initial, engrave(ts.succ, run, coalition),
                      sat)
    return Game(arena, obj)


def attractor(arena: GameArena, target, for_sat: bool, alive=None):
    """Least set containing `target` closed under forced one-step moves.

    A state owned by the attracting player joins as soon as one successor
    is inside; an opponent state joins once all its successors are.
    Returns (attractor set, level map); levels are the synchronous round at
    which a state joined (targets at level 0), so they are canonical and
    the order in which a round visits its states does not matter.
    With `alive`, the game is the subgame on those states: no other state
    joins or counts as a successor, and `target` must lie inside it.
    """
    succ = arena.succ
    preds = arena.preds()
    sat = arena.sat
    attr = set(target)
    level = {s: 0 for s in attr}
    count = {}
    frontier = list(attr)
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
        frontier = joined
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


def _stay_moves(arena: GameArena, states, within, for_sat: bool):
    """Each of `states` owned by the player moves to its lowest successor
    inside `within`, if it has one."""
    strategy = {}
    for s in sorted(states):
        if (s in arena.sat) == for_sat:
            inside = [t for t in arena.succ[s] if t in within]
            if inside:
                strategy[s] = min(inside)
    return strategy


def _solve_safety(arena: GameArena, avoid) -> WinningRegion:
    states = arena.states
    bad, _ = attractor(arena, [s for s in avoid if s in states],
                       for_sat=False)
    wins = frozenset(states) - bad
    return WinningRegion(wins, (partial(_stay_moves, arena, wins, wins, True),))


def _solve_reachability(arena: GameArena, target) -> WinningRegion:
    target = [s for s in target if s in arena.states]
    attr, level = attractor(arena, target, for_sat=True)
    return WinningRegion(frozenset(attr), (
        partial(_attractor_strategy, arena, attr, level, True),
        partial(_stay_moves, arena, target, attr, True)))


def _solve_buechi(arena: GameArena, target) -> WinningRegion:
    """Recurrence fixpoint: shrink the target to states that can re-force a
    visit, then take Sat's attractor of what is left."""
    succ = arena.succ
    recur = {s for s in target if s in arena.states}
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
        return WinningRegion(frozenset())
    return WinningRegion(frozenset(attr), (
        partial(_attractor_strategy, arena, attr, level, True),
        partial(_stay_moves, arena, recur, attr, True)))


def _zielonka(arena: GameArena, colours, alive):
    """Recursive parity solver; returns (win_even, win_odd, moves_even,
    moves_odd), the moves as `WinningRegion` takes them.

    Recursion removes the highest colour's attractor first; successor picks
    break ties by lowest index, so the strategies are reproducible.
    """
    if not alive:
        return set(), set(), [], []
    d = max(colours[s] for s in alive)
    if d == 0:
        # everything is winning for the even player; any surviving move does
        return set(alive), set(), [partial(_stay_moves, arena, alive, alive,
                                           True)], []
    player_even = (d % 2 == 0)
    head = {s for s in alive if colours[s] == d}
    attr, level = attractor(arena, head, player_even, alive)
    rest = alive - attr
    w_even, w_odd, m_even, m_odd = _zielonka(arena, colours, rest)
    if player_even:
        w_opp, m_self, m_opp = w_odd, m_even, m_odd
    else:
        w_opp, m_self, m_opp = w_even, m_odd, m_even
    if not w_opp:
        # the favoured player wins the whole subgame
        win = set(alive)
        moves = m_self + [
            partial(_attractor_strategy, arena, attr, level, player_even),
            partial(_stay_moves, arena, head, alive, player_even)]
        if player_even:
            return win, set(), moves, []
        return set(), win, [], moves
    opp_attr, opp_level = attractor(arena, w_opp, not player_even, alive)
    remaining = alive - opp_attr
    w_even2, w_odd2, m_even2, m_odd2 = _zielonka(arena, colours, remaining)
    opp_moves = m_opp + [partial(_attractor_strategy, arena, opp_attr,
                                 opp_level, not player_even)]
    if player_even:
        return w_even2, w_odd2 | opp_attr, m_even2, m_odd2 + opp_moves
    return w_even2 | opp_attr, w_odd2, m_even2 + opp_moves, m_odd2


def _solve_parity(arena: GameArena, colours) -> WinningRegion:
    w_even, _w_odd, moves, _ = _zielonka(arena, colours, set(arena.states))
    return WinningRegion(frozenset(w_even), moves)


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
