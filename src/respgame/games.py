"""Engraved game arenas and solvers for the four objective classes."""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .errors import InputError
from .model import (BUECHI, REACHABILITY, SAFETY, LassoRun, Objective,
                    TransitionSystem, predecessors)

OPTIMISTIC = "optimistic"
PESSIMISTIC = "pessimistic"
FORWARD = "forward"

MODES = (OPTIMISTIC, PESSIMISTIC, FORWARD)


class GameArena:
    """Two-player ownership partition over a (possibly engraved) graph.

    `sat` holds the indices controlled by the player trying to satisfy the
    objective; every other state belongs to the opponent.  `preds` may be
    the predecessor lists of the graph the arena was engraved from, shared
    by every arena on it: engraving only cuts a run state down to its run
    edge, so the attractor skips an edge p -> s whenever `succ[p]` is a
    single state other than s.  Without them the arena builds its own.
    """

    __slots__ = ("names", "initial", "succ", "sat", "_preds")

    def __init__(self, names, initial, succ, sat, preds=None):
        self.names = names
        self.initial = initial
        self.succ = succ
        self.sat = frozenset(sat)
        self._preds = preds

    def preds(self):
        if self._preds is None:
            self._preds = predecessors(self.succ)
        return self._preds

    def __len__(self):
        return len(self.names)


class Game(NamedTuple):
    arena: GameArena
    objective: Objective


def engrave(succ, run: LassoRun, coalition) -> tuple:
    """Successor lists of the engraved graph: every run state outside the
    coalition keeps only the transition the run takes.

    The forced entries are the run's own `(t,)` tuples (`LassoRun.forced`),
    and only the run states outside the coalition are visited.  Every
    other entry is the very tuple from `succ`, shared rather than copied,
    so all lists stay sorted and duplicate-free without a re-check.  `run`
    must be a valid run of the graph (see `require_valid_run`).
    """
    out = list(succ)
    forced = run.forced
    for s in forced.keys() - coalition:
        out[s] = forced[s]
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
    graph (no engraving), Sat = coalition.  Every arena shares the
    predecessor lists of `ts`.
    """
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    coalition = frozenset(coalition)
    if mode == FORWARD:
        arena = GameArena(ts.names, ts.initial, ts.succ, coalition,
                          ts.preds())
        return Game(arena, obj)
    if run is None:
        raise InputError(f"{mode} mode requires a counterexample run")
    sat = coalition
    if mode == OPTIMISTIC:
        if off_run is None:
            off_run = off_run_states(ts, run)
        sat = coalition | off_run
    succ = engrave(ts.succ, run, coalition)
    return Game(GameArena(ts.names, ts.initial, succ, sat, ts.preds()), obj)


def attractor(arena: GameArena, target, for_sat: bool, alive=None,
              until=None, border=None) -> set:
    """Least set containing `target` closed under forced one-step moves.

    A state owned by the attracting player joins as soon as one successor
    is inside; an opponent state joins once all its successors are, and a
    state with one successor once that one is.  The least fixpoint does
    not depend on the order in which states join.  With `alive`, the game
    is the subgame on those states: no other state joins or counts as a
    successor, and `target` must lie inside it.  With `until`, the pass
    stops as soon as that state joins, so the set holds it exactly when
    the least fixpoint does.

    With `border`, `target` may be any set between the real target and
    the least fixpoint, such as the region the attracting player wins in
    a game where it owns fewer states; the fixpoint is the same.  The
    worklist then starts from `border` alone, which must hold every state
    of `target` with a predecessor outside it, so that each state outside
    still counts all of its successors inside.
    """
    succ = arena.succ
    preds = arena.preds()
    sat = arena.sat
    attr = set(target)
    if until in attr:
        return attr
    count = {}
    work = list(attr if border is None else border)
    while work:
        s = work.pop()
        for p in preds[s]:
            if p in attr or (alive is not None and p not in alive):
                continue
            ts = succ[p]
            if len(ts) == 1:
                if ts[0] != s:
                    continue  # engraving cut the edge p -> s
            elif (p in sat) != for_sat:
                c = count.get(p)
                if c is None:
                    c = (len(ts) if alive is None
                         else sum(1 for t in ts if t in alive))
                c -= 1
                count[p] = c
                if c:
                    continue
            attr.add(p)
            if p == until:
                return attr
            work.append(p)
    return attr


def _solve_buechi(arena: GameArena, target) -> frozenset:
    """Recurrence fixpoint: shrink the target to states that can re-force a
    visit, then take Sat's attractor of what is left."""
    succ = arena.succ
    recur = set(target)
    while True:
        attr = attractor(arena, recur, for_sat=True)
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
            return frozenset(attr)
        recur = kept


def _zielonka(arena: GameArena, colours, alive):
    """Recursive parity solver on the subgame `alive`; returns (win_even,
    win_odd).  Recursion removes the highest colour's attractor first."""
    if not alive:
        return set(), set()
    d = max(colours[s] for s in alive)
    if d == 0:
        return set(alive), set()
    player_even = (d % 2 == 0)
    head = {s for s in alive if colours[s] == d}
    attr = attractor(arena, head, player_even, alive)
    w_even, w_odd = _zielonka(arena, colours, alive - attr)
    w_opp = w_odd if player_even else w_even
    if not w_opp:
        # the favoured player wins the whole subgame
        return (set(alive), set()) if player_even else (set(), set(alive))
    opp_attr = attractor(arena, w_opp, not player_even, alive)
    w_even, w_odd = _zielonka(arena, colours, alive - opp_attr)
    if player_even:
        return w_even, w_odd | opp_attr
    return w_even | opp_attr, w_odd


def solve(game: Game) -> frozenset:
    """Exact Sat winning region.

    Safety is the complement of the opponent's attractor, reachability the
    Sat attractor, Buechi the recurrence fixpoint, parity a Zielonka
    recursion.  States outside the region are winning for the opponent.
    """
    arena, obj = game.arena, game.objective
    if obj.kind == SAFETY:
        return frozenset(range(len(arena))) - attractor(arena, obj.target,
                                                         for_sat=False)
    if obj.kind == REACHABILITY:
        return frozenset(attractor(arena, obj.target, for_sat=True))
    if obj.kind == BUECHI:
        return _solve_buechi(arena, obj.target)
    return frozenset(_zielonka(arena, obj.colours, set(range(len(arena))))[0])


def game_value(game: Game) -> int:
    """1 iff the initial state lies in Sat's winning region.

    Reachability and safety stop their attractor as soon as the initial
    state joins it; Buechi and parity read the whole region off `solve`.
    """
    arena, obj = game.arena, game.objective
    if obj.kind == REACHABILITY:
        return int(arena.initial in attractor(arena, obj.target, True,
                                              until=arena.initial))
    if obj.kind == SAFETY:
        return int(arena.initial not in attractor(arena, obj.target, False,
                                                  until=arena.initial))
    return int(arena.initial in solve(game))


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
