"""Engraved game arenas and solvers for the four objective classes."""

from __future__ import annotations

from collections.abc import Sequence
from typing import List, NamedTuple, Optional

from .errors import InputError, no_deadline
from .model import (BUECHI, REACHABILITY, SAFETY, LassoRun, Objective,
                    TransitionSystem)

OPTIMISTIC = "optimistic"
PESSIMISTIC = "pessimistic"
FORWARD = "forward"

MODES = (OPTIMISTIC, PESSIMISTIC, FORWARD)


class Engraved(Sequence):
    """Read-only view of an engraved graph's successor lists (`engrave`),
    and the one successor representation of every arena.

    A run state outside `owners` has only its run edge, `forced[s]`; every
    other state has the model's own tuple `base[s]`.  A view with no
    `forced` state cuts nothing: it is the forward-mode graph.  Indexing
    reads one entry; iterating materialises every list.
    """

    __slots__ = ("base", "forced", "owners")

    def __init__(self, base, forced, owners):
        self.base = base
        self.forced = forced
        self.owners = owners

    def __len__(self):
        return len(self.base)

    def __getitem__(self, s):
        if s in self.forced and s not in self.owners:
            return self.forced[s]
        return self.base[s]

    def __iter__(self):
        out = list(self.base)
        owners = self.owners
        for s, cut in self.forced.items():
            if s not in owners:
                out[s] = cut
        return iter(out)


class GameArena:
    """Two-player ownership partition over an engraved graph.

    `succ` is an `Engraved` view; its `owners`, shared as `sat`, are the
    indices controlled by the player trying to satisfy the objective, and
    every other state belongs to the opponent.  So a state is cut down to
    its run edge exactly when it is a run state outside `sat`, and no cut
    state is Sat's; the attractor relies on this.  `preds` are the
    predecessor lists of the view's `base`, the graph it was engraved
    from, so they keep the edges it cut.
    """

    __slots__ = ("initial", "succ", "sat", "preds")

    def __init__(self, initial, succ, preds):
        self.initial = initial
        self.succ = succ
        self.sat = succ.owners
        self.preds = preds

    def __len__(self):
        return len(self.succ)


class Game(NamedTuple):
    arena: GameArena
    objective: Objective


def engrave(succ, run: LassoRun, coalition) -> Engraved:
    """Successor lists of the engraved graph: every run state outside the
    coalition keeps only the transition the run takes.

    The result is a view over `succ`, made in O(1) without reading a
    list: a run state outside `coalition` gives its run's own `(t,)` tuple
    (`LassoRun.forced`), every other state the very tuple from `succ`, so
    all lists stay sorted and duplicate-free.  States off the run in
    `coalition` change nothing.  `run` must be a valid run of the graph
    (see `require_valid_run`).
    """
    return Engraved(succ, run.forced, coalition)


def build_game(ts: TransitionSystem, obj: Objective, run: Optional[LassoRun],
               coalition, mode: str) -> Game:
    """Assemble the arena for a coalition in the given mode.

    Pessimistic: engraved graph, Sat controls exactly the coalition.
    Optimistic: engraved graph, Sat additionally controls every state off
    the run (`TransitionSystem.off_run`, made once per run).  Forward:
    original graph, as a view that cuts no state, Sat = coalition.  Every
    arena shares the predecessor lists of `ts`, and no successor list is
    read: the engraved graph is a view engraved for Sat's states, which
    cuts the same run states as the coalition does.
    """
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    sat = frozenset(coalition)
    if mode == FORWARD:
        succ = Engraved(ts.succ, {}, sat)
    elif run is None:
        raise InputError(f"{mode} mode requires a counterexample run")
    else:
        if mode == OPTIMISTIC:
            sat |= ts.off_run(run)
        succ = engrave(ts.succ, run, sat)
    return Game(GameArena(ts.initial, succ, ts.preds()), obj)


def attractor(arena: GameArena, target, for_sat: bool, alive=None,
              until=None, border=None) -> set:
    """Least set containing `target` closed under forced one-step moves.

    A state owned by the attracting player joins as soon as one successor
    is inside; an opponent state joins once all its successors are.  The
    least fixpoint does not depend on the order in which states join.
    With `alive`, the game is the subgame on those states: no other state
    joins or counts as a successor, and `target` must lie inside it.  With
    `until`, the pass stops as soon as that state joins, so the set holds
    it exactly when the least fixpoint does.

    With `border`, `target` may be any set between the real target and
    the least fixpoint, such as the region the attracting player wins in
    a game where it owns fewer states; the fixpoint is the same.  The
    worklist then starts from `border` alone, which must hold every state
    of `target` with a predecessor outside it, so that each state outside
    still counts all of its successors inside.

    On an engraved view the predecessor lists keep the edges engraving
    cut.  A Sat state is never cut (see `GameArena`), and a run state
    outside `sat` counts an edge p -> s only when s is its run edge.
    """
    base, forced = arena.succ.base, arena.succ.forced
    preds = arena.preds
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
            if p in sat:
                counted = not for_sat
            elif p in forced:
                if forced[p][0] != s:
                    continue  # engraving cut the edge p -> s
                counted = False
            else:
                counted = for_sat
            if counted:
                c = count.get(p)
                if c is None:
                    ts = base[p]
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
    succ, sat = arena.succ, arena.sat
    recur = set(target)
    while True:
        attr = attractor(arena, recur, for_sat=True)
        kept = set()
        for f in recur:
            ts = succ[f]
            if f in sat:
                if not attr.isdisjoint(ts):
                    kept.add(f)
            elif attr.issuperset(ts):
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


def _attract(game: Game, until=None, seed=None, border=None) -> set:
    """The attractor that decides a reachability or safety game: Sat's
    attractor of the target for reachability, the opponent's for safety.

    With `seed` and `border` it starts from the seed instead of the
    target (see `attractor`): a region that every game between the two
    bounds holds (`solve_bounds`).  `until` stops it early.
    """
    obj = game.objective
    return attractor(game.arena, obj.target if seed is None else seed,
                     obj.kind == REACHABILITY, until=until, border=border)


def solve(game: Game, seed=None, border=None) -> frozenset:
    """Exact Sat winning region.

    Safety is the complement of the opponent's attractor, reachability the
    Sat attractor, Buechi the recurrence fixpoint, parity a Zielonka
    recursion.  States outside the region are winning for the opponent.
    The optional `seed` and `border` of a game's bounds start a
    reachability or safety attractor from the seed; Buechi and parity
    ignore them.
    """
    arena, obj = game.arena, game.objective
    if obj.kind == SAFETY:
        attr = _attract(game, seed=seed, border=border)
        return frozenset(range(len(arena))) - attr
    if obj.kind == REACHABILITY:
        return frozenset(_attract(game, seed=seed, border=border))
    if obj.kind == BUECHI:
        return _solve_buechi(arena, obj.target)
    return frozenset(_zielonka(arena, obj.colours, set(range(len(arena))))[0])


def game_value(game: Game, seed=None, border=None) -> int:
    """1 iff the initial state lies in Sat's winning region.

    Reachability and safety stop their attractor as soon as the initial
    state joins it, started from `seed` when given, as in `solve`; Buechi
    and parity read the whole region off `solve`.
    """
    arena, obj = game.arena, game.objective
    if obj.kind in (REACHABILITY, SAFETY):
        attr = _attract(game, arena.initial, seed, border)
        return int((arena.initial in attr) == (obj.kind == REACHABILITY))
    return int(arena.initial in solve(game))


class Bounds(NamedTuple):
    """Sat's winning regions W(0) and W(full) of a coalition game
    (`solve_bounds`), and the `seed` and `border` that `solve` and
    `game_value` take for every game between them: set for reachability
    and safety, None for Buechi and parity, which are solved whole."""

    empty: frozenset
    full: frozenset
    seed: Optional[frozenset]
    border: Optional[List[int]]


def solve_bounds(ts: TransitionSystem, obj: Objective,
                 run: Optional[LassoRun], mode: str, full_states: frozenset,
                 deadline=no_deadline) -> Bounds:
    """Sat's winning regions when Sat controls no state, W(0), and when it
    controls `full_states`, W(full), the second seeded from the first.

    The coalition game is monotone: state by state, W(0) <= W(C) <=
    W(full) for every coalition C within `full_states` (Graedel, Thomas and
    Wilke (eds.), Automata, Logics, and Infinite Games, LNCS 2500, ch. 2).
    So for reachability W(0), solved cold, is the seed of Sat's attractor
    in every larger game, W(full) included; for safety the complement of
    W(full), solved cold, is the seed of the opponent's attractor in every
    smaller game.  The border is the seed states with a model predecessor
    outside the seed, where such an attractor's worklist starts.  Buechi
    and parity solve both regions cold.  `deadline` is called before each
    of the two games and may abort by raising.
    """
    def game(states):
        deadline()
        return build_game(ts, obj, run, states, mode)

    if obj.kind not in (REACHABILITY, SAFETY):
        return Bounds(solve(game(frozenset())), solve(game(full_states)),
                      None, None)
    reach = obj.kind == REACHABILITY
    first = solve(game(frozenset() if reach else full_states))
    seed = first if reach else frozenset(range(len(ts))) - first
    preds = ts.preds()
    border = [s for s in seed if any(p not in seed for p in preds[s])]
    second = solve(game(full_states if reach else frozenset()), seed, border)
    if reach:
        return Bounds(first, second, seed, border)
    return Bounds(second, first, seed, border)
