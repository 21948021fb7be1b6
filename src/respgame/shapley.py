"""Coalition payoff games and exact Shapley responsibility values."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

from .errors import PlayerCapExceeded, no_deadline
from .games import (OPTIMISTIC, Bounds, Game, build_game, game_value,
                    solve, solve_bounds)
from .model import LassoRun, Objective, TransitionSystem

STATE_PLAYERS = "states"
BLOCK_PLAYERS = "blocks"

DEFAULT_SHAPLEY_CAP = 24
DEFAULT_ORACLE_CAP = 20


class _PlayerFields(NamedTuple):
    kind: str
    names: Tuple[str, ...]
    members: Tuple[frozenset, ...]


class PlayerSet(_PlayerFields):
    """Ordered player identities: individual states or blocks of states.

    For block players, `members[i]` is the state set of player i and the
    blocks partition the full state space.  For state players, `members[i]`
    is the singleton of the state itself.  `len` counts the players, not
    the three fields.

    A set made by `prune_dummies` also carries the bounds it solved
    (`_bounds`), next to the model, objective, run and mode they were
    solved for; equality and hashing ignore them.
    """

    _bounds: Optional[Tuple[tuple, Bounds]] = None

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.names) != len(set(self.names)):
            raise ValueError("duplicate player names")
        return self

    def __len__(self):
        return len(self.names)

    @staticmethod
    def of_states(ts: TransitionSystem, indices: Sequence[int]) -> "PlayerSet":
        indices = tuple(sorted(indices))
        names = ts.names
        return PlayerSet(STATE_PLAYERS, tuple(names[i] for i in indices),
                         tuple(frozenset([i]) for i in indices))

    @staticmethod
    def of_blocks(names: Sequence[str], members: Sequence[frozenset]) -> "PlayerSet":
        order = sorted(range(len(names)), key=lambda i: names[i])
        return PlayerSet(BLOCK_PLAYERS,
                         tuple(names[i] for i in order),
                         tuple(frozenset(members[i]) for i in order))


class PayoffGame:
    """Monotone 0/1 coalition game induced by a model, objective and run.

    gamma() is memoised per coalition bitmask; the memo is shared by every
    caller holding this object (Shapley enumeration, refinement, the
    polynomial positivity algorithms).  `deadline` is called before every
    gamma query and before each of the two bounding games, and may abort
    the caller's search by raising.

    Gamma of the grand and the empty coalition, and of every coalition
    where the grand coalition loses, is read off the game's bounds
    (`_bounds`), as are the grand and the empty coalition's regions.
    Every other coalition's game goes to `game_value` or `solve` with the
    bounds' seed and border, whatever the objective kind.

    `winners` and `losers` carry answers across the tables of `table_of`
    and the coalitions of `settle`, which the refinement loop asks as it
    splits blocks: the minimal winning and maximal losing coalitions among
    them.  By monotonicity they decide every coalition above a winner or
    below a loser.  `gamma` alone neither reads nor extends them, so
    `shapley_exact`, which fills its table through `gamma`, queries the
    same coalitions in the same order as without them.
    """

    def __init__(self, ts: TransitionSystem, objective: Objective,
                 run: Optional[LassoRun], mode: str, players: PlayerSet,
                 deadline: Callable[[], None] = no_deadline):
        self.ts = ts
        self.objective = objective
        self.run = run
        self.mode = mode
        self.players = players
        self.deadline = deadline
        self.memo: Dict[int, int] = {}
        self.memo_hits = 0
        self.winners: List[int] = []
        self.losers: List[int] = []

    @property
    def games_solved(self) -> int:
        return len(self.memo)

    def flatten(self, mask: int) -> frozenset:
        """The states of the players in the coalition `mask`.

        The binary digits of `mask`, lowest first, select the players, so
        the loop over its bits runs in C: as bytes, digit 0 becomes the
        false byte 0 and digit 1 stays the true byte 49.
        """
        digits = bin(mask)[:1:-1].encode().replace(b"0", b"\0")
        chosen = compress(self._player_states, digits)
        if self.players.kind == STATE_PLAYERS:
            return frozenset(chosen)
        return frozenset().union(*chosen)

    @cached_property
    def _player_states(self) -> tuple:
        """Per player: its state for state players, else its members."""
        if self.players.kind == STATE_PLAYERS:
            return tuple(min(m) for m in self.players.members)
        return self.players.members

    def game(self, mask: int) -> Game:
        """The engraved game in which Sat controls the coalition `mask`."""
        return build_game(self.ts, self.objective, self.run,
                          self.flatten(mask), self.mode)

    def gamma(self, mask: int) -> int:
        self.deadline()
        hit = self.memo.get(mask)
        if hit is not None:
            self.memo_hits += 1
            return hit
        bounds = self._bounds
        initial = self.ts.initial
        if mask == self.full_mask() or initial not in bounds.full:
            # no coalition wins where the grand coalition loses
            value = int(initial in bounds.full)
        elif mask == 0:
            value = int(initial in bounds.empty)
        else:
            value = game_value(self.game(mask), bounds.seed, bounds.border)
        self.memo[mask] = value
        return value

    def region(self, mask: int) -> frozenset:
        """Sat's winning region when it controls the coalition `mask`;
        read off the bounds or seeded like gamma."""
        bounds = self._bounds
        if mask == self.full_mask():
            return bounds.full
        if mask == 0:
            return bounds.empty
        return solve(self.game(mask), bounds.seed, bounds.border)

    @cached_property
    def _bounds(self) -> Bounds:
        """W(0) and W(full), solved once by `solve_bounds` unless
        `prune_dummies` solved them for this model, objective, run and mode.

        Pruning solves W(0) and W(all states), and those are this game's
        bounds, because every pruned state is a null player for regions,
        not only for the initial state's value.  That holds for every
        objective kind: all four games are positionally determined, and
        Buechi and parity are prefix-independent, so who wins from a state
        does not depend on how the play got there (Graedel, Thomas and
        Wilke (eds.), Automata, Logics, and Infinite Games, LNCS 2500,
        ch. 2).  Owning a state with one successor changes nothing, and
        engraving it cuts nothing.  A play that reaches a state of W(0)
        can switch to a strategy that wins from there.  A positional
        winning strategy never leaves its region, so it never visits a
        state outside W(all states) (for reachability, never before the
        target).  And a state off the run in optimistic mode is Sat's in
        every game.
        """
        handed = self.players._bounds
        if handed is not None:
            (ts, objective, run, mode), bounds = handed
            if ts is self.ts and (objective, run, mode) == (
                    self.objective, self.run, self.mode):
                return bounds
        return solve_bounds(self.ts, self.objective, self.run, self.mode,
                            self.flatten(self.full_mask()), self.deadline)

    def full_mask(self) -> int:
        return (1 << len(self.players)) - 1

    def settle(self, mask: int) -> None:
        """Carry gamma of the coalition `mask`, solving it unless the
        boundary decides it already: a carried winner inside it, or a
        carried loser containing it."""
        if not (any(not w & ~mask for w in self.winners)
                or any(not mask & ~lose for lose in self.losers)):
            self._carry(mask, self.gamma(mask))

    def _carry(self, mask: int, value: int) -> None:
        """Add an answer the boundary did not decide; it drops the carried
        winners above it or losers below it, which it now implies."""
        if value:
            self.winners = [w for w in self.winners if mask & ~w]
            self.winners.append(mask)
        else:
            self.losers = [lose for lose in self.losers if lose & ~mask]
            self.losers.append(mask)

    def table_of(self, masks: Sequence[int]) -> int:
        """Winning table (`_winning_table`) of the game whose player i is
        the disjoint coalition `masks[i]` of this one.

        The two games share the memo, and the carried boundary presets the
        fill: a carried winner inside the union of `masks` wins as the
        players it meets, and a carried loser loses as the players inside
        it.  So a coalition the boundary decides is neither solved nor
        counted as a memo hit.  The fill's new answers join the boundary.
        `deadline` is called once even when the boundary decides the whole
        table.
        """
        self.deadline()
        union = sum(masks)

        def players_meeting(coalition: int) -> int:
            return sum(1 << i for i, m in enumerate(masks) if m & coalition)

        def players_inside(coalition: int) -> int:
            return sum(1 << i for i, m in enumerate(masks)
                       if not m & ~coalition)

        def gamma(mask: int) -> int:
            coalition = sum(m for i, m in enumerate(masks) if mask >> i & 1)
            value = self.gamma(coalition)
            self._carry(coalition, value)
            return value

        return _winning_table(
            gamma, len(masks),
            [players_meeting(w) for w in self.winners if not w & ~union],
            [players_inside(lose) for lose in self.losers])


class ResponsibilityReport(NamedTuple):
    """Exact rational responsibility per player plus the positivity set."""

    player_kind: str
    mode: str
    names: Tuple[str, ...]
    values: Tuple[Fraction, ...]
    games_solved: int = 0
    memo_hits: int = 0

    def positivity(self) -> frozenset:
        return frozenset(n for n, v in zip(self.names, self.values) if v > 0)

    def as_dict(self) -> Dict[str, Fraction]:
        return dict(zip(self.names, self.values))


def bits(mask: int):
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _subsets(mask: int) -> int:
    """Bitset (bit s for coalition mask s) of every subset of `mask`."""
    out = 1
    while mask:
        low = mask & -mask
        out |= out << low
        mask ^= low
    return out


def _layers(n: int) -> List[int]:
    """layers[k] is the bitset of the coalitions of n players of size k."""
    layers = [1]
    for i in range(n):
        half = 1 << i
        layers = [(layers[k] if k <= i else 0)
                  | (layers[k - 1] << half if k else 0)
                  for k in range(i + 2)]
    return layers


def _winning_table(gamma: Callable[[int], int], n: int,
                   winners: Sequence[int] = (),
                   losers: Sequence[int] = ()) -> int:
    """Bitset of the coalitions of n players that the monotone game `gamma`
    wins, by a boundary fill.

    `win` is kept up-closed and `lose` down-closed, starting from the
    up-sets of `winners` and the down-sets of `losers`, coalitions whose
    answer is already known.  Each round queries a coalition still
    unknown (the grand coalition if it is, else the lowest unknown mask),
    then shrinks a winning one to a minimal winning coalition, or grows a
    losing one to a maximal losing coalition, one player at a time.  A
    shrink candidate is never known to win: the round starts at an
    unknown coalition, so by up-closure none of its subsets is known to
    win, and the shrink adds winners only at or above its current mask.
    By the mirror argument a grow candidate is never known to lose.  So
    a step that skips the candidates known the other way queries only
    unknown coalitions, and as every answer is propagated to its whole
    up-set or down-set, each round finds a boundary coalition not known
    before: at most (n+1) * (|minimal winning| + |maximal losing|)
    queries, and never more than 2^n.
    """
    full = (1 << n) - 1
    win = lose = 0
    for mask in winners:
        win |= _subsets(full ^ mask) << mask
    for mask in losers:
        lose |= _subsets(mask)

    def query(mask: int) -> bool:
        nonlocal win, lose
        if gamma(mask):
            win |= _subsets(full ^ mask) << mask
            return True
        lose |= _subsets(mask)
        return False

    known = win | lose
    mask = (full if not known >> full & 1
            else ((known + 1) & ~known).bit_length() - 1)
    while mask <= full:
        if query(mask):
            for p in bits(mask):
                smaller = mask & ~(1 << p)
                if not lose >> smaller & 1 and query(smaller):
                    mask = smaller
        else:
            for p in bits(full ^ mask):
                larger = mask | 1 << p
                if not win >> larger & 1 and not query(larger):
                    mask = larger
        known = win | lose
        mask = ((known + 1) & ~known).bit_length() - 1
    return win


def _swings(win: int, p: int, n: int) -> int:
    """Bitset of the coalitions m of the table `win` of n players that lack
    p, lose, and win once p joins: p's switching coalitions."""
    return (win >> (1 << p)) & ~win & _subsets(((1 << n) - 1) ^ 1 << p)


def shapley_values(win: int, n: int) -> Tuple[Fraction, ...]:
    """Exact Shapley values of the n players of the winning table `win`:
    switching coalitions per (player, coalition size), counted with
    big-integer bit operations.  A coalition of size k weighs
    k!(n-1-k)!/n!, so each value is one fraction over n! of an integer
    sum."""
    layers = _layers(n)
    fact = math.factorial
    weights = [fact(k) * fact(n - 1 - k) for k in range(n)]
    values = []
    for p in range(n):
        swings = _swings(win, p, n)
        values.append(Fraction(sum(w * (swings & layer).bit_count()
                                   for w, layer in zip(weights, layers)),
                               fact(n)))
    return tuple(values)


def shapley_exact(pg: PayoffGame,
                  cap: int = DEFAULT_SHAPLEY_CAP) -> ResponsibilityReport:
    """Exact Shapley values from the boundary of the monotone game gamma.

    Exactness rests on gamma being monotone: a winning coalition never
    loses by growing.  That holds in all three modes, because a state
    joining the coalition becomes Sat-owned and keeps its run edge among
    its now unrestricted successors, so Sat can still play every strategy
    it had.  The bit table of winning coalitions is therefore determined
    by its minimal winning and maximal losing coalitions, which
    `_winning_table` learns with far fewer than 2^n games.  Exact rational
    arithmetic throughout.
    """
    n = len(pg.players)
    if n > cap:
        raise PlayerCapExceeded(
            f"{n} players exceed the exact-Shapley cap of {cap}",
            guidance="use the refinement analysis, a state grouping, "
                     "or raise --player-cap")
    values = shapley_values(_winning_table(pg.gamma, n), n) if n else ()
    return ResponsibilityReport(pg.players.kind, pg.mode, pg.players.names,
                                values, pg.games_solved, pg.memo_hits)


def prune_dummies(ts: TransitionSystem, obj: Objective, run: Optional[LassoRun],
                  mode: str, deadline=no_deadline) -> PlayerSet:
    """Player set with provably-null states removed.

    Removes states with a single outgoing transition, states off the run in
    optimistic mode, and states inside Sat's winning region when Sat
    controls nothing or outside it when Sat controls everything.  Every
    removed state is a null player, so the Shapley values of the remaining
    players are unchanged.  `deadline` is called before each of the two
    games and may abort by raising.  The two regions ride on
    the result as a payoff game's bounds (`PayoffGame._bounds`).
    """
    n = len(ts)
    candidates = set(range(n))
    if mode == OPTIMISTIC and run is not None:
        candidates &= run.states()
    candidates = {s for s in candidates if len(ts.succ[s]) > 1}
    if not candidates:
        return PlayerSet.of_states(ts, ())
    bounds = solve_bounds(ts, obj, run, mode, frozenset(range(n)), deadline)
    players = PlayerSet.of_states(ts, [s for s in candidates
                                       if s not in bounds.empty
                                       and s in bounds.full])
    players._bounds = (ts, obj, run, mode), bounds
    return players


def _naive_gamma_table(ts: TransitionSystem, obj: Objective,
                       run: Optional[LassoRun], mode: str,
                       player_indices: Optional[Sequence[int]], cap: int,
                       deadline=no_deadline) -> Tuple[PlayerSet, List[int]]:
    """Solve every coalition game, with no memo and no inference.

    The oracle's gamma table: independent of `PayoffGame` and of the
    monotone fill in `shapley_exact`, which it is the reference for.
    `deadline` is called before each game and may abort the table by
    raising.
    """
    if player_indices is None:
        player_indices = range(len(ts))
    players = PlayerSet.of_states(ts, player_indices)
    n = len(players)
    if n > cap:
        raise PlayerCapExceeded(f"{n} players exceed the oracle cap of {cap}")
    table = []
    for mask in range(1 << n):
        deadline()
        states = set()
        for i in range(n):
            if mask >> i & 1:
                states |= players.members[i]
        table.append(game_value(build_game(ts, obj, run, states, mode)))
    return players, table


def _oracle_values(players: PlayerSet, mode: str, gamma: List[int],
                   deadline=no_deadline) -> ResponsibilityReport:
    """The defining sum applied term by term to a naive table; `deadline`
    is called before each term."""
    n = len(players)
    if n == 0:
        return ResponsibilityReport(players.kind, mode, (), ())
    fact = math.factorial
    values = []
    for p in range(n):
        bit = 1 << p
        acc = Fraction(0)
        for mask in range(1 << n):
            if mask & bit:
                continue
            deadline()
            k = mask.bit_count()
            acc += Fraction(fact(k) * fact(n - k - 1), fact(n)) * (
                gamma[mask | bit] - gamma[mask])
        values.append(acc)
    return ResponsibilityReport(players.kind, mode, players.names,
                                tuple(values), games_solved=1 << n)


def _minimal_winning(players: PlayerSet, gamma: List[int],
                     deadline=no_deadline) -> List[frozenset]:
    n = len(players)
    minimal = []
    for mask in range(1 << n):
        deadline()
        if not gamma[mask]:
            continue
        if all(gamma[mask & ~(1 << p)] == 0
               for p in range(n) if mask >> p & 1):
            minimal.append(frozenset(players.names[p]
                                     for p in range(n) if mask >> p & 1))
    return minimal


def oracle_shapley(ts: TransitionSystem, obj: Objective,
                   run: Optional[LassoRun], mode: str,
                   player_indices: Optional[Sequence[int]] = None,
                   cap: int = DEFAULT_ORACLE_CAP,
                   deadline=no_deadline) -> ResponsibilityReport:
    """Reference implementation: direct evaluation of the defining sum.

    Deliberately naive and independent of the production path: it solves
    every coalition into its own table (no memo sharing) and applies the
    factorial formula term by term.  Intended for tests and the `oracle`
    CLI command.
    """
    players, gamma = _naive_gamma_table(ts, obj, run, mode, player_indices,
                                        cap, deadline)
    return _oracle_values(players, mode, gamma, deadline)


def oracle_shapley_and_minimal(ts: TransitionSystem, obj: Objective,
                               run: Optional[LassoRun], mode: str,
                               player_indices: Optional[Sequence[int]] = None,
                               cap: int = DEFAULT_ORACLE_CAP,
                               deadline=no_deadline,
                               ) -> Tuple[ResponsibilityReport, List[frozenset]]:
    """`oracle_shapley` and all minimal winning coalitions, as sets of
    player names, from one naive table."""
    players, gamma = _naive_gamma_table(ts, obj, run, mode, player_indices,
                                        cap, deadline)
    return (_oracle_values(players, mode, gamma, deadline),
            _minimal_winning(players, gamma, deadline))
