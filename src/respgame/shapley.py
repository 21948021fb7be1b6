"""Coalition payoff games and exact Shapley responsibility values."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import compress
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

from .errors import PlayerCapExceeded
from .games import (OPTIMISTIC, Game, attractor, build_game, game_value,
                    off_run_states, solve)
from .model import (REACHABILITY, SAFETY, LassoRun, Objective,
                    TransitionSystem)

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

    A set made by `prune_dummies` also carries the two regions it solved
    (`_bounds`), which a payoff game over it reads as its own W(0) and
    W(full); equality and hashing ignore them.
    """

    _bounds: Optional[_Bounds] = None

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
        return PlayerSet(STATE_PLAYERS,
                         tuple(ts.names[i] for i in indices),
                         tuple(frozenset([i]) for i in indices))

    @staticmethod
    def of_blocks(names: Sequence[str], members: Sequence[frozenset]) -> "PlayerSet":
        order = sorted(range(len(names)), key=lambda i: names[i])
        return PlayerSet(BLOCK_PLAYERS,
                         tuple(names[i] for i in order),
                         tuple(frozenset(members[i]) for i in order))


class _Bounds(NamedTuple):
    """Sat's winning regions W(0) and W(all states), as `prune_dummies`
    solved them for the game of `ts`, `objective`, `run` and `mode`."""

    ts: TransitionSystem
    objective: Objective
    run: Optional[LassoRun]
    mode: str
    empty: frozenset
    full: frozenset


class _Band(NamedTuple):
    """What a reachability or safety payoff game keeps of its bounding
    regions W(0) and W(full): the seed every coalition game's attractor
    contains (W(0) for reachability, the complement of W(full) for
    safety), and the border, the seed states with a predecessor in the
    model outside the seed."""

    seed: frozenset
    border: List[int]


class PayoffGame:
    """Monotone 0/1 coalition game induced by a model, objective and run.

    gamma() is memoised per coalition bitmask; the memo is shared by every
    caller holding this object (Shapley enumeration, refinement, the
    polynomial positivity algorithms).  `deadline`, when given, is called
    before every gamma query and before each of the two bounding solves,
    and may abort the caller's search by raising.

    A reachability or safety game is decided on its undecided band.  By
    monotonicity, state by state, W(0) <= W(C) <= W(full) for every
    coalition C, where W(C) is Sat's winning region when Sat controls C.
    So W(full) is solved once, on the first query: where it loses, every
    coalition loses.  Every other game starts its attractor from W(0)
    (reachability, solved once when first needed) or from the complement
    of W(full) (the opponent's attractor, for safety).  Buechi and parity
    games are solved whole.

    Over players from `prune_dummies` neither bound is solved again: the
    two regions it solved are W(0) and W(full) of this game, because
    every pruned state is a null player for regions, not only for the
    initial state's value.  Owning a state with one successor changes
    nothing, and engraving it cuts nothing.  A play that reaches a state
    of W(0) can switch to a strategy that wins from there.  A positional
    winning strategy never leaves its region, so it never visits a state
    outside W(all states) (for reachability, never before the target).
    And a state off the run in optimistic mode is Sat's in every game.
    """

    def __init__(self, ts: TransitionSystem, objective: Objective,
                 run: Optional[LassoRun], mode: str, players: PlayerSet,
                 deadline: Optional[Callable[[], None]] = None,
                 memo: Optional[Dict[int, int]] = None, memo_hits: int = 0):
        self.ts = ts
        self.objective = objective
        self.run = run
        self.mode = mode
        self.players = players
        self.deadline = deadline
        self.memo = {} if memo is None else memo
        self.memo_hits = memo_hits

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
                          self.flatten(mask), self.mode, off_run=self.off_run)

    def gamma(self, mask: int) -> int:
        if self.deadline is not None:
            self.deadline()
        hit = self.memo.get(mask)
        if hit is not None:
            self.memo_hits += 1
            return hit
        if not self._banded:
            value = game_value(self.game(mask))
        elif mask == self.full_mask() or self.ts.initial not in self._top:
            # no coalition wins where the grand coalition loses
            value = int(self.ts.initial in self._top)
        elif mask == 0 and self._reach:
            value = int(self.ts.initial in self._band.seed)
        else:
            attr = self._seeded(self.game(mask), until=self.ts.initial)
            value = int((self.ts.initial in attr) == self._reach)
        self.memo[mask] = value
        return value

    def region(self, game: Game) -> frozenset:
        """Sat's winning region in `game`, one of this payoff game's
        coalition games (`game(mask)`); seeded like gamma."""
        if not self._banded:
            return solve(game)
        attr = self._seeded(game)
        if self._reach:
            return frozenset(attr)
        return frozenset(range(len(self.ts))) - attr

    @property
    def _reach(self) -> bool:
        return self.objective.kind == REACHABILITY

    @property
    def _banded(self) -> bool:
        return self.objective.kind in (REACHABILITY, SAFETY)

    @cached_property
    def _pruned(self) -> Optional[_Bounds]:
        """The regions `prune_dummies` solved for these players, if it
        solved them for this model, objective, run and mode."""
        b = self.players._bounds
        if (b is not None and b.ts is self.ts and b.mode == self.mode
                and b.objective == self.objective and b.run == self.run):
            return b
        return None

    @cached_property
    def _top(self) -> frozenset:
        """W(full) of a reachability or safety game, solved once."""
        if self._pruned is not None:
            return self._pruned.full
        if self.deadline is not None:
            self.deadline()
        return solve(self.game(self.full_mask()))

    @cached_property
    def _band(self) -> _Band:
        """The seed and border of a reachability or safety game: W(0),
        solved here unless pruning did, for reachability, the complement
        of W(full) for safety."""
        if not self._reach:
            seed = frozenset(range(len(self.ts))) - self._top
        elif self._pruned is not None:
            seed = self._pruned.empty
        else:
            if self.deadline is not None:
                self.deadline()
            seed = solve(self.game(0))
        preds = self.ts.preds()
        return _Band(seed,
                     [s for s in seed if any(p not in seed for p in preds[s])])

    def _seeded(self, game: Game, until=None) -> set:
        """The attractor that decides `game`: Sat's for reachability, the
        opponent's for safety, started from the seed."""
        band = self._band
        return attractor(game.arena, band.seed, self._reach, until=until,
                         border=band.border)

    @cached_property
    def off_run(self) -> Optional[frozenset]:
        """The states off the run in optimistic mode, once per game rather
        than per coalition; None in the other modes, which do not read it."""
        if self.mode != OPTIMISTIC or self.run is None:
            return None
        return off_run_states(self.ts, self.run)

    def full_mask(self) -> int:
        return (1 << len(self.players)) - 1

    def gamma_of(self, masks: Sequence[int]) -> Callable[[int], int]:
        """gamma of the game whose player i is the disjoint coalition
        `masks[i]` of this one; the two games share the memo."""
        return lambda mask: self.gamma(sum(
            m for i, m in enumerate(masks) if mask >> i & 1))


class ResponsibilityReport(NamedTuple):
    """Exact rational responsibility per player plus the positivity set."""

    player_kind: str
    mode: str
    names: Tuple[str, ...]
    values: Tuple[Fraction, ...]
    games_solved: int = 0
    memo_hits: int = 0

    def value_of(self, name: str) -> Fraction:
        return self.values[self.names.index(name)]

    def positivity(self) -> frozenset:
        return frozenset(n for n, v in zip(self.names, self.values) if v > 0)

    def as_dict(self) -> Dict[str, Fraction]:
        return dict(zip(self.names, self.values))


def _subsets(mask: int) -> int:
    """Bitset (bit s for coalition mask s) of every subset of `mask`."""
    bits = 1
    while mask:
        low = mask & -mask
        bits |= bits << low
        mask ^= low
    return bits


def _without(p: int, n: int) -> int:
    """Bitset of the coalitions of n players that do not contain p."""
    bits = (1 << (1 << p)) - 1
    width = 2 << p
    while width < 1 << n:
        bits |= bits << width
        width <<= 1
    return bits


def _layers(n: int) -> List[int]:
    """layers[k] is the bitset of the coalitions of n players of size k."""
    layers = [1]
    for i in range(n):
        half = 1 << i
        layers = [(layers[k] if k <= i else 0)
                  | (layers[k - 1] << half if k else 0)
                  for k in range(i + 2)]
    return layers


def _winning_table(gamma: Callable[[int], int], n: int) -> int:
    """Bitset of the coalitions of n players that the monotone game `gamma`
    wins, by a boundary fill.

    `win` is kept up-closed and `lose` down-closed.  Each round queries a
    coalition still unknown (the grand coalition first, then the lowest
    unknown mask), then shrinks a winning one to a minimal winning
    coalition, or grows a losing one to a maximal losing coalition, one
    player at a time.  Only unknown coalitions are ever queried and every
    answer is propagated to its whole up-set or down-set, so each round
    finds a boundary coalition not known before: at most (n+1) * (|minimal
    winning| + |maximal losing|) queries, and never more than 2^n.
    """
    full = (1 << n) - 1
    everything = (1 << (1 << n)) - 1
    win = lose = 0

    def query(mask: int) -> bool:
        nonlocal win, lose
        if gamma(mask):
            win |= _subsets(full ^ mask) << mask
            return True
        lose |= _subsets(mask)
        return False

    mask = full
    while True:
        if query(mask):
            for p in range(n):
                smaller = mask & ~(1 << p)
                if smaller == mask or lose >> smaller & 1:
                    continue
                if win >> smaller & 1 or query(smaller):
                    mask = smaller
        else:
            for p in range(n):
                larger = mask | 1 << p
                if larger == mask or win >> larger & 1:
                    continue
                if lose >> larger & 1 or not query(larger):
                    mask = larger
        unknown = everything & ~(win | lose)
        if not unknown:
            return win
        mask = (unknown & -unknown).bit_length() - 1


def _swings(win: int, p: int, n: int) -> int:
    """Bitset of the coalitions m of the table `win` of n players that lack
    p, lose, and win once p joins: p's switching coalitions."""
    return (win >> (1 << p)) & ~win & _without(p, n)


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
                  mode: str, deadline=None) -> PlayerSet:
    """Player set with provably-null states removed.

    Removes states with a single outgoing transition, states off the run in
    optimistic mode, and states inside Sat's winning region when Sat
    controls nothing or outside it when Sat controls everything.  Every
    removed state is a null player, so the Shapley values of the remaining
    players are unchanged.  `deadline`, when given, is called before each
    of the two games and may abort by raising.  The two regions ride on
    the result as a payoff game's bounds (`PlayerSet`, `PayoffGame`).
    """
    n = len(ts)
    candidates = set(range(n))
    if mode == OPTIMISTIC and run is not None:
        candidates &= run.states()
    candidates = {s for s in candidates if len(ts.succ[s]) > 1}
    if not candidates:
        return PlayerSet.of_states(ts, ())
    regions = []
    for coalition in (frozenset(), frozenset(range(n))):
        if deadline is not None:
            deadline()
        regions.append(solve(build_game(ts, obj, run, coalition, mode)))
    empty, full = regions
    players = PlayerSet.of_states(
        ts, [s for s in candidates if s not in empty and s in full])
    players._bounds = _Bounds(ts, obj, run, mode, empty, full)
    return players


def _naive_gamma_table(ts: TransitionSystem, obj: Objective,
                       run: Optional[LassoRun], mode: str,
                       player_indices: Optional[Sequence[int]],
                       cap: int, deadline=None) -> Tuple[PlayerSet, List[int]]:
    """Solve every coalition game, with no memo and no inference.

    The oracle's gamma table: independent of `PayoffGame` and of the
    monotone fill in `shapley_exact`, which it is the reference for.
    `deadline`, when given, is called before each game and may abort the
    table by raising.
    """
    if player_indices is None:
        player_indices = range(len(ts))
    players = PlayerSet.of_states(ts, player_indices)
    n = len(players)
    if n > cap:
        raise PlayerCapExceeded(f"{n} players exceed the oracle cap of {cap}")
    table = []
    for mask in range(1 << n):
        if deadline is not None:
            deadline()
        states = set()
        for i in range(n):
            if mask >> i & 1:
                states |= players.members[i]
        table.append(game_value(build_game(ts, obj, run, states, mode)))
    return players, table


def _oracle_values(players: PlayerSet, mode: str, gamma: List[int],
                   deadline=None) -> ResponsibilityReport:
    """The defining sum applied term by term to a naive table; `deadline`,
    when given, is called before each term."""
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
            if deadline is not None:
                deadline()
            k = mask.bit_count()
            acc += Fraction(fact(k) * fact(n - k - 1), fact(n)) * (
                gamma[mask | bit] - gamma[mask])
        values.append(acc)
    return ResponsibilityReport(players.kind, mode, players.names,
                                tuple(values), games_solved=1 << n)


def _minimal_winning(players: PlayerSet, gamma: List[int],
                     deadline=None) -> List[frozenset]:
    n = len(players)
    minimal = []
    for mask in range(1 << n):
        if deadline is not None:
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
                   deadline=None) -> ResponsibilityReport:
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
                               cap: int = DEFAULT_ORACLE_CAP, deadline=None,
                               ) -> Tuple[ResponsibilityReport, List[frozenset]]:
    """`oracle_shapley` and all minimal winning coalitions, as sets of
    player names, from one naive table."""
    players, gamma = _naive_gamma_table(ts, obj, run, mode, player_indices,
                                        cap, deadline)
    return (_oracle_values(players, mode, gamma, deadline),
            _minimal_winning(players, gamma, deadline))
