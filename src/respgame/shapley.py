"""Coalition payoff games and exact Shapley responsibility values."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import PlayerCapExceeded
from .games import OPTIMISTIC, build_game, game_value, off_run_states, solve
from .model import LassoRun, Objective, TransitionSystem

STATE_PLAYERS = "states"
BLOCK_PLAYERS = "blocks"

DEFAULT_SHAPLEY_CAP = 24
DEFAULT_ORACLE_CAP = 20


@dataclass(frozen=True)
class PlayerSet:
    """Ordered player identities: individual states or blocks of states.

    For block players, `members[i]` is the state set of player i and the
    blocks partition the full state space.  For state players, `members[i]`
    is the singleton of the state itself.
    """

    kind: str
    names: Tuple[str, ...]
    members: Tuple[frozenset, ...]

    def __post_init__(self):
        if len(self.names) != len(set(self.names)):
            raise ValueError("duplicate player names")

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


@dataclass
class PayoffGame:
    """Monotone 0/1 coalition game induced by a model, objective and run.

    gamma() is memoised per coalition bitmask; the memo is shared by every
    caller holding this object (Shapley enumeration, refinement, the
    polynomial positivity algorithms).
    """

    ts: TransitionSystem
    objective: Objective
    run: Optional[LassoRun]
    mode: str
    players: PlayerSet
    memo: Dict[int, int] = field(default_factory=dict)
    games_solved: int = 0
    memo_hits: int = 0

    def flatten(self, mask: int) -> frozenset:
        members = self.players.members
        states = set()
        while mask:
            low = mask & -mask
            states |= members[low.bit_length() - 1]
            mask ^= low
        return frozenset(states)

    def gamma(self, mask: int) -> int:
        hit = self.memo.get(mask)
        if hit is not None:
            self.memo_hits += 1
            return hit
        # the value at the initial state needs only the states it reaches
        game = build_game(self.ts, self.objective, self.run,
                          self.flatten(mask), self.mode,
                          off_run=self.off_run).reachable()
        value = int(game.arena.initial in solve(game).sat_wins)
        self.games_solved += 1
        self.memo[mask] = value
        return value

    @cached_property
    def off_run(self) -> Optional[frozenset]:
        """The states off the run in optimistic mode, once per game rather
        than per coalition; None in the other modes, which do not read it."""
        if self.mode != OPTIMISTIC or self.run is None:
            return None
        return off_run_states(self.ts, self.run)

    def full_mask(self) -> int:
        return (1 << len(self.players)) - 1


@dataclass(frozen=True)
class ResponsibilityReport:
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


def _shapley_weights(n: int) -> List[Fraction]:
    # k!(n-k-1)!/n! == 1 / (n * C(n-1, k)), kept exact via integers
    return [Fraction(1, n * math.comb(n - 1, k)) for k in range(n)]


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


def _winning_table(pg: PayoffGame, deadline) -> int:
    """Bitset of the winning coalitions, by a monotone boundary fill.

    `win` is kept up-closed and `lose` down-closed.  Each round queries a
    coalition still unknown (the grand coalition first, then the lowest
    unknown mask), then shrinks a winning one to a minimal winning
    coalition, or grows a losing one to a maximal losing coalition, one
    player at a time.  Only unknown coalitions are ever queried and every
    answer is propagated to its whole up-set or down-set, so each round
    finds a boundary coalition not known before: at most (n+1) * (|minimal
    winning| + |maximal losing|) games are solved, and never more than 2^n.
    """
    n = len(pg.players)
    full = pg.full_mask()
    everything = (1 << (1 << n)) - 1
    win = lose = 0

    def query(mask: int) -> bool:
        nonlocal win, lose
        if deadline is not None:
            deadline()
        if pg.gamma(mask):
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


def shapley_exact(pg: PayoffGame, cap: int = DEFAULT_SHAPLEY_CAP,
                  deadline=None) -> ResponsibilityReport:
    """Exact Shapley values from the boundary of the monotone game gamma.

    Exactness rests on gamma being monotone: a winning coalition never
    loses by growing.  That holds in all three modes, because a state
    joining the coalition becomes Sat-owned and keeps its run edge among
    its now unrestricted successors, so Sat can still play every strategy
    it had.  The bit table of winning coalitions is therefore determined
    by its minimal winning and maximal losing coalitions, which
    `_winning_table` learns with far fewer than 2^n games.  Switching pairs
    per (player, coalition size) are then counted with big-integer bit
    operations.  Exact rational arithmetic throughout.  `deadline`, when
    given, is called before every game query and may abort the run by
    raising.
    """
    n = len(pg.players)
    if n > cap:
        raise PlayerCapExceeded(
            f"{n} players exceed the exact-Shapley cap of {cap}",
            guidance="use the refinement analysis, a state grouping, "
                     "or raise --player-cap")
    if n == 0:
        return ResponsibilityReport(pg.players.kind, pg.mode, (), (),
                                    pg.games_solved, pg.memo_hits)
    win = _winning_table(pg, deadline)
    layers = _layers(n)
    weights = _shapley_weights(n)
    values = []
    for p in range(n):
        # bit m set iff m lacks p, gamma(m) = 0 and gamma(m + p) = 1
        swings = (win >> (1 << p)) & ~win & _without(p, n)
        values.append(sum((weights[k] * (swings & layers[k]).bit_count()
                           for k in range(n)), Fraction(0)))
    return ResponsibilityReport(pg.players.kind, pg.mode, pg.players.names,
                                tuple(values), pg.games_solved, pg.memo_hits)


def prune_dummies(ts: TransitionSystem, obj: Objective, run: Optional[LassoRun],
                  mode: str, deadline=None) -> PlayerSet:
    """Player set with provably-null states removed.

    Removes states with a single outgoing transition, states off the run in
    optimistic mode, and states inside Sat's winning region when Sat
    controls nothing or outside it when Sat controls everything.  Every
    removed state is a null player, so the Shapley values of the remaining
    players are unchanged.  `deadline`, when given, is called before each
    of the two games and may abort by raising.
    """
    n = len(ts)
    candidates = set(range(n))
    if mode == OPTIMISTIC and run is not None:
        candidates &= run.states()
    candidates = {s for s in candidates if len(ts.succ[s]) > 1}
    if candidates:
        regions = []
        for coalition in (frozenset(), frozenset(range(n))):
            if deadline is not None:
                deadline()
            regions.append(solve(build_game(ts, obj, run, coalition,
                                            mode)).sat_wins)
        empty, full = regions
        candidates = {s for s in candidates if s not in empty and s in full}
    return PlayerSet.of_states(ts, sorted(candidates))


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


def _oracle_values(players: PlayerSet, mode: str,
                   gamma: List[int]) -> ResponsibilityReport:
    """The defining sum applied term by term to a naive table."""
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
            k = mask.bit_count()
            acc += Fraction(fact(k) * fact(n - k - 1), fact(n)) * (
                gamma[mask | bit] - gamma[mask])
        values.append(acc)
    return ResponsibilityReport(players.kind, mode, players.names,
                                tuple(values), games_solved=1 << n)


def _minimal_winning(players: PlayerSet, gamma: List[int]) -> List[frozenset]:
    n = len(players)
    minimal = []
    for mask in range(1 << n):
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
    return _oracle_values(players, mode, gamma)


def oracle_shapley_and_minimal(ts: TransitionSystem, obj: Objective,
                               run: Optional[LassoRun], mode: str,
                               player_indices: Optional[Sequence[int]] = None,
                               cap: int = DEFAULT_ORACLE_CAP, deadline=None,
                               ) -> Tuple[ResponsibilityReport, List[frozenset]]:
    """`oracle_shapley` and all minimal winning coalitions, as sets of
    player names, from one naive table."""
    players, gamma = _naive_gamma_table(ts, obj, run, mode, player_indices,
                                        cap, deadline)
    return _oracle_values(players, mode, gamma), _minimal_winning(players,
                                                                  gamma)
