"""Iterative partition refinement for the set of responsible players."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import BlockCapExceeded, InputError, PlayerCapExceeded
from .shapley import (DEFAULT_SHAPLEY_CAP, PayoffGame, ResponsibilityReport,
                      _layers, _swings, _winning_table, shapley_values)

SELECT_HEURISTICS = ("random", "max-delta", "min-delta", "min-frontier")
REFINE_HEURISTICS = ("random", "frontier-random", "frontier-first",
                     "frontier-max", "frontier-losing", "frontier-winning")

DEFAULT_BLOCK_CAP = 24


class _HeuristicsFields(NamedTuple):
    initial_blocks: int = 1
    select: str = "random"
    refine: str = "frontier-random"
    rng_seed: int = 0


class HeuristicsConfig(_HeuristicsFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.initial_blocks < 1:
            raise InputError("initial_blocks must be >= 1")
        if self.select not in SELECT_HEURISTICS:
            raise InputError(f"unknown select heuristic {self.select!r}")
        if self.refine not in REFINE_HEURISTICS:
            raise InputError(f"unknown refine heuristic {self.refine!r}")
        return self


class Partition:
    """Disjoint non-empty blocks of player positions covering the universe.

    Block ids are stable: a split retires the old id and mints two fresh
    ones, so trace records stay unambiguous across iterations.
    """

    def __init__(self, blocks: Sequence[frozenset]):
        self.blocks: Dict[int, frozenset] = {}
        self._next = 0
        seen = set()
        for b in blocks:
            b = frozenset(b)
            if not b:
                raise InputError("empty block")
            if b & seen:
                raise InputError("blocks overlap")
            seen |= b
            self.blocks[self._next] = b
            self._next += 1

    def split(self, block_id: int, part: frozenset) -> Tuple[int, int]:
        b = self.blocks.pop(block_id)
        part = frozenset(part)
        rest = b - part
        if not part or not rest:
            raise InputError("split must produce two non-empty blocks")
        a_id, b_id = self._next, self._next + 1
        self._next += 2
        self.blocks[a_id] = part
        self.blocks[b_id] = rest
        return a_id, b_id

    def sorted_ids(self) -> List[int]:
        return sorted(self.blocks)

    def mask_of(self, ids) -> int:
        """Player bitmask of the union of the blocks `ids`."""
        mask = 0
        for bid in ids:
            for p in self.blocks[bid]:
                mask |= 1 << p
        return mask

    def ids_within(self, mask: int) -> Tuple[int, ...]:
        """Sorted ids of the blocks inside `mask`; for a union of blocks,
        exactly the blocks it is made of."""
        return tuple(bid for bid in self.sorted_ids()
                     if not self.mask_of((bid,)) & ~mask)

    def snapshot(self) -> Dict[int, Tuple[int, ...]]:
        return {bid: tuple(sorted(b)) for bid, b in sorted(self.blocks.items())}


class BspWitness(NamedTuple):
    """Concrete block-switching pair with both winning regions.

    gamma of the player mask `coalition` is 0 and flips to 1 once
    `block_id` joins.  The winning regions hold state indices; `delta` is
    their difference, which meets the block's states for all four
    objective classes.  `frontier_counts` maps each frontier state to its
    successors in the smaller winning region and in the larger game's
    losing region.
    """

    block_id: int
    coalition: int
    win_with: frozenset
    win_without: frozenset
    frontier_counts: Dict[int, Tuple[int, int]]

    @property
    def delta(self) -> frozenset:
        return self.win_with - self.win_without


def _witness(pg: PayoffGame, partition: Partition, block_id: int,
             coalition: int) -> BspWitness:
    """Solve both games of the pair through `pg.region`, which reads them
    off the bounds or seeds them like gamma.  The frontier reads the model's successor lists: every
    block state is Sat's in the larger game, so engraving cut none."""
    block = partition.mask_of((block_id,))
    win_without = pg.region(coalition)
    win_with = pg.region(coalition | block)
    delta = win_with - win_without
    counts = {}
    for s in sorted(delta & pg.flatten(block)):
        succ = pg.ts.succ[s]
        if any(t not in delta for t in succ):
            counts[s] = (sum(1 for t in succ if t in win_without),
                         sum(1 for t in succ if t not in win_with))
    return BspWitness(block_id, coalition, win_with, win_without, counts)


def find_witness(pg: PayoffGame, partition: Partition, block_id: int,
                 table: int, layers: Callable[[], List[int]],
                 ) -> Optional[BspWitness]:
    """Read one block's block-switching pair off the block game's table.

    `table` is the winning table of the game whose player i is the i-th
    block of `partition` from the end of its sorted ids, and `layers()`
    returns that game's coalitions by size (`_layers`).  The coalition is
    the full complement of the block if that loses, and otherwise the
    numerically largest switching coalition of the lowest non-empty size:
    with blocks numbered from the end, the first switching coalition of
    the other blocks by size and then in lexicographic order.  None means
    no pair exists under the current partition.
    """
    ids = partition.sorted_ids()[::-1]
    m = len(ids)
    p = ids.index(block_id)
    swings = _swings(table, p, m)
    if not swings:
        return None
    coalition = ((1 << m) - 1) ^ (1 << p)
    if not swings >> coalition & 1:
        lowest = next(swings & layer for layer in layers() if swings & layer)
        coalition = lowest.bit_length() - 1
    return _witness(pg, partition, block_id, partition.mask_of(
        bid for i, bid in enumerate(ids) if coalition >> i & 1))


def compute_has_bsp(pg: PayoffGame, partition: Partition,
                    skip: Sequence[int] = (),
                    known: Optional[Dict[int, BspWitness]] = None,
                    cap: int = DEFAULT_BLOCK_CAP,
                    ) -> Dict[int, Optional[BspWitness]]:
    """Witness (or None) per block id, excluding the ids in `skip`.

    `known` carries witnesses from earlier rounds: refining other blocks
    keeps a recorded coalition a union of blocks, so those witnesses are
    reused rather than re-searched.  The other blocks read their witness
    off one winning table of the block game, learned through `pg.gamma`
    on unions of blocks; a union of old blocks stays a union of new ones,
    so the shared memo carries every answer across splits.
    """
    nblocks = len(partition.blocks)
    if nblocks > cap:
        raise BlockCapExceeded(
            f"{nblocks} blocks exceed the witness-search cap of {cap}",
            guidance="raise --block-cap, start from fewer initial blocks, "
                     "or group states first")
    known = known or {}
    ids = [bid for bid in partition.sorted_ids() if bid not in skip]
    if any(bid not in known for bid in ids):
        blocks = [partition.mask_of((bid,)) for bid in partition.sorted_ids()]
        table = _winning_table(pg.gamma_of(blocks[::-1]), nblocks)
        # built by the first block whose complement wins, then shared
        layers = cache(partial(_layers, nblocks))
    return {bid: known[bid] if bid in known
            else find_witness(pg, partition, bid, table, layers)
            for bid in ids}


def _rng_for(seed: int, iteration: int, purpose: int) -> random.Random:
    # integer mixing only: string seeds would depend on per-process hashing
    return random.Random((seed * 1_000_003 + iteration) * 31 + purpose)


def refine_block(pg: PayoffGame, partition: Partition, witness: BspWitness,
                 config: HeuristicsConfig, iteration: int):
    """Split one player off the witness block per the configured heuristic.

    Frontier variants pick a state from the frontier (falling back to a
    uniform pick from the region difference inside the block, which is
    never empty); the player owning the chosen state is split off.
    Returns (chosen state, frontier states, new singleton id, rest id).
    """
    block_states = pg.flatten(partition.mask_of((witness.block_id,)))
    delta_in_block = witness.delta & block_states
    assert delta_in_block, "region difference misses the block"
    counts = witness.frontier_counts
    fr = frozenset(counts)
    how = config.refine
    if how == "random":
        chosen = _rng_for(config.rng_seed, iteration, 1).choice(
            sorted(delta_in_block))
    elif not fr:
        if how == "frontier-first":
            chosen = min(delta_in_block)
        else:
            chosen = _rng_for(config.rng_seed, iteration, 1).choice(
                sorted(delta_in_block))
    elif how == "frontier-random":
        chosen = _rng_for(config.rng_seed, iteration, 1).choice(sorted(fr))
    elif how == "frontier-first":
        chosen = min(fr)
    elif how == "frontier-max":
        chosen = max(sorted(fr),
                     key=lambda s: (counts[s][0] + counts[s][1], -s))
    elif how == "frontier-losing":
        chosen = max(sorted(fr), key=lambda s: (counts[s][1], -s))
    else:  # frontier-winning
        chosen = max(sorted(fr), key=lambda s: (counts[s][0], -s))
    player = next(p for p in sorted(partition.blocks[witness.block_id])
                  if chosen in pg.players.members[p])
    single_id, rest_id = partition.split(witness.block_id,
                                         frozenset([player]))
    return chosen, fr, single_id, rest_id


def select_blocks(candidates: Dict[int, BspWitness],
                  config: HeuristicsConfig, iteration: int) -> int:
    """The id of the one non-singleton witness block to refine next."""
    if not candidates:
        raise InputError("no candidate blocks")
    ids = sorted(candidates)
    how = config.select
    if how == "random":
        return _rng_for(config.rng_seed, iteration, 2).choice(ids)
    if how == "max-delta":
        return max(ids, key=lambda b: (len(candidates[b].delta), -b))
    if how == "min-delta":
        return min(ids, key=lambda b: (len(candidates[b].delta), b))
    # min-frontier
    return min(ids, key=lambda b: (len(candidates[b].frontier_counts), b))


class IterationRecord(NamedTuple):
    """One loop pass: the partition seen, the witnesses known so far, and
    the split performed (absent on the terminal pass).  Player and state
    references are recorded by display name."""

    index: int
    partition: Dict[int, Tuple[str, ...]]
    witnesses: Dict[int, Tuple[int, ...]]
    selected: Optional[int] = None
    delta: Tuple[str, ...] = ()
    frontier: Tuple[str, ...] = ()
    split_state: Optional[str] = None


class RefinementResult(NamedTuple):
    responsible: frozenset  # player positions
    trace: List[IterationRecord]
    witnesses: Dict[int, BspWitness]

    @property
    def split_count(self) -> int:
        return sum(1 for r in self.trace if r.split_state is not None)


def refine_loop(pg: PayoffGame, config: HeuristicsConfig,
                cap: int = DEFAULT_BLOCK_CAP) -> RefinementResult:
    """Refine a seeded random initial partition until every witness block
    is a singleton; the members of the final witness blocks are exactly
    the players with positive responsibility.

    Singleton blocks are skipped while the loop runs and settled in one
    final pass; witnesses found earlier are carried across iterations.
    """
    players = list(range(len(pg.players)))
    if not players:
        return RefinementResult(frozenset(), [], {})
    names = pg.players.names
    state_names = pg.ts.names
    rng = _rng_for(config.rng_seed, 0, 0)
    drawn: Dict[int, List[int]] = {}
    for p in players:
        drawn.setdefault(rng.randrange(config.initial_blocks), []).append(p)
    partition = Partition([frozenset(drawn[b]) for b in sorted(drawn)])
    trace: List[IterationRecord] = []
    known: Dict[int, BspWitness] = {}
    iteration = 0
    while True:
        iteration += 1
        singles = [bid for bid, b in partition.blocks.items() if len(b) == 1]
        found = compute_has_bsp(pg, partition, skip=singles, known=known,
                                cap=cap)
        for bid, w in found.items():
            if w is not None:
                known[bid] = w
        record = IterationRecord(
            index=iteration,
            partition={bid: tuple(names[p] for p in members)
                       for bid, members in partition.snapshot().items()},
            witnesses={bid: partition.ids_within(w.coalition)
                       for bid, w in sorted(known.items())})
        candidates = {bid: w for bid, w in known.items()
                      if len(partition.blocks[bid]) > 1}
        if not candidates:
            trace.append(record)
            break
        selected = select_blocks(candidates, config, iteration)
        witness = candidates[selected]
        chosen, fr, _, _ = refine_block(
            pg, partition, witness, config, iteration)
        trace.append(record._replace(
            selected=selected,
            delta=tuple(state_names[s] for s in sorted(witness.delta)),
            frontier=tuple(state_names[s] for s in sorted(fr)),
            split_state=state_names[chosen]))
        known.pop(selected, None)
    final = compute_has_bsp(pg, partition, known=known, cap=cap)
    witnesses = {bid: w for bid, w in final.items() if w is not None}
    responsible = set()
    for bid in witnesses:
        responsible |= partition.blocks[bid]
    return RefinementResult(frozenset(responsible), trace, witnesses)


def responsibility_via_refinement(pg: PayoffGame, config: HeuristicsConfig,
                                  block_cap: int = DEFAULT_BLOCK_CAP,
                                  shapley_cap: int = DEFAULT_SHAPLEY_CAP,
                                  ) -> Tuple[ResponsibilityReport, RefinementResult]:
    """Exact values via refinement: identify the responsible players, then
    compute exact Shapley values with them as the whole player universe
    (removing null players leaves the other values unchanged).  Their game
    is played through `pg`, so the value phase shares the witness search's
    memo and the report counts that one memo."""
    result = refine_loop(pg, config, cap=block_cap)
    responsible = sorted(result.responsible)
    if len(responsible) > shapley_cap:
        raise PlayerCapExceeded(
            f"{len(responsible)} responsible players exceed the exact-Shapley "
            f"cap of {shapley_cap}",
            guidance="the positivity set was computed; rerun with a higher "
                     "--player-cap to obtain values")
    values = [Fraction(0)] * len(pg.players)
    n = len(responsible)
    if n:
        table = _winning_table(pg.gamma_of([1 << p for p in responsible]), n)
        for p, value in zip(responsible, shapley_values(table, n)):
            values[p] = value
    report = ResponsibilityReport(pg.players.kind, pg.mode, pg.players.names,
                                  tuple(values), pg.games_solved,
                                  pg.memo_hits)
    return report, result
