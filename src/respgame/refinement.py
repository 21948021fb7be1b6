"""Iterative partition refinement for the set of responsible players."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import BlockCapExceeded, InputError, PlayerCapExceeded
from .shapley import (DEFAULT_SHAPLEY_CAP, PayoffGame, ResponsibilityReport,
                      _layers, _swings, shapley_values)

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

    `table` is the block table (`_block_table`), and `layers()` returns
    that game's coalitions by size (`_layers`).  The coalition is the full
    complement of the block if that loses, and otherwise the numerically
    largest switching coalition of the lowest non-empty size: with blocks
    numbered from the end, the first switching coalition of the other
    blocks by size and then in lexicographic order.  None means no pair
    exists under the current partition.
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


def _check_cap(partition: Partition, cap: int) -> None:
    if len(partition.blocks) > cap:
        raise BlockCapExceeded(
            f"{len(partition.blocks)} blocks exceed the witness-search cap "
            f"of {cap}",
            guidance="raise --block-cap, start from fewer initial blocks, "
                     "or group states first")


def _block_table(pg: PayoffGame, partition: Partition, cap: int) -> int:
    """Winning table of the block game, whose player i is the i-th block
    of `partition` from the end of its sorted ids, learned through
    `pg.table_of` on unions of blocks.  A union of old blocks stays a union
    of new ones, so the boundary `pg` carries from earlier passes presets
    the table, and only coalitions it leaves open are queried."""
    _check_cap(partition, cap)
    return pg.table_of([partition.mask_of((bid,))
                        for bid in partition.sorted_ids()[::-1]])


def compute_has_bsp(pg: PayoffGame, partition: Partition,
                    skip: Sequence[int] = (),
                    cap: int = DEFAULT_BLOCK_CAP,
                    ) -> Dict[int, Optional[BspWitness]]:
    """Witness (or None) per block id, excluding the ids in `skip`, all
    read off one block table (`_block_table`), which is learned only when
    some block is left to search."""
    ids = [bid for bid in partition.sorted_ids() if bid not in skip]
    if not ids:
        _check_cap(partition, cap)
        return {}
    table = _block_table(pg, partition, cap)
    # built by the first block whose complement wins, then shared
    layers = cache(partial(_layers, len(partition.blocks)))
    return {bid: find_witness(pg, partition, bid, table, layers)
            for bid in ids}


def _rng_for(seed: int, iteration: int, purpose: int) -> random.Random:
    # integer mixing only: string seeds would depend on per-process hashing
    return random.Random((seed * 1_000_003 + iteration) * 31 + purpose)


# frontier heuristic -> weights (a, b) of its score a*win + b*lose
_FRONTIER_WEIGHTS = {"frontier-max": (1, 1), "frontier-losing": (0, 1),
                     "frontier-winning": (1, 0)}


def refine_block(pg: PayoffGame, partition: Partition, witness: BspWitness,
                 config: HeuristicsConfig, iteration: int):
    """Split one player off the witness block per the configured heuristic.

    The pool is the sorted frontier; for `random`, or when the frontier
    is empty, it is the sorted region difference inside the block, which
    is never empty.  `frontier-first` takes the pool's first state, the
    weighted frontier heuristics the state of highest score (lowest index
    on ties), and every other case a seeded draw.  The player owning the
    chosen state is split off.
    Returns (chosen state, frontier states, new singleton id, rest id).
    """
    block_states = pg.flatten(partition.mask_of((witness.block_id,)))
    delta_in_block = witness.delta & block_states
    assert delta_in_block, "region difference misses the block"
    counts = witness.frontier_counts
    fr = frozenset(counts)
    how = config.refine
    pool = sorted(fr if fr and how != "random" else delta_in_block)
    if how == "frontier-first":
        chosen = pool[0]
    elif fr and how in _FRONTIER_WEIGHTS:
        a, b = _FRONTIER_WEIGHTS[how]
        chosen = max(pool, key=lambda s: (a * counts[s][0] + b * counts[s][1],
                                          -s))
    else:
        chosen = _rng_for(config.rng_seed, iteration, 1).choice(pool)
    player = next(p for p in sorted(partition.blocks[witness.block_id])
                  if chosen in pg.players.members[p])
    single_id, rest_id = partition.split(witness.block_id,
                                         frozenset([player]))
    return chosen, fr, single_id, rest_id


# select heuristic -> the size of a witness it refines first, smallest first
_SELECT_SIZE = {"max-delta": lambda w: -len(w.delta),
                "min-delta": lambda w: len(w.delta),
                "min-frontier": lambda w: len(w.frontier_counts)}


def select_blocks(candidates: Dict[int, BspWitness],
                  config: HeuristicsConfig, iteration: int) -> int:
    """The id of the one non-singleton witness block to refine next: a
    seeded draw, or the smallest (size, block id)."""
    if config.select == "random":
        return _rng_for(config.rng_seed, iteration, 2).choice(
            sorted(candidates))
    size = _SELECT_SIZE[config.select]
    return min(candidates, key=lambda b: (size(candidates[b]), b))


class IterationRecord(NamedTuple):
    """One loop pass: the partition seen, the witnesses known so far, and
    the split performed (absent on the terminal pass).  Player and state
    references are recorded by display name."""

    index: int
    partition: Dict[int, Tuple[str, ...]]
    witnesses: Dict[int, Tuple[int, ...]]
    selected: Optional[int] = None
    delta_size: int = 0
    frontier: Tuple[str, ...] = ()
    split_state: Optional[str] = None


class RefinementResult(NamedTuple):
    responsible: frozenset  # player positions
    trace: List[IterationRecord]

    @property
    def split_count(self) -> int:
        return sum(1 for r in self.trace if r.split_state is not None)


def refine_loop(pg: PayoffGame, config: HeuristicsConfig,
                cap: int = DEFAULT_BLOCK_CAP) -> RefinementResult:
    """Refine a seeded random initial partition until every witness block
    is a singleton; the members of the final blocks with a switching
    coalition are exactly the players with positive responsibility.

    Singleton blocks are skipped while the loop runs and settled by the
    final partition's block table, which builds no witness.  `known` holds
    the witnesses of the blocks with more than one player; refining other
    blocks keeps a recorded coalition a union of blocks, so a witness is
    carried until its block is split.

    A split of B into B1 and B2 can change the answer only of coalitions
    holding exactly one half.  The loop settles the extreme ones, each
    half alone and then its complement, into `pg`'s carried boundary
    (`PayoffGame.settle`), which presets the next block table.  A split
    past the cap refuses before settling.
    """
    players = list(range(len(pg.players)))
    if not players:
        return RefinementResult(frozenset(), [])
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
        skip = [bid for bid, b in partition.blocks.items()
                if len(b) == 1 or bid in known]
        for bid, w in compute_has_bsp(pg, partition, skip=skip,
                                      cap=cap).items():
            if w is not None:
                known[bid] = w
        record = IterationRecord(
            index=iteration,
            partition={bid: tuple(names[p] for p in members)
                       for bid, members in partition.snapshot().items()},
            witnesses={bid: partition.ids_within(w.coalition)
                       for bid, w in sorted(known.items())})
        if not known:
            trace.append(record)
            break
        selected = select_blocks(known, config, iteration)
        witness = known.pop(selected)
        chosen, fr, single_id, rest_id = refine_block(
            pg, partition, witness, config, iteration)
        _check_cap(partition, cap)
        for bid in (single_id, rest_id):
            half = partition.mask_of((bid,))
            pg.settle(half)
            pg.settle(pg.full_mask() ^ half)
        trace.append(record._replace(
            selected=selected,
            delta_size=len(witness.delta),
            frontier=tuple(state_names[s] for s in sorted(fr)),
            split_state=state_names[chosen]))
    table = _block_table(pg, partition, cap)
    ids = partition.sorted_ids()[::-1]
    responsible = frozenset().union(*(
        partition.blocks[bid] for p, bid in enumerate(ids)
        if _swings(table, p, len(ids))))
    return RefinementResult(responsible, trace)


def responsibility_via_refinement(pg: PayoffGame, config: HeuristicsConfig,
                                  block_cap: int = DEFAULT_BLOCK_CAP,
                                  shapley_cap: int = DEFAULT_SHAPLEY_CAP,
                                  ) -> Tuple[ResponsibilityReport, RefinementResult]:
    """Exact values via refinement: identify the responsible players, then
    compute exact Shapley values with them as the whole player universe
    (removing null players leaves the other values unchanged).  Their game
    is played through `pg.table_of`, so the boundary that the witness
    search carried presets it, and the report counts that one memo."""
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
        table = pg.table_of([1 << p for p in responsible])
        for p, value in zip(responsible, shapley_values(table, n)):
            values[p] = value
    report = ResponsibilityReport(pg.players.kind, pg.mode, pg.players.names,
                                  tuple(values), pg.games_solved,
                                  pg.memo_hits)
    return report, result
