"""The witness read off the block game's winning table against the
enumeration it replaced.

`find_witness` reads a block's switching coalition off the table that
`compute_has_bsp` learns once per pass.  `reference_find_witness` is the
search it replaced: the full complement first, then the other blocks'
coalitions by popcount in `combinations` order, skipping supersets of the
winning coalitions seen so far.  The two must pick the same coalition and
give the same witness, and full refinement runs must give the same traces
while the table solves no more games than the enumeration.
"""

import random
from itertools import combinations
from unittest import mock

from conftest import instances, mask

from respgame import (BUECHI, FORWARD, OPTIMISTIC, PARITY, PESSIMISTIC,
                      REACHABILITY, SAFETY, HeuristicsConfig, PayoffGame,
                      PlayerSet, prune_dummies, refine_loop)
from respgame import refinement
from respgame.exports import render_trace_text
from respgame.explicit import build_system
from respgame.generators import generate
from respgame.refinement import (DEFAULT_BLOCK_CAP, Partition, _block_table,
                                 _witness, compute_has_bsp)
from respgame.shapley import _swings


def reference_find_witness(pg, partition, block_id):
    masks = [partition.blocks[bid] for bid in partition.sorted_ids()
             if bid != block_id]
    block = partition.blocks[block_id]
    rest = sum(masks)
    if pg.gamma(rest | block) == 0:
        return None
    if pg.gamma(rest) == 0:
        return _witness(pg, partition, block_id, rest)
    winning = [rest]
    for k in range(len(masks)):
        for combo in combinations(masks, k):
            mask = sum(combo)
            if any(not w & ~mask for w in winning):
                continue
            if pg.gamma(mask) == 1:
                winning.append(mask)
                continue
            if pg.gamma(mask | block) == 1:
                return _witness(pg, partition, block_id, mask)
    return None


def reference_compute_has_bsp(pg, partition, skip=(),
                              cap=DEFAULT_BLOCK_CAP):
    return {bid: reference_find_witness(pg, partition, bid)
            for bid in partition.sorted_ids() if bid not in skip}


def reference_final_table(pg, partition, cap=DEFAULT_BLOCK_CAP):
    """The block table the fixpoint reads, after the enumeration's final
    pass: `pg` counts that pass's games, and the table, learned on a
    payoff game of its own, must give a switching coalition to exactly
    the blocks the pass found a witness for."""
    found = reference_compute_has_bsp(pg, partition)
    twin = PayoffGame(pg.ts, pg.objective, pg.run, pg.mode, pg.players)
    table = _block_table(twin, partition, cap)
    ids = partition.sorted_ids()[::-1]
    assert {bid for bid, w in found.items() if w is not None} == {
        bid for p, bid in enumerate(ids) if _swings(table, p, len(ids))}
    return table


def _random_partition(rng, n):
    labels = [rng.randrange(rng.randint(1, min(n, 5))) for _ in range(n)]
    return Partition([mask(p for p in range(n) if labels[p] == b)
                      for b in sorted(set(labels))])


def test_table_witness_equals_enumeration():
    rng = random.Random(5)
    compared = found = 0
    for kind in (SAFETY, REACHABILITY, BUECHI, PARITY):
        for mode in (OPTIMISTIC, PESSIMISTIC, FORWARD):
            for ts, obj, run, _ in instances(31, 40, max_states=9,
                                             kind=kind, mode=mode):
                players = PlayerSet.of_states(ts, range(len(ts)))
                partition = _random_partition(rng, len(players))
                pg = PayoffGame(ts, obj, run, mode, players)
                ref = PayoffGame(ts, obj, run, mode, players)
                got = compute_has_bsp(pg, partition)
                for bid in partition.sorted_ids():
                    want = reference_find_witness(ref, partition, bid)
                    assert got[bid] == want, (ts.names, kind, mode, bid)
                    compared += 1
                    found += want is not None
                assert pg.games_solved <= ref.games_solved
    assert compared > 1000 and found > 300


def _runs():
    for family, size in (("clouds", 10), ("exp-coalitions", 5),
                         ("frontier-stress-reach", 8),
                         ("frontier-stress-safety", 8),
                         ("almost-empty-frontier", 6)):
        ts, obj, run = build_system(generate(family, size))
        for mode in (PESSIMISTIC, OPTIMISTIC):
            players = prune_dummies(ts, obj, run, mode)
            for seed, blocks, select, how in (
                    (0, 1, "random", "frontier-random"),
                    (1, 3, "max-delta", "frontier-first"),
                    (2, 4, "min-frontier", "random"),
                    (3, 6, "min-delta", "frontier-losing")):
                config = HeuristicsConfig(blocks, select, how, seed)
                yield (ts, obj, run, mode, players), config


def test_refinement_traces_equal_enumeration_with_no_more_games():
    for problem, config in _runs():
        pg = PayoffGame(*problem)
        ref = PayoffGame(*problem)
        got = refine_loop(pg, config)
        with mock.patch.object(refinement, "compute_has_bsp",
                               reference_compute_has_bsp), \
                mock.patch.object(refinement, "_block_table",
                                  reference_final_table):
            want = refine_loop(ref, config)
        assert render_trace_text(got.trace) == render_trace_text(want.trace)
        assert got.responsible == want.responsible
        assert ([r.witnesses for r in got.trace]
                == [r.witnesses for r in want.trace])
        assert pg.games_solved <= ref.games_solved, (problem[0].names, config)
