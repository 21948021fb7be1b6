"""Partition refinement: witnesses, frontiers, heuristics, the full loop."""

import random
from itertools import combinations
from unittest import mock

import pytest

from conftest import (Budget, refinement_example, decoy_frontier_example,
                      empty_frontier_example, instances, spy_everywhere,
                      system)

from respgame import games, refinement
from respgame import (PESSIMISTIC, REACHABILITY, SAFETY, AnalysisTimeout,
                      BlockCapExceeded, HeuristicsConfig, LassoRun, Objective,
                      PlayerSet, oracle_shapley,
                      prune_dummies, refine_loop,
                      responsibility_via_refinement, shapley)
from respgame.exports import records_document
from respgame.refinement import (Partition, compute_has_bsp,
                                 refine_block, select_blocks)
from respgame.shapley import PayoffGame


def _full_pg(ts, obj, run, mode):
    return PayoffGame(ts, obj, run, mode, PlayerSet.of_states(ts, range(len(ts))))


def test_witness_on_single_block_partition():
    ts, obj, run = refinement_example()
    pg = _full_pg(ts, obj, run, PESSIMISTIC)
    part = Partition([frozenset(range(11))])
    found = compute_has_bsp(pg, part)
    w = found[0]
    assert w is not None and w.coalition == 0
    assert w.win_without == frozenset({4, 7})
    assert w.win_with == frozenset(range(9))


def test_final_partition_witness_pairs():
    # after the documented splits, exactly four singleton blocks carry
    # switching pairs, with the expected partner coalitions
    ts, obj, run = refinement_example()
    pg = _full_pg(ts, obj, run, PESSIMISTIC)
    part = Partition([frozenset(range(11))])
    for state in (3, 6, 2, 8):
        target_block = next(bid for bid, b in part.blocks.items() if state in b)
        part.split(target_block, frozenset([state]))
    found = compute_has_bsp(pg, part)
    with_witness = {bid: w for bid, w in found.items() if w is not None}
    blocks = {bid: set(part.blocks[bid]) for bid in with_witness}
    as_names = {}
    for bid, w in with_witness.items():
        members = frozenset(ts.names[s] for s in part.blocks[bid])
        coalition = frozenset(ts.names[s] for s in pg.flatten(w.coalition))
        as_names[members] = coalition
    assert as_names == {
        frozenset({"s3"}): frozenset(),
        frozenset({"s2"}): frozenset(),
        frozenset({"s6"}): frozenset({"s8"}),
        frozenset({"s8"}): frozenset({"s6"}),
    }


def test_no_witnesses_when_objective_unwinnable():
    ts = system(["a", "island"], [(0, 0), (1, 1)])
    obj = Objective(REACHABILITY, target=frozenset({1}))
    pg = _full_pg(ts, obj, LassoRun((), (0,)), PESSIMISTIC)
    part = Partition([frozenset({0}), frozenset({1})])
    assert all(w is None for w in compute_has_bsp(pg, part).values())


def test_block_cap_refusal():
    ts, obj, run = refinement_example()
    pg = _full_pg(ts, obj, run, PESSIMISTIC)
    part = Partition([frozenset([i]) for i in range(11)])
    with pytest.raises(BlockCapExceeded):
        compute_has_bsp(pg, part, cap=4)


def test_frontier_worked_example_step_one():
    ts, obj, run = refinement_example()
    pg = _full_pg(ts, obj, run, PESSIMISTIC)
    part = Partition([frozenset(range(11))])
    w = compute_has_bsp(pg, part)[0]
    assert frozenset(w.frontier_counts) == frozenset({3, 6, 8})


def test_frontier_worked_example_step_three():
    # after splitting off s3 and s6: {s3} wins alone, so the empty
    # coalition is the first witness for the big block; s2 -> s3 and
    # s8 -> {s7, s9} both leave the region difference
    ts, obj, run = refinement_example()
    pg = _full_pg(ts, obj, run, PESSIMISTIC)
    part = Partition([frozenset(range(11)) - {3, 6}, frozenset({3}),
                      frozenset({6})])
    w = compute_has_bsp(pg, part)[0]
    assert w is not None and w.coalition == 0
    assert w.win_with == frozenset({0, 1, 2, 4, 7, 8})
    assert w.win_without == frozenset({4, 7})
    assert frozenset(w.frontier_counts) == frozenset({2, 8})


def test_frontier_contains_null_state():
    ts, obj, run = decoy_frontier_example()
    pg = _full_pg(ts, obj, run, PESSIMISTIC)
    part = Partition([frozenset(range(4))])
    w = compute_has_bsp(pg, part)[0]
    assert frozenset(w.frontier_counts) == frozenset({1, 2})
    # s2 sits in the frontier yet carries no responsibility
    assert oracle_shapley(ts, obj, run, PESSIMISTIC).positivity() == {"s1"}


def test_frontier_empty_for_buechi_instance():
    ts, obj, run = empty_frontier_example()
    pg = _full_pg(ts, obj, run, PESSIMISTIC)
    part = Partition([frozenset(range(4))])
    w = compute_has_bsp(pg, part)[0]
    assert w is not None
    assert frozenset(w.frontier_counts) == frozenset()
    # the fallback split still works and the loop stays exact
    cfg = HeuristicsConfig(refine="frontier-random", rng_seed=3)
    result = refine_loop(pg, cfg)
    got = {ts.names[p] for p in result.responsible}
    assert got == oracle_shapley(ts, obj, run, PESSIMISTIC).positivity()


def test_refine_block_lowest_index_choice():
    ts, obj, run = refinement_example()
    pg = _full_pg(ts, obj, run, PESSIMISTIC)
    part = Partition([frozenset(range(11))])
    w = compute_has_bsp(pg, part)[0]
    chosen, fr, single_id, rest_id = refine_block(
        pg, part, w, HeuristicsConfig(refine="frontier-first"), 1)
    assert chosen == 3 and fr == frozenset({3, 6, 8})
    assert part.blocks[single_id] == frozenset({3})
    assert part.blocks[rest_id] == frozenset(range(11)) - {3}


def test_refine_block_two_member_block():
    # either choice leaves two singletons
    ts, obj, run = decoy_frontier_example()
    pg = _full_pg(ts, obj, run, PESSIMISTIC)
    part = Partition([frozenset({1, 2}), frozenset({0, 3})])
    w = compute_has_bsp(pg, part)[0]
    assert w is not None
    chosen, _fr, single_id, rest_id = refine_block(
        pg, part, w, HeuristicsConfig(refine="frontier-random", rng_seed=1), 1)
    assert len(part.blocks[single_id]) == len(part.blocks[rest_id]) == 1


def test_refinement_settles_despite_null_frontier_state():
    ts, obj, run = decoy_frontier_example()
    pg = _full_pg(ts, obj, run, PESSIMISTIC)
    for seed in range(4):
        cfg = HeuristicsConfig(refine="frontier-random", rng_seed=seed)
        result = refine_loop(pg, cfg)
        assert {ts.names[p] for p in result.responsible} == {"s1"}
        assert result.split_count <= 2


def test_select_blocks_heuristics():
    ts, obj, run = refinement_example()
    pg = _full_pg(ts, obj, run, PESSIMISTIC)
    part = Partition([frozenset({0, 1, 2, 3, 4}), frozenset({5, 6, 7, 8, 9, 10})])
    found = {bid: w for bid, w in compute_has_bsp(pg, part).items()
             if w is not None}
    big = {bid: len(found[bid].delta) for bid in found}
    cfg = HeuristicsConfig(select="max-delta")
    pick = select_blocks(found, cfg, 1)
    assert big[pick] == max(big.values())
    cfg = HeuristicsConfig(select="min-delta")
    pick = select_blocks(found, cfg, 1)
    assert big[pick] == min(big.values())
    only = {pick: found[pick]}
    for select in ("random", "max-delta", "min-delta", "min-frontier"):
        assert select_blocks(only, HeuristicsConfig(select=select),
                             2) == pick


def test_refine_loop_worked_example():
    ts, obj, run = refinement_example()
    pg = _full_pg(ts, obj, run, PESSIMISTIC)
    cfg = HeuristicsConfig(initial_blocks=1, select="random",
                           refine="frontier-first", rng_seed=7)
    result = refine_loop(pg, cfg)
    assert {ts.names[p] for p in result.responsible} == {"s2", "s3", "s6", "s8"}
    splits = [r.split_state for r in result.trace if r.split_state]
    assert splits == ["s3", "s6", "s2", "s8"]
    assert len(result.trace) == 5


def test_trace_names_the_children_of_a_split_coalition_block():
    # block 1's witness coalition is block 0; once block 0 is split into
    # 3 and 4 the carried witness is listed under the two children
    ts, obj, run = refinement_example()
    pg = _full_pg(ts, obj, run, PESSIMISTIC)
    cfg = HeuristicsConfig(initial_blocks=3, rng_seed=14,
                           refine="frontier-first")
    first, second = refine_loop(pg, cfg).trace[:2]
    assert first.witnesses[1] == (0,) and first.selected == 0
    assert set(second.partition) == {1, 2, 3, 4}
    assert second.witnesses[1] == (3, 4)


def test_refine_loop_empty_universe():
    ts = system(["a", "island"], [(0, 0), (1, 1)])
    obj = Objective(REACHABILITY, target=frozenset({1}))
    pg = PayoffGame(ts, obj, LassoRun((), (0,)), PESSIMISTIC,
                    PlayerSet.of_states(ts, []))
    result = refine_loop(pg, HeuristicsConfig())
    assert result.responsible == frozenset() and result.trace == []


def test_refine_loop_with_more_initial_blocks_than_players():
    # the players are grouped by their drawn block, so a huge request
    # costs nothing and starts with at most one block per player
    ts, obj, run = refinement_example()
    pg = _full_pg(ts, obj, run, PESSIMISTIC)
    result = refine_loop(pg, HeuristicsConfig(initial_blocks=10**9))
    assert len(result.trace[0].partition) <= len(pg.players)
    assert {ts.names[p] for p in result.responsible} == {"s2", "s3", "s6",
                                                         "s8"}


_HEURISTIC_GRID = [
    (1, "random", "frontier-random"),
    (1, "max-delta", "frontier-first"),
    (2, "min-delta", "frontier-max"),
    (1, "min-frontier", "frontier-losing"),
    (2, "random", "frontier-winning"),
    (3, "max-delta", "random"),
]


def test_refine_loop_matches_oracle_positivity():
    combos = 0
    for i, (ts, obj, run, mode) in enumerate(instances(71, 150, max_states=8)):
        n, select, refine = _HEURISTIC_GRID[i % len(_HEURISTIC_GRID)]
        players = prune_dummies(ts, obj, run, mode)
        pg = PayoffGame(ts, obj, run, mode, players)
        cfg = HeuristicsConfig(initial_blocks=n, select=select, refine=refine,
                               rng_seed=i)
        result = refine_loop(pg, cfg)
        got = {players.names[p] for p in result.responsible}
        want = oracle_shapley(ts, obj, run, mode).positivity()
        assert got == want, (ts.names, mode, select, refine)
        combos += 1
    assert combos == 150


def test_refinement_progress_bound():
    for ts, obj, run, mode in instances(83, 60, max_states=8):
        players = prune_dummies(ts, obj, run, mode)
        if not len(players):
            continue
        pg = PayoffGame(ts, obj, run, mode, players)
        cfg = HeuristicsConfig(initial_blocks=2, rng_seed=5)
        result = refine_loop(pg, cfg)
        blocks = min(2, len(players))
        assert result.split_count <= len(players) - blocks + 1
        sizes = [len(r.partition) for r in result.trace]
        assert sizes == sorted(sizes)


def test_fixpoint_witnesses_are_switching_pairs():
    for ts, obj, run, mode in instances(91, 60, max_states=8):
        players = prune_dummies(ts, obj, run, mode)
        pg = PayoffGame(ts, obj, run, mode, players)
        result = refine_loop(pg, HeuristicsConfig(rng_seed=2))
        _assert_final_witnesses(pg, result)


def _assert_final_witnesses(pg, result):
    # every witness a trace record lists is a switching pair of its block
    # under that record's partition, and the responsible players are the
    # final blocks with a switching coalition of other final blocks, each
    # of them a singleton
    name_to_pos = {n: i for i, n in enumerate(pg.players.names)}
    blocks = {}
    for rec in result.trace:
        blocks = {bid: sum(1 << name_to_pos[n] for n in members)
                  for bid, members in rec.partition.items()}
        for bid, ids in rec.witnesses.items():
            coalition = sum(blocks[cb] for cb in ids)
            assert pg.gamma(coalition) == 0
            assert pg.gamma(coalition | blocks[bid]) == 1
    switching = 0
    for bid, block in blocks.items():
        others = [m for other, m in blocks.items() if other != bid]
        if any(pg.gamma(c) == 0 and pg.gamma(c | block) == 1
               for k in range(len(others) + 1)
               for c in map(sum, combinations(others, k))):
            assert block & (block - 1) == 0, "a responsible block of many"
            switching |= block
    assert result.responsible == {p for p in range(len(pg.players))
                                  if switching >> p & 1}


def test_the_fixpoint_solves_no_region():
    # the loop solves the two regions of each witness it discovers, and the
    # fixpoint reads the final block table alone
    cases = [(_full_pg(*refinement_example(), PESSIMISTIC), cfg)
             for cfg in (HeuristicsConfig(rng_seed=7, refine="frontier-first"),
                         HeuristicsConfig(initial_blocks=3, rng_seed=14))]
    for i, (ts, obj, run, mode) in enumerate(instances(19, 40, max_states=8)):
        pg = PayoffGame(ts, obj, run, mode, prune_dummies(ts, obj, run, mode))
        cases.append((pg, HeuristicsConfig(initial_blocks=1 + i % 3,
                                           rng_seed=i)))
    region = PayoffGame.region
    responsible = 0
    for pg, config in cases:
        with mock.patch.object(PayoffGame, "region", autospec=True,
                               side_effect=region) as spy:
            result = refine_loop(pg, config)
        discovered = {bid for rec in result.trace for bid in rec.witnesses}
        assert spy.call_count == 2 * len(discovered)
        responsible += bool(result.responsible)
    assert responsible > 10


def test_safety_reach_witness_frontiers_nonempty():
    for ts, obj, run, mode in instances(97, 80, max_states=8):
        if obj.kind not in (SAFETY, REACHABILITY):
            continue
        players = prune_dummies(ts, obj, run, mode)
        if not len(players):
            continue
        pg = PayoffGame(ts, obj, run, mode, players)
        part = Partition([frozenset(range(len(players)))])
        w = compute_has_bsp(pg, part)[0]
        if w is None:
            continue
        assert w.frontier_counts, (ts.names, mode)


def test_frontier_contains_a_responsible_state():
    hits = 0
    for ts, obj, run, mode in instances(103, 80, max_states=8):
        if obj.kind not in (SAFETY, REACHABILITY):
            continue
        players = prune_dummies(ts, obj, run, mode)
        if not len(players):
            continue
        pg = PayoffGame(ts, obj, run, mode, players)
        part = Partition([frozenset(range(len(players)))])
        w = compute_has_bsp(pg, part)[0]
        if w is None:
            continue
        fr_names = {ts.names[s] for s in w.frontier_counts}
        positive = oracle_shapley(ts, obj, run, mode).positivity()
        assert fr_names & positive, (ts.names, mode)
        hits += 1
    assert hits > 10


def test_values_via_refinement_match_oracle():
    for ts, obj, run, mode in instances(113, 60, max_states=7):
        players = prune_dummies(ts, obj, run, mode)
        pg = PayoffGame(ts, obj, run, mode, players)
        report, _ = responsibility_via_refinement(pg, HeuristicsConfig(rng_seed=4))
        oracle = oracle_shapley(ts, obj, run, mode)
        for name in report.names:
            assert report.value_of(name) == oracle.value_of(name)


def test_refinement_trace_deterministic():
    ts, obj, run = refinement_example()
    docs = []
    for _ in range(2):
        pg = _full_pg(ts, obj, run, PESSIMISTIC)
        cfg = HeuristicsConfig(select="random", refine="frontier-random",
                               rng_seed=99)
        report, result = responsibility_via_refinement(pg, cfg)
        docs.append(records_document(report, refinement=result))
    assert docs[0] == docs[1]


def test_refinement_stops_within_its_budget():
    ts, obj, run = refinement_example()
    players = PlayerSet.of_states(ts, range(len(ts)))
    config = HeuristicsConfig()
    spent = Budget()
    refine_loop(PayoffGame(ts, obj, run, PESSIMISTIC, players,
                           deadline=spent), config)
    # the loop alone fits in `spent.calls`, so with that budget the value
    # phase must raise: its sub-game inherits the deadline
    for search, k in ((refine_loop, 3),
                      (responsibility_via_refinement, spent.calls)):
        with spy_everywhere(games, "solve") as spy:
            with pytest.raises(AnalysisTimeout):
                search(PayoffGame(ts, obj, run, PESSIMISTIC, players,
                                  deadline=Budget(k)), config)
        assert spy.call_count <= k


def test_size_layers_are_built_at_most_once_per_pass():
    # a block whose complement wins reads its witness off the block game's
    # coalitions by size; every such block of one pass shares one build
    rng = random.Random(11)
    passes_sharing = 0
    for ts, obj, run, mode in instances(17, 150, max_states=8):
        n = len(ts)
        labels = [rng.randrange(rng.randint(2, min(n, 5))) for _ in range(n)]
        part = Partition([frozenset(p for p in range(n) if labels[p] == b)
                          for b in sorted(set(labels))])
        pg = _full_pg(ts, obj, run, mode)
        with mock.patch.object(refinement, "_layers",
                               wraps=shapley._layers) as built:
            found = compute_has_bsp(pg, part)
        ids = part.sorted_ids()
        readers = sum(1 for bid, w in found.items() if w is not None and
                      w.coalition != part.mask_of(i for i in ids if i != bid))
        assert built.call_count == min(readers, 1)
        passes_sharing += readers >= 2
    assert passes_sharing >= 5


def test_no_coalition_an_earlier_block_table_decided_is_solved_again():
    # every union of a learned table's blocks stays a union of later
    # blocks, so its answer is carried: later passes, and the value phase
    # over the responsible singletons, solve only coalitions that split a
    # block of every earlier table
    learn = refinement._block_table
    gamma = PayoffGame.gamma
    checked = valued = 0
    for i, (ts, obj, run, mode) in enumerate(instances(23, 60, max_states=9)):
        pg = PayoffGame(ts, obj, run, mode, prune_dummies(ts, obj, run, mode))
        tables, solved = [], []

        def table(pg_, partition, cap):
            learned = learn(pg_, partition, cap)
            tables.append([partition.mask_of((bid,))
                           for bid in partition.sorted_ids()])
            return learned

        def spy(self, mask):
            if mask not in self.memo:
                solved.append((len(tables), mask))
            return gamma(self, mask)

        with mock.patch.object(refinement, "_block_table", table), \
                mock.patch.object(PayoffGame, "gamma", spy):
            report, _ = responsibility_via_refinement(
                pg, HeuristicsConfig(initial_blocks=1 + i % 3, rng_seed=i))
        for k, mask in solved:
            for blocks in tables[:k]:
                assert mask != sum(b for b in blocks if b & mask)
                checked += 1
        assert pg.memo_hits == 0
        valued += any(report.values)
    assert checked > 100 and valued > 20
