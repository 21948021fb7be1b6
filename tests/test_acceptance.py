"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All expectations are exact rationals or exact sets; the only
tolerances are the stated wall-clock budgets.
"""

import time
from fractions import Fraction

from conftest import recurrence_example, parity_jump_example, diamond_example, refinement_example, instances

from respgame import (BUECHI, OPTIMISTIC, PESSIMISTIC, REACHABILITY,
                      SAFETY, HeuristicsConfig,
                      PlayerCapExceeded, PlayerSet, build_game,
                      game_value, generate,
                      oracle_shapley, oracle_shapley_and_minimal,
                      positivity_buechi_opt_all, positivity_reach_opt,
                      prune_dummies, refine_loop,
                      responsibility_via_refinement, shapley_exact)
from respgame.explicit import build_system
from respgame.refinement import Partition, compute_has_bsp
from respgame.shapley import PayoffGame


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f": {detail}" if detail else ""
    print(f"[criterion {num}] {status} {label}{suffix}")
    assert ok, f"criterion {num} ({label}){suffix}"


def _full_pg(ts, obj, run, mode):
    return PayoffGame(ts, obj, run, mode,
                      PlayerSet.of_states(ts, range(len(ts))))


def test_criterion_1_exact_reference_values():
    ts, obj, run = recurrence_example()
    t0 = time.monotonic()
    opt = shapley_exact(_full_pg(ts, obj, run, OPTIMISTIC))
    pes = shapley_exact(_full_pg(ts, obj, run, PESSIMISTIC))
    elapsed = time.monotonic() - t0
    expected_opt = (Fraction(1, 6), Fraction(1, 6), Fraction(2, 3),
                    Fraction(0), Fraction(0), Fraction(0))
    expected_pes = (Fraction(1, 12), Fraction(1, 12), Fraction(3, 4),
                    Fraction(0), Fraction(1, 12), Fraction(0))
    ok = (opt.values == expected_opt and pes.values == expected_pes
          and elapsed < 1.0)
    _report(1, "exact reference responsibility values", ok,
            f"optimistic {tuple(map(str, opt.values))}, pessimistic "
            f"{tuple(map(str, pes.values))}, {elapsed:.3f}s")


def test_criterion_2_grouping_example():
    # Reaching s3 wins, so s3 is a null player and the game has three
    # effective players: every Shapley value lies in (1/6)Z.  Pessimistic
    # gamma(C) = 1 exactly when s0 in C and (s1 in C or s2 in C), which
    # gives (2/3, 1/6, 1/6, 0).  In the block game left = {s0,s1} wins
    # alone (s0 -> s1 -> s3), mid and sink are null, so by efficiency
    # left = 1.
    ts, obj, run = diamond_example()
    individual = shapley_exact(_full_pg(ts, obj, run, PESSIMISTIC))
    oracle = oracle_shapley(ts, obj, run, PESSIMISTIC)
    blocks = PlayerSet.of_blocks(
        ["left", "mid", "sink"],
        [frozenset({0, 1}), frozenset({2}), frozenset({3})])
    block_rep = shapley_exact(PayoffGame(ts, obj, run, PESSIMISTIC, blocks))
    block_values = block_rep.as_dict()
    expected = (Fraction(2, 3), Fraction(1, 6), Fraction(1, 6), Fraction(0))
    ok = (individual.values == expected
          and oracle.values == individual.values
          and block_values == {"left": Fraction(1), "mid": Fraction(0),
                               "sink": Fraction(0)})
    _report(2, "grouping example values", ok,
            f"individual {tuple(map(str, individual.values))}, "
            f"blocks {({k: str(v) for k, v in block_values.items()})}")


_WORKED_PARTITIONS = [
    [{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "bad"}],
    [{"s0", "s1", "s2", "s4", "s5", "s6", "s7", "s8", "s9", "bad"}, {"s3"}],
    [{"s0", "s1", "s2", "s4", "s5", "s7", "s8", "s9", "bad"}, {"s3"}, {"s6"}],
    [{"s0", "s1", "s4", "s5", "s7", "s8", "s9", "bad"}, {"s3"}, {"s6"},
     {"s2"}],
    [{"s0", "s1", "s4", "s5", "s7", "s9", "bad"}, {"s3"}, {"s6"}, {"s2"},
     {"s8"}],
]


def _run_worked_example():
    ts, obj, run = refinement_example()
    pg = _full_pg(ts, obj, run, PESSIMISTIC)
    config = HeuristicsConfig(initial_blocks=1, select="random",
                              refine="frontier-first", rng_seed=0)
    t0 = time.monotonic()
    report, result = responsibility_via_refinement(pg, config)
    elapsed = time.monotonic() - t0
    return ts, report, result, elapsed


def test_criterion_3_refinement_worked_example():
    ts, report, result, elapsed = _run_worked_example()
    checks = []
    checks.append(len(result.trace) == 5)
    for record, want in zip(result.trace, _WORKED_PARTITIONS):
        got = {frozenset(b) for b in record.partition.values()}
        checks.append(got == {frozenset(x) for x in want})
    splits = [r.split_state for r in result.trace if r.split_state]
    checks.append(splits == ["s3", "s6", "s2", "s8"])
    responsible = {ts.names[p] for p in result.responsible}
    checks.append(responsible == {"s2", "s3", "s6", "s8"})
    values = {n: report.as_dict()[n] for n in ("s2", "s3", "s6", "s8")}
    checks.append(values == {"s2": Fraction(5, 12), "s3": Fraction(5, 12),
                             "s6": Fraction(1, 12), "s8": Fraction(1, 12)})
    checks.append(elapsed < 1.0)
    _report(3, "worked refinement example (partitions, splits, values)",
            all(checks),
            f"splits {splits}, responsible {sorted(responsible)}, "
            f"{elapsed:.3f}s")


def test_criterion_3_frontier_sequence():
    # Step three: B = {s0,s1,s2,s4,s5,s7,s8,s9,bad}, {s3}, {s6}.  {s3} wins
    # alone (s3 -> s4 <-> s7), so B's witness coalitions are () and {s6};
    # the popcount-ordered search returns () first.  Then W(()) = {s4,s7},
    # W(B) = {s0,s1,s2,s4,s7,s8} and delta & B = {s0,s1,s2,s8}.
    # s2 -> s3 and s8 -> {s7,s9} leave delta, so the frontier is {s2,s8}
    # (coalition {s6} would give {s8}; no witness gives {s2}).
    _ts, _report_, result, _elapsed = _run_worked_example()
    fronts = [set(r.frontier) for r in result.trace if r.split_state]
    expected = [{"s3", "s6", "s8"}, {"s6", "s8"}, {"s2", "s8"}, {"s8"}]
    _report("3 (frontiers)", "worked example frontier sequence",
            fronts == expected, f"got {fronts}")


def test_criterion_4_oracle_equivalence_positivity():
    t0 = time.monotonic()
    disagreements = 0
    # polynomial reachability positivity
    for ts, obj, run, _m in instances(401, 500, max_states=9,
                                      kind=REACHABILITY):
        fast = positivity_reach_opt(ts, obj.target, run)
        slow = oracle_shapley(ts, obj, run, OPTIMISTIC).positivity()
        disagreements += fast != slow
    # polynomial recurrence positivity, every state of every instance
    for ts, obj, run, _m in instances(402, 500, max_states=9, kind=BUECHI):
        fast = positivity_buechi_opt_all(ts, obj.target, run)
        slow = oracle_shapley(ts, obj, run, OPTIMISTIC).positivity()
        disagreements += fast != slow
    # refinement: 500 instances per objective/mode combination
    grid = [(1, "random", "frontier-random"),
            (1, "max-delta", "frontier-first"),
            (2, "min-delta", "frontier-max"),
            (1, "min-frontier", "frontier-losing"),
            (2, "random", "frontier-winning"),
            (3, "max-delta", "random")]
    total = 1000
    from respgame import FORWARD
    from respgame.model import OBJECTIVE_KINDS
    for ki, kind in enumerate(OBJECTIVE_KINDS):
        for mi, mode in enumerate((OPTIMISTIC, PESSIMISTIC, FORWARD)):
            seed = 403 + ki * 10 + mi  # stable, unlike hashing the names
            source = instances(seed, 500, max_states=9, kind=kind, mode=mode)
            for i, (ts, obj, run, _m) in enumerate(source):
                n, select, refine = grid[i % len(grid)]
                players = prune_dummies(ts, obj, run, mode)
                pg = PayoffGame(ts, obj, run, mode, players)
                cfg = HeuristicsConfig(initial_blocks=n, select=select,
                                       refine=refine, rng_seed=i)
                got = {players.names[p]
                       for p in refine_loop(pg, cfg).responsible}
                want = oracle_shapley(ts, obj, run, mode).positivity()
                disagreements += got != want
                total += 1
    elapsed = time.monotonic() - t0
    ok = disagreements == 0 and elapsed < 300.0
    _report(4, "oracle equivalence of the positivity algorithms", ok,
            f"{disagreements} disagreements over {total} instances, "
            f"{elapsed:.1f}s")


def test_criterion_5_oracle_equivalence_values():
    t0 = time.monotonic()
    mismatches = 0
    for i, (ts, obj, run, mode) in enumerate(instances(405, 200,
                                                       max_states=8)):
        players = prune_dummies(ts, obj, run, mode)
        pg = PayoffGame(ts, obj, run, mode, players)
        direct = shapley_exact(pg)
        refined, _ = responsibility_via_refinement(
            PayoffGame(ts, obj, run, mode, players),
            HeuristicsConfig(rng_seed=i))
        oracle = oracle_shapley(ts, obj, run, mode)
        for name in ts.names:
            want = oracle.as_dict()[name]
            got_direct = (direct.as_dict()[name]
                          if name in players.names else Fraction(0))
            got_refined = (refined.as_dict()[name]
                           if name in players.names else Fraction(0))
            mismatches += (want != got_direct) + (want != got_refined)
    elapsed = time.monotonic() - t0
    _report(5, "oracle equivalence of the value computations",
            mismatches == 0,
            f"{mismatches} mismatches over 200 instances, {elapsed:.1f}s")


def test_criterion_6_structural_properties():
    violations = {}
    # optimistic positives lie on the run
    bad = 0
    for ts, obj, run, _m in instances(406, 150, max_states=8):
        positive = oracle_shapley(ts, obj, run, OPTIMISTIC).positivity()
        on_run = {ts.names[s] for s in run.states()}
        bad += not positive <= on_run
    violations["optimistic positives on the run"] = bad
    # optimistic reachability: all positive values equal
    bad = 0
    for ts, obj, run, _m in instances(407, 150, max_states=8,
                                      kind=REACHABILITY):
        rep = oracle_shapley(ts, obj, run, OPTIMISTIC)
        bad += len({v for v in rep.values if v > 0}) > 1
    violations["equal positive reachability values"] = bad
    # safety/reachability witnesses: non-empty frontier containing a
    # responsible state
    empty = missing = 0
    seen = 0
    for i, (ts, obj, run, mode) in enumerate(instances(408, 400,
                                                       max_states=8)):
        if obj.kind not in (SAFETY, REACHABILITY):
            continue
        players = prune_dummies(ts, obj, run, mode)
        if not len(players):
            continue
        pg = PayoffGame(ts, obj, run, mode, players)
        part = Partition([(1 << len(players)) - 1])
        w = compute_has_bsp(pg, part)[0]
        if w is None:
            continue
        seen += 1
        fr = frozenset(w.frontier_counts)
        empty += not fr
        fr_names = {ts.names[s] for s in fr}
        positive = oracle_shapley(ts, obj, run, mode).positivity()
        missing += not fr_names & positive
        # every split of a full refinement run also sees a frontier
        result = refine_loop(pg, HeuristicsConfig(rng_seed=i))
        empty += sum(1 for r in result.trace
                     if r.split_state and not r.frontier)
    violations["non-empty safety/reach frontiers"] = empty
    violations["frontier contains a responsible state"] = missing
    # gamma monotone under coalition growth
    import random as _random
    rng = _random.Random(409)
    bad = 0
    for ts, obj, run, mode in instances(409, 150, max_states=8):
        n = len(ts)
        small = frozenset(s for s in range(n) if rng.random() < 0.4)
        big = small | frozenset(s for s in range(n) if rng.random() < 0.4)
        lo = game_value(build_game(ts, obj, run, small, mode))
        hi = game_value(build_game(ts, obj, run, big, mode))
        bad += lo > hi
    violations["gamma monotone"] = bad
    # efficiency: values sum to the full coalition's payoff
    bad = 0
    for ts, obj, run, mode in instances(410, 150, max_states=8):
        rep = oracle_shapley(ts, obj, run, mode)
        total = sum(rep.values, Fraction(0))
        full = game_value(build_game(ts, obj, run, frozenset(range(len(ts))),
                                     mode))
        bad += total != full
    violations["efficiency"] = bad
    ok = all(v == 0 for v in violations.values()) and seen >= 50
    _report(6, "structural properties across the random suites", ok,
            "; ".join(f"{k}: {v}" for k, v in violations.items()))


def test_criterion_7_exponential_family():
    counts = {}
    for n in (1, 2, 3, 4):
        ts, obj, run = build_system(generate("exp-coalitions", n))
        counts[n] = len(oracle_shapley_and_minimal(ts, obj, run,
                                                   OPTIMISTIC)[1])
    ok = all(counts[n] == 2 ** n for n in counts)
    _report(7, "exponentially many minimal winning coalitions", ok,
            f"counts {counts}")


def test_criterion_8_scalability_feasibility():
    t0 = time.monotonic()
    doc = generate("clouds", 10_000)
    ts, obj, run = build_system(doc)
    players = prune_dummies(ts, obj, run, PESSIMISTIC)
    pg = PayoffGame(ts, obj, run, PESSIMISTIC, players)
    cfg = HeuristicsConfig(select="random", refine="frontier-random",
                           rng_seed=7)
    result = refine_loop(pg, cfg)
    refine_elapsed = time.monotonic() - t0
    responsible = {players.names[p] for p in result.responsible}
    refused = False
    try:
        shapley_exact(PayoffGame(ts, obj, run, PESSIMISTIC, players))
    except PlayerCapExceeded:
        refused = True

    def split_count(family, refine, seed=0):
        ts_, obj_, run_ = build_system(generate(family, 50))
        players_ = prune_dummies(ts_, obj_, run_, PESSIMISTIC)
        pg_ = PayoffGame(ts_, obj_, run_, PESSIMISTIC, players_)
        cfg_ = HeuristicsConfig(select="random", refine=refine, rng_seed=seed)
        res = refine_loop(pg_, cfg_)
        assert {players_.names[p] for p in res.responsible} == {"r"}
        return res.split_count

    reach_match = split_count("frontier-stress-reach", "frontier-winning")
    reach_rand = split_count("frontier-stress-reach", "frontier-random",
                             seed=1)
    safe_match = split_count("frontier-stress-safety", "frontier-losing")
    safe_rand = split_count("frontier-stress-safety", "frontier-random",
                            seed=1)
    ok = (responsible == {"crit"} and refine_elapsed < 60.0 and refused
          and reach_match < reach_rand and safe_match < safe_rand)
    _report(8, "scalability feasibility", ok,
            f"clouds refine {refine_elapsed:.1f}s -> {sorted(responsible)}, "
            f"direct computation refused: {refused}, stress iterations "
            f"reach {reach_match}<{reach_rand}, safety {safe_match}<{safe_rand}")


def test_criterion_9_parity_smoke():
    ts, obj, run = parity_jump_example()
    v1 = game_value(build_game(ts, obj, run, {0, 1, 3, 4}, OPTIMISTIC))
    v2 = game_value(build_game(ts, obj, run, {0, 1, 4}, OPTIMISTIC))
    oracle = oracle_shapley(ts, obj, run, OPTIMISTIC)
    ok = v1 == 1 and v2 == 0 and oracle.as_dict()["s3"] > 0
    _report(9, "parity forward-jump necessity", ok,
            f"gamma(with jump state)={v1}, gamma(without)={v2}")
