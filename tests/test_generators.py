"""Benchmark generators: structure, determinism, responsibility profiles."""

import pytest

from respgame import (BUECHI, NoViolation, OPTIMISTIC, PESSIMISTIC,
                      REACHABILITY, SAFETY, HeuristicsConfig, InputError,
                      find_violating_run, generate, oracle_shapley,
                      oracle_shapley_and_minimal, prune_dummies, refine_loop,
                      serialize_explicit, violates)
from respgame.explicit import build_system, parse_explicit
from respgame.generators import lab_program_text
from respgame.model import require_valid_run
from respgame.modlang import expand_program, parse_program
from respgame.refinement import Partition, compute_has_bsp
from respgame.shapley import PayoffGame


@pytest.mark.parametrize("family,size", [
    ("clouds", 1), ("clouds", 3), ("clouds", 7),
    ("exp-coalitions", 1), ("exp-coalitions", 3),
    ("frontier-stress-reach", 1), ("frontier-stress-reach", 5),
    ("frontier-stress-safety", 5),
    ("almost-empty-frontier", 1), ("almost-empty-frontier", 6),
])
def test_generated_documents_are_valid(family, size):
    doc = generate(family, size)
    ts, obj, run = build_system(doc)
    assert run is not None
    require_valid_run(ts, run)
    assert violates(ts, obj, run)


@pytest.mark.parametrize("family,size", [
    ("clouds", 4), ("exp-coalitions", 2), ("frontier-stress-reach", 3),
    ("frontier-stress-safety", 3), ("almost-empty-frontier", 4),
    ("centrifuge-analog", 2),
])
def test_generator_roundtrip(family, size):
    doc = generate(family, size)
    text = serialize_explicit(doc)
    assert parse_explicit(text) == doc
    assert serialize_explicit(generate(family, size)) == text


def test_parameter_validation():
    for family in ("clouds", "exp-coalitions", "frontier-stress-reach",
                   "almost-empty-frontier"):
        with pytest.raises(InputError):
            generate(family, 0)
    with pytest.raises(InputError):
        generate("no-such-family", 3)


def test_clouds_size_and_positivity():
    doc = generate("clouds", 3)
    ts, obj, run = build_system(doc)
    assert len(ts) == 11
    assert obj.kind == REACHABILITY
    for mode in (OPTIMISTIC, PESSIMISTIC):
        rep = oracle_shapley(ts, obj, run, mode)
        assert rep.positivity() == {"crit"}


def test_exp_coalitions_counts():
    for n in (1, 2, 3):
        ts, obj, run = build_system(generate("exp-coalitions", n))
        assert obj.kind == BUECHI
        minimal = oracle_shapley_and_minimal(ts, obj, run, OPTIMISTIC)[1]
        assert len(minimal) == 2 ** n


def _first_witness(doc, mode=PESSIMISTIC):
    ts, obj, run = build_system(doc)
    players = prune_dummies(ts, obj, run, mode)
    pg = PayoffGame(ts, obj, run, mode, players)
    part = Partition([frozenset(range(len(players)))])
    w = compute_has_bsp(pg, part)[0]
    return ts, players, pg, part, w


@pytest.mark.parametrize("family,kind", [
    ("frontier-stress-reach", REACHABILITY),
    ("frontier-stress-safety", SAFETY),
])
def test_stress_frontier_shape(family, kind):
    k = 6
    doc = generate(family, k)
    ts, players, pg, part, w = _first_witness(doc)
    assert pg.objective.kind == kind
    fr = frozenset(w.frontier_counts)
    assert len(fr) == 2 * k
    # the frontier has k states reaching the smaller winning region and k
    # reaching the losing region of the larger game; the responsibility-
    # bearing kind carries the pivotal state, the other side is pure decoy
    losing = frozenset(range(len(ts))) - w.win_with
    to_win = {s for s in fr if any(t in w.win_without for t in ts.succ[s])}
    to_lose = {s for s in fr if any(t in losing for t in ts.succ[s])}
    if kind == REACHABILITY:
        bearing, decoys = to_win, to_lose - to_win
    else:
        bearing, decoys = to_lose, to_win - to_lose
    assert len(bearing) == k and len(decoys) == k
    assert bearing | decoys == fr
    idx = [ts.index_of(n) for n in players.names]
    rep = oracle_shapley(ts, pg.objective, pg.run, PESSIMISTIC, idx)
    assert rep.positivity() == {"r"}
    assert ts.index_of("r") in bearing


def test_almost_empty_frontier_profile():
    k = 6
    doc = generate("almost-empty-frontier", k)
    ts, players, pg, part, w = _first_witness(doc)
    fr = frozenset(w.frontier_counts)
    assert len(fr) == k
    idx = [ts.index_of(n) for n in players.names]
    rep = oracle_shapley(ts, pg.objective, pg.run, PESSIMISTIC, idx)
    assert rep.positivity() == {"r"}
    # every frontier state shows the same local signals, so deterministic
    # tie-breaks walk the decoys before reaching the pivotal state
    cfg = HeuristicsConfig(select="random", refine="frontier-first", rng_seed=0)
    result = refine_loop(pg, cfg)
    assert {players.names[p] for p in result.responsible} == {"r"}
    # all decoys are peeled off before the pivot stands alone
    assert result.split_count == k - 1


def test_lab_model_clean_variant_satisfies():
    doc = generate("centrifuge-analog", 2, bug=False)
    ts, obj, _run = build_system(doc)
    assert doc.run_loop is None
    with pytest.raises(NoViolation):
        find_violating_run(ts, obj)


def test_lab_model_bug_variant_violates():
    doc = generate("centrifuge-analog", 2, bug=True)
    ts, obj, run = build_system(doc)
    assert run is not None and violates(ts, obj, run)
    assert doc.groups is not None
    assert set(doc.groups) == {"supply", "analyser1", "analyser2"}
    covered = {s for members in doc.groups.values() for s in members}
    assert covered == set(doc.states)


def test_lab_model_size_is_the_analyser_count():
    # size 0 is the documented default of two analysers
    assert (serialize_explicit(generate("centrifuge-analog", 0))
            == serialize_explicit(generate("centrifuge-analog", 2)))
    one = generate("centrifuge-analog", 1, bug=False)
    assert len(one.states) == 57
    assert set(one.groups) == {"supply", "analyser1"}
    # the injected bug sits in analyser 2, which one analyser lacks
    with pytest.raises(InputError, match="buggy analyser index out of range"):
        generate("centrifuge-analog", 1)
    for bug in (True, False):
        with pytest.raises(InputError, match="at least one analyser"):
            generate("centrifuge-analog", -1, bug=bug)


def test_lab_bug_blames_the_buggy_analyser():
    from respgame import resolve_grouping, GroupingSpec
    from respgame.grouping import EXPLICIT_LIST
    doc = generate("centrifuge-analog", 2, bug=True)
    ts, obj, run = build_system(doc)
    players = resolve_grouping(GroupingSpec(EXPLICIT_LIST, blocks=doc.groups), ts)
    pg = PayoffGame(ts, obj, run, PESSIMISTIC, players)
    result = refine_loop(pg, HeuristicsConfig(rng_seed=1))
    blamed = {players.names[p] for p in result.responsible}
    assert "analyser2" in blamed
    assert "analyser1" not in blamed


def test_lab_program_text_bug_injection():
    buggy = lab_program_text(2, bug=True)
    clean = lab_program_text(2, bug=False)
    assert "t2 <= T" in buggy and "t2 <= T" not in clean
    assert "t1 = T" in buggy
    prog = parse_program(buggy)
    assert {m.name for m in prog.modules} == {"supply", "analyser1",
                                              "analyser2", "counter"}
    expand_program(prog)  # bounded, deadlock-free
