"""Core model types: run validation, violation checks, run discovery."""

import pytest

import json
import random
import time

from conftest import (Budget, exhaustive_violation_exists, engraving_example, recurrence_example, parity_jump_example,
                      random_objective, random_total_system, system)

from respgame import (BUECHI, PARITY, REACHABILITY, SAFETY, AnalysisTimeout,
                      InputError, LassoRun, NoViolation, Objective,
                      TransitionSystem, expand_program, find_violating_run,
                      parse_program, violates)
from respgame.explicit import parse_explicit
from respgame.generators import lab_program_text
from respgame.model import require_valid_run


def test_deadlocked_model_rejected():
    with pytest.raises(InputError, match="deadlocked states.*dead"):
        system(["a", "dead"], [(0, 0), (0, 1)])


def test_duplicate_names_rejected():
    with pytest.raises(InputError, match="duplicate"):
        system(["a", "a"], [(0, 1), (1, 0)])


def test_duplicate_names_listed_in_one_pass():
    # counting each name by a scan of all 30 002 took seconds
    names = [f"s{i}" for i in range(30000)] + ["s7", "s123"]
    t0 = time.monotonic()
    with pytest.raises(InputError,
                       match=r"^duplicate state names: s123, s7$"):
        system(names, [])
    assert time.monotonic() - t0 < 1.0


def test_successor_lists_sorted_and_unique():
    # both loaders hand the constructor sorted, duplicate-free tuples
    doc = {"states": ["a", "b"], "initial": "a",
           "transitions": [["a", "b"], ["a", "a"], ["a", "b"], ["b", "b"]],
           "objective": {"kind": "safety", "target": ["b"]}}
    assert parse_explicit(json.dumps(doc)).system[0].succ == ((0, 1), (1,))
    prog = parse_program("""
module m
  x : [0..1] init 0;
  [] true -> (x' = 1);
  [] true -> (x' = 0);
  [] true -> (x' = 1);
endmodule
""")
    assert expand_program(prog).ts.succ == ((0, 1), (0, 1))


def test_successor_lists_are_checked_against_the_states():
    with pytest.raises(TypeError):
        TransitionSystem(["a", "b"], 0, [(0, 1), (1, 0)])  # an edge list
    with pytest.raises(InputError, match="^3 successor lists for 2 states$"):
        TransitionSystem(["a", "b"], 0, succ=[(1,), (0,), (0,)])
    for bad in (2, -1):
        with pytest.raises(InputError,
                           match=r"^successor index out of range 0\.\.1$"):
            TransitionSystem(["a", "b"], 0, succ=[(1,), (0, bad)])


def test_objective_payload_exclusive():
    with pytest.raises(InputError):
        Objective(SAFETY)
    with pytest.raises(InputError):
        Objective(PARITY, target=frozenset({0}))
    with pytest.raises(InputError):
        Objective("eventually", target=frozenset())


def test_validate_run_accepts_known_example():
    ts, _obj, run = recurrence_example()
    require_valid_run(ts, run)


def test_validate_run_minimal_self_loop():
    ts = system(["a", "b"], [(0, 0), (0, 1), (1, 1)])
    require_valid_run(ts, LassoRun((), (0,)))


def test_validate_run_rejects_loop_repeat():
    ts, _obj, _run = recurrence_example()
    with pytest.raises(InputError, match="loop repeats s1"):
        require_valid_run(ts, LassoRun((0,), (1, 2, 1)))


def test_validate_run_rejects_wrong_start_and_bad_edges():
    ts, _obj, _run = recurrence_example()
    with pytest.raises(InputError, match="not the initial state"):
        require_valid_run(ts, LassoRun((1,), (2, 3)))
    with pytest.raises(InputError, match="is not a transition"):
        require_valid_run(ts, LassoRun((0,), (5,)))
    with pytest.raises(InputError):
        require_valid_run(ts, LassoRun((0, 1, 0), (5,)))


def test_violates_buechi_example():
    ts, obj, run = recurrence_example()
    assert violates(ts, obj, run)


def test_violates_empty_reachability_target():
    ts = system(["a"], [(0, 0)])
    obj = Objective(REACHABILITY, target=frozenset())
    assert violates(ts, obj, LassoRun((), (0,)))


def test_violates_parity_example():
    ts, obj, run = parity_jump_example()
    assert violates(ts, obj, run)


def test_violates_buechi_ignores_prefix_visits():
    # the loop alone decides recurrence; a prefix visit is not enough
    ts = system(["a", "f", "c"], [(0, 1), (1, 2), (2, 2)])
    obj = Objective(BUECHI, target=frozenset({1}))
    assert violates(ts, obj, LassoRun((0, 1), (2,)))


def test_find_violating_run_safety_example():
    ts, obj, _run = engraving_example()
    run = find_violating_run(ts, obj)
    assert run == LassoRun((0, 2, 4), (6,))


def test_find_violating_run_trivial_self_loop():
    ts = system(["a"], [(0, 0)])
    run = find_violating_run(ts, Objective(REACHABILITY, target=frozenset()))
    assert run == LassoRun((), (0,))


def test_find_violating_run_buechi_cross_checked():
    ts, obj, _run = recurrence_example()
    run = find_violating_run(ts, obj)
    require_valid_run(ts, run)
    assert violates(ts, obj, run)
    assert not set(run.loop) & obj.target
    assert exhaustive_violation_exists(ts, obj)


def test_find_violating_run_raises_on_satisfied_objective():
    ts = system(["a"], [(0, 0)])
    with pytest.raises(NoViolation):
        find_violating_run(ts, Objective(SAFETY, target=frozenset()))
    with pytest.raises(NoViolation):
        find_violating_run(ts, Objective(REACHABILITY, target=frozenset({0})))


@pytest.mark.parametrize("kind", [SAFETY, REACHABILITY, BUECHI, PARITY])
def test_finder_agrees_with_exhaustive_enumeration(kind):
    rng = random.Random(hash(kind) % 100000)
    checked = 0
    for _ in range(120):
        ts = random_total_system(rng, max_states=8)
        obj = random_objective(rng, ts, kind)
        expected = exhaustive_violation_exists(ts, obj)
        try:
            run = find_violating_run(ts, obj)
        except NoViolation:
            assert not expected
            continue
        checked += 1
        assert expected
        require_valid_run(ts, run)
        assert violates(ts, obj, run)
    assert checked > 20


def test_finder_deterministic():
    rng = random.Random(5)
    for _ in range(40):
        ts = random_total_system(rng)
        obj = random_objective(rng, ts)
        try:
            first = find_violating_run(ts, obj)
        except NoViolation:
            continue
        assert first == find_violating_run(ts, obj)


def test_violates_invariant_under_loop_rotation():
    # rotating the loop into the prefix preserves the verdict whenever the
    # rotated representation is still a simple lasso
    rng = random.Random(11)
    for _ in range(60):
        ts = random_total_system(rng)
        obj = random_objective(rng, ts)
        try:
            run = find_violating_run(ts, obj)
        except NoViolation:
            continue
        loop = run.loop
        for k in range(1, len(loop)):
            rotated = LassoRun(run.prefix + loop[:k], loop[k:] + loop[:k])
            try:
                require_valid_run(ts, rotated)
            except InputError:
                continue
            assert violates(ts, obj, rotated) == violates(ts, obj, run)


def test_run_positions_unique_successor():
    ts, _obj, run = recurrence_example()
    pairs = list(run.edges())
    assert len(pairs) == len(run.sequence())
    for s, t in pairs:
        assert t in ts.succ[s]
    assert pairs[-1] == (run.loop[-1], run.loop[0])


def test_found_cycle_stays_inside_the_allowed_set():
    # the shortest cycle through q0 in the whole graph runs through the
    # target q3; the loop must keep to the states that avoid it
    ts = system([f"q{i}" for i in range(5)],
                [(0, 1), (1, 2), (1, 3), (2, 4), (4, 0), (3, 0)])
    for kind in (REACHABILITY, BUECHI):
        run = find_violating_run(ts, Objective(kind, target=frozenset({3})))
        assert run == LassoRun((), (0, 1, 2, 4))


def lab_search(analysers):
    """The lab program with `analysers` analysers, expanded, and the
    objective of reaching a `success` state."""
    expanded = expand_program(parse_program(
        lab_program_text(analysers, bug=True)))
    return expanded.ts, Objective(REACHABILITY,
                                  target=expanded.labels["success"])


@pytest.mark.parametrize("analysers, lasso", [
    # the lasso of the per-candidate search, which made 236 SCC passes on
    # lab 4
    (4, LassoRun((0, 3, 23, 86), (236,))),
    (8, LassoRun((0, 3, 43, 206), (648,))),
])
def test_run_search_makes_one_scc_pass_on_the_lab_program(monkeypatch,
                                                          analysers, lasso):
    from respgame import model

    ts, obj = lab_search(analysers)
    numbered = []
    sccs = model._sccs

    def counted(*args):
        comp = sccs(*args)
        numbered.append(len(comp))
        return comp

    monkeypatch.setattr(model, "_sccs", counted)
    assert find_violating_run(ts, obj) == lasso
    # the pass numbers exactly the states reachable off the target
    off_target = set(range(len(ts))) - obj.target
    assert numbered == [len(model._reachable(ts.succ, ts.initial,
                                             allowed=off_target))]


def refuses_one_call_short(ts, obj, run):
    """`find_violating_run` finds `run` under a call-counting budget, and
    refuses when the budget is one call short of what it spent."""
    spent = Budget()
    assert find_violating_run(ts, obj, spent) == run
    assert spent.calls >= 1
    with pytest.raises(AnalysisTimeout):
        find_violating_run(ts, obj, Budget(spent.calls - 1))


@pytest.mark.parametrize("kind", [REACHABILITY, BUECHI, PARITY])
def test_run_search_stops_within_its_budget(kind):
    # the SCC passes call the deadline before numbering each state; an
    # unbounded budget changes nothing
    rng = random.Random(17)
    checked = 0
    for _ in range(40):
        ts = random_total_system(rng, max_states=8)
        obj = random_objective(rng, ts, kind)
        try:
            run = find_violating_run(ts, obj)
        except NoViolation:
            continue
        refuses_one_call_short(ts, obj, run)
        checked += 1
    assert checked > 10
    if kind == REACHABILITY:
        ts, obj = lab_search(4)
        refuses_one_call_short(ts, obj, find_violating_run(ts, obj))


def reference_buechi_run(ts, obj):
    """The Buechi run search as it was before it went through the parity
    search: the first reachable non-target state, in index order, that lies
    on a cycle avoiding the target."""
    from respgame.model import _bfs_path, _canonical_lasso, _cycle_finder, \
        _reachable, _sccs
    allowed = set(range(len(ts))) - set(obj.target)
    reach = _reachable(ts.succ, ts.initial)
    find_cycle = _cycle_finder(ts.succ, _sccs(ts.succ, allowed))
    for w in sorted(reach & allowed):
        cycle = find_cycle(w)
        if cycle is not None:
            path = _bfs_path(ts.succ, ts.initial, {w})
            return _canonical_lasso(path[:-1], cycle)
    raise NoViolation("every reachable cycle meets the target set")


def test_buechi_run_search_matches_the_reference():
    rng = random.Random(29)
    found = satisfied = 0
    for _ in range(2000):
        ts = random_total_system(rng, max_states=10)
        obj = random_objective(rng, ts, BUECHI)
        try:
            expected = reference_buechi_run(ts, obj)
        except NoViolation as exc:
            with pytest.raises(NoViolation, match=f"^{exc}$"):
                find_violating_run(ts, obj)
            satisfied += 1
            continue
        assert find_violating_run(ts, obj) == expected
        found += 1
    assert found > 1000 and satisfied > 100
