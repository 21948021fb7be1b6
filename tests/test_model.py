"""Core model types: run validation, violation checks, run discovery."""

import pytest

import random

from conftest import (exhaustive_violation_exists, engraving_example, recurrence_example, parity_jump_example,
                      random_objective, random_total_system)

from respgame import (BUECHI, PARITY, REACHABILITY, SAFETY, InputError,
                      LassoRun, NoViolation, Objective, TransitionSystem,
                      find_violating_run, violates)
from respgame.model import validate_run


def test_deadlocked_model_rejected():
    with pytest.raises(InputError, match="deadlocked states.*dead"):
        TransitionSystem(["a", "dead"], 0, [(0, 0), (0, 1)])


def test_duplicate_names_rejected():
    with pytest.raises(InputError, match="duplicate"):
        TransitionSystem(["a", "a"], 0, [(0, 1), (1, 0)])


def test_successor_lists_sorted_and_unique():
    ts = TransitionSystem(["a", "b"], 0, [(0, 1), (0, 0), (0, 1), (1, 1)])
    assert ts.succ[0] == (0, 1)


def test_objective_payload_exclusive():
    with pytest.raises(InputError):
        Objective(SAFETY)
    with pytest.raises(InputError):
        Objective(PARITY, target=frozenset({0}))
    with pytest.raises(InputError):
        Objective("eventually", target=frozenset())


def test_validate_run_accepts_known_example():
    ts, _obj, run = recurrence_example()
    assert validate_run(ts, run) is None


def test_validate_run_minimal_self_loop():
    ts = TransitionSystem(["a", "b"], 0, [(0, 0), (0, 1), (1, 1)])
    assert validate_run(ts, LassoRun((), (0,))) is None


def test_validate_run_rejects_loop_repeat():
    ts, _obj, _run = recurrence_example()
    issue = validate_run(ts, LassoRun((0,), (1, 2, 1)))
    assert issue is not None
    assert issue.code == "loop-repeat"
    assert "s1" in issue.message


def test_validate_run_rejects_wrong_start_and_bad_edges():
    ts, _obj, _run = recurrence_example()
    assert validate_run(ts, LassoRun((1,), (2, 3))).code == "bad-start"
    assert validate_run(ts, LassoRun((0,), (5,))).code == "not-a-transition"
    assert validate_run(ts, LassoRun((0, 1, 0), (5,))) is not None


def test_violates_buechi_example():
    ts, obj, run = recurrence_example()
    assert violates(ts, obj, run)


def test_violates_empty_reachability_target():
    ts = TransitionSystem(["a"], 0, [(0, 0)])
    obj = Objective(REACHABILITY, target=frozenset())
    assert violates(ts, obj, LassoRun((), (0,)))


def test_violates_parity_example():
    ts, obj, run = parity_jump_example()
    assert violates(ts, obj, run)


def test_violates_buechi_ignores_prefix_visits():
    # the loop alone decides recurrence; a prefix visit is not enough
    ts = TransitionSystem(["a", "f", "c"], 0, [(0, 1), (1, 2), (2, 2)])
    obj = Objective(BUECHI, target=frozenset({1}))
    assert violates(ts, obj, LassoRun((0, 1), (2,)))


def test_find_violating_run_safety_example():
    ts, obj, _run = engraving_example()
    run = find_violating_run(ts, obj)
    assert run == LassoRun((0, 2, 4), (6,))


def test_find_violating_run_trivial_self_loop():
    ts = TransitionSystem(["a"], 0, [(0, 0)])
    run = find_violating_run(ts, Objective(REACHABILITY, target=frozenset()))
    assert run == LassoRun((), (0,))


def test_find_violating_run_buechi_cross_checked():
    ts, obj, _run = recurrence_example()
    run = find_violating_run(ts, obj)
    assert validate_run(ts, run) is None
    assert violates(ts, obj, run)
    assert not set(run.loop) & obj.target
    assert exhaustive_violation_exists(ts, obj)


def test_find_violating_run_raises_on_satisfied_objective():
    ts = TransitionSystem(["a"], 0, [(0, 0)])
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
        assert validate_run(ts, run) is None
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
            if validate_run(ts, rotated) is None:
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
    ts = TransitionSystem([f"q{i}" for i in range(5)], 0,
                          [(0, 1), (1, 2), (1, 3), (2, 4), (4, 0), (3, 0)])
    for kind in (REACHABILITY, BUECHI):
        run = find_violating_run(ts, Objective(kind, target=frozenset({3})))
        assert run == LassoRun((), (0, 1, 2, 4))


def test_run_search_makes_one_scc_pass_on_the_lab_program(monkeypatch):
    from respgame import expand_program, model, parse_program
    from respgame.generators import lab_program_text

    expanded = expand_program(parse_program(lab_program_text(4, bug=True)))
    calls = []
    sccs = model._sccs
    monkeypatch.setattr(model, "_sccs",
                        lambda *args: calls.append(args) or sccs(*args))
    obj = Objective(REACHABILITY, target=expanded.labels["success"])
    run = find_violating_run(expanded.ts, obj)
    assert len(calls) == 1
    # the lasso of the per-candidate search, which made 236 SCC passes here
    assert run == LassoRun((0, 3, 23, 86), (236,))
