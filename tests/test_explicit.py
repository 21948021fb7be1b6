"""Explicit model documents: parsing, diagnostics, round-tripping."""

import json
import re
from pathlib import Path

import pytest

from respgame import (BUECHI, ExplicitModelDoc, InputError,
                      serialize_explicit)
from respgame.cli import run_cli
from respgame.explicit import build_system, load_explicit, parse_explicit

MODELS = Path(__file__).resolve().parent.parent / "models"


def test_parse_shipped_recurrence_model():
    doc = load_explicit(MODELS / "recurrence_demo.json")
    assert len(doc.states) == 6
    assert doc.objective_kind == BUECHI
    assert set(doc.target) == {"s2", "s5"}
    assert doc.run_prefix == ["s0", "s1", "s2"] and doc.run_loop == ["s3"]
    ts, obj, run = build_system(doc)
    assert ts.initial == 0 and obj.target == frozenset({2, 5})


def test_parse_trivial_model():
    text = json.dumps({
        "states": ["only"], "initial": "only",
        "transitions": [["only", "only"]],
        "objective": {"kind": "safety", "target": []}})
    doc = parse_explicit(text)
    assert doc.states == ["only"] and doc.target == []


def test_parse_unknown_state_in_transition():
    raw = json.loads((MODELS / "recurrence_demo.json").read_text())
    raw["transitions"].append(["s9", "s0"])
    with pytest.raises(InputError, match="unknown state 's9'"):
        parse_explicit(json.dumps(raw))


def test_parse_unknown_field_rejected():
    raw = json.loads((MODELS / "recurrence_demo.json").read_text())
    raw["comment"] = "nope"
    with pytest.raises(InputError, match="unknown fields: comment"):
        parse_explicit(json.dumps(raw))


def test_parse_syntax_error_carries_position():
    with pytest.raises(InputError, match=r"line 2, column"):
        parse_explicit('{\n  "states": [}')


def test_parse_deadlock_listed():
    text = json.dumps({
        "states": ["a", "stuck"], "initial": "a",
        "transitions": [["a", "stuck"]],
        "objective": {"kind": "safety", "target": []}})
    with pytest.raises(InputError, match="deadlocked states.*stuck"):
        parse_explicit(text)


def test_parse_groups_must_partition():
    raw = json.loads((MODELS / "groups_demo.json").read_text())
    raw["groups"] = {"left": ["s0", "s1"], "mid": ["s2"]}
    with pytest.raises(InputError, match="missing: s3"):
        parse_explicit(json.dumps(raw))
    raw["groups"] = {"left": ["s0", "s1"], "mid": ["s1", "s2", "s3"]}
    with pytest.raises(InputError, match="overlaps"):
        parse_explicit(json.dumps(raw))


def test_parse_parity_document():
    text = json.dumps({
        "states": ["a", "b"], "initial": "a",
        "transitions": [["a", "b"], ["b", "a"]],
        "objective": {"kind": "parity", "colours": {"a": 1, "b": 2}}})
    doc = parse_explicit(text)
    ts, obj, run = build_system(doc)
    assert obj.colours == (1, 2) and run is None


def test_parse_parity_missing_colour():
    text = json.dumps({
        "states": ["a", "b"], "initial": "a",
        "transitions": [["a", "b"], ["b", "a"]],
        "objective": {"kind": "parity", "colours": {"a": 1}}})
    with pytest.raises(InputError, match="colours missing for: b"):
        parse_explicit(text)


@pytest.mark.parametrize("colour", [True, -1, 1.5, "2"])
def test_parse_parity_colour_must_be_a_non_negative_integer(colour):
    text = json.dumps({
        "states": ["a", "b"], "initial": "a",
        "transitions": [["a", "b"], ["b", "a"]],
        "objective": {"kind": "parity", "colours": {"a": 1, "b": colour}}})
    with pytest.raises(InputError, match="colour of 'b' must be"):
        parse_explicit(text)


def test_parse_rejects_bad_run():
    raw = json.loads((MODELS / "recurrence_demo.json").read_text())
    raw["run"] = {"prefix": ["s0"], "loop": []}
    with pytest.raises(InputError, match="loop must be non-empty"):
        parse_explicit(json.dumps(raw))


@pytest.mark.parametrize("run", [{"prefix": 3, "loop": ["s3"]},
                                 {"loop": None}, {"loop": "s3"}])
def test_parse_rejects_run_fields_that_are_not_lists(run):
    raw = json.loads((MODELS / "recurrence_demo.json").read_text())
    raw["run"] = run
    with pytest.raises(InputError, match="must be lists of state names"):
        parse_explicit(json.dumps(raw))


@pytest.mark.parametrize("name", ["engraving_demo", "recurrence_demo",
                                  "refinement_demo", "groups_demo",
                                  "unwinnable"])
def test_roundtrip_is_fixpoint(name):
    doc = load_explicit(MODELS / f"{name}.json")
    once = serialize_explicit(doc)
    twice = serialize_explicit(parse_explicit(once))
    assert once == twice
    assert parse_explicit(once) == parse_explicit(twice)


def test_run_off_the_graph_rejected(capsys, tmp_path):
    # a -> c is not a transition, so engraving this run would invent it
    raw = {"states": ["a", "b", "c"], "initial": "a",
           "transitions": [["a", "b"], ["b", "c"], ["c", "c"], ["b", "a"]],
           "objective": {"kind": "safety", "target": ["c"]},
           "run": {"prefix": ["a"], "loop": ["c"]}}
    message = "invalid run: a -> c is not a transition (position 0)"
    with pytest.raises(InputError, match=re.escape(message)):
        parse_explicit(json.dumps(raw))
    doc = ExplicitModelDoc(states=raw["states"], initial="a",
                           transitions=[tuple(p) for p in raw["transitions"]],
                           objective_kind="safety", target=["c"],
                           run_prefix=["a"], run_loop=["c"])
    with pytest.raises(InputError, match=re.escape(message)):
        build_system(doc)
    model = tmp_path / "off_graph.json"
    model.write_text(json.dumps(raw))
    assert run_cli(["analyze", str(model)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
