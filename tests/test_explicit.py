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


# ---- one fault per document: the exact message ----------------------------

def _base():
    return {"states": ["a", "b", "c"], "initial": "a",
            "transitions": [["a", "b"], ["b", "c"], ["c", "c"]],
            "objective": {"kind": "safety", "target": ["c"]},
            "run": {"prefix": ["a", "b"], "loop": ["c"]},
            "groups": {"g": ["a"], "h": ["b", "c"]}}


def _set(path, value):
    """An edit that sets the field at `path` (keys and indices) to `value`,
    or deletes it when `value` is _DELETE."""
    def edit(doc):
        node = doc
        for step in path[:-1]:
            node = node[step]
        if value is _DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return edit


_DELETE = object()
_PARITY = {"kind": "parity", "colours": {"a": 1, "b": 1, "c": 2}}

MALFORMED = [
    ("not-an-object", None, "document must be an object"),
    ("unknown-top-field", _set(("comment",), "x"), "unknown fields: comment"),
    ("missing-initial", _set(("initial",), _DELETE),
     "missing field 'initial'"),
    ("states-not-a-list", _set(("states",), "a"),
     "states must be a non-empty list of names"),
    ("states-empty", _set(("states",), []),
     "states must be a non-empty list of names"),
    ("state-not-a-string", _set(("states", 2), 3),
     "states must be a non-empty list of names"),
    ("duplicate-states", _set(("states",), ["a", "b", "c", "b"]),
     "state names must be unique"),
    ("initial-unknown", _set(("initial",), "z"),
     "unknown state 'z' in initial"),
    ("initial-a-list", _set(("initial",), ["a"]),
     "unknown state ['a'] in initial"),
    ("transitions-not-a-list", _set(("transitions",), {}),
     "transitions must be a list of [src, dst] pairs"),
    ("transition-too-long", _set(("transitions", 1), ["b", "c", "a"]),
     "transition #1 must be a [src, dst] pair"),
    ("transition-a-string", _set(("transitions", 1), "bc"),
     "transition #1 must be a [src, dst] pair"),
    ("transition-unknown-end", _set(("transitions", 0), ["s9", "a"]),
     "unknown state 's9' in transition #0"),
    ("transition-integer-ends", _set(("transitions", 0), [0, 1]),
     "unknown state 0 in transition #0"),
    ("objective-not-an-object", _set(("objective",), ["safety"]),
     "objective must be an object"),
    ("unknown-objective-field", _set(("objective", "weight"), 1),
     "unknown objective fields: weight"),
    ("unknown-objective-kind", _set(("objective", "kind"), "liveness"),
     "unknown objective kind 'liveness'"),
    ("target-not-a-list", _set(("objective", "target"), "c"),
     "safety objectives need a target list"),
    ("target-unknown", _set(("objective", "target"), ["z"]),
     "unknown state 'z' in objective target"),
    ("target-holds-a-dict", _set(("objective", "target"), [{}]),
     "unknown state {} in objective target"),
    ("target-with-colours", _set(("objective", "colours"), {"a": 1}),
     "safety objectives take a target, not colours"),
    ("colours-not-a-map", _set(("objective",), {"kind": "parity",
                                                "colours": [1, 1, 2]}),
     "parity objectives need a colours map"),
    ("colour-unknown-key", _set(("objective",), {
        "kind": "parity", "colours": {"a": 1, "b": 1, "c": 2, "z": 0}}),
     "unknown state 'z' in colours"),
    ("colour-missing", _set(("objective",), {
        "kind": "parity", "colours": {"a": 1, "b": 1}}),
     "colours missing for: c"),
    ("colour-negative", _set(("objective",), {
        "kind": "parity", "colours": {"a": 1, "b": -1, "c": 2}}),
     "colour of 'b' must be a non-negative integer"),
    ("colour-a-string", _set(("objective",), {
        "kind": "parity", "colours": {"a": 1, "b": "1", "c": 2}}),
     "colour of 'b' must be a non-negative integer"),
    ("parity-with-target", _set(("objective",), dict(_PARITY, target=[])),
     "parity objectives take colours, not a target"),
    ("run-not-an-object", _set(("run",), ["a"]),
     "run must be an object with prefix and loop"),
    ("run-unknown-field", _set(("run", "start"), "a"),
     "run must be an object with prefix and loop"),
    ("run-prefix-not-a-list", _set(("run", "prefix"), "a"),
     "run prefix and loop must be lists of state names"),
    ("run-prefix-holds-null", _set(("run", "prefix"), [None, "b"]),
     "unknown state None in run prefix"),
    ("run-loop-unknown", _set(("run", "loop"), ["z"]),
     "unknown state 'z' in run loop"),
    ("run-loop-empty", _set(("run", "loop"), []),
     "run loop must be non-empty"),
    ("run-off-the-graph", _set(("run",), {"prefix": ["a"], "loop": ["c"]}),
     "invalid run: a -> c is not a transition (position 0)"),
    ("run-not-from-initial", _set(("run",), {"prefix": ["b"], "loop": ["c"]}),
     "invalid run: run starts in b, not the initial state a (position 0)"),
    ("deadlock", lambda doc: (doc["transitions"].pop(), doc.pop("run")),
     "deadlocked states (no outgoing transition): c"),
    ("groups-not-a-map", _set(("groups",), [["a"], ["b", "c"]]),
     "groups must map block names to state lists"),
    ("groups-empty", _set(("groups",), {}),
     "groups do not partition the states; missing: a, b, c"),
    ("group-a-string", _set(("groups", "g"), "a"),
     "group 'g' must be a non-empty list"),
    ("group-empty", _set(("groups",), {"g": [], "h": ["a", "b", "c"]}),
     "group 'g' must be a non-empty list"),
    ("group-unknown-member", _set(("groups", "g"), ["x"]),
     "unknown state 'x' in group 'g'"),
    ("group-integer-member", _set(("groups", "g"), [1]),
     "unknown state 1 in group 'g'"),
    ("group-nested-member", _set(("groups", "g"), [["a"]]),
     "unknown state ['a'] in group 'g'"),
    ("groups-overlap", _set(("groups", "g"), ["a", "b"]),
     "group 'h' overlaps: b"),
    ("groups-do-not-cover", _set(("groups", "h"), ["b"]),
     "groups do not partition the states; missing: c"),
]


@pytest.mark.parametrize("edit, message", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_document_message(edit, message):
    doc = _base()
    if edit is None:
        doc = [doc]
    else:
        edit(doc)
    with pytest.raises(InputError) as info:
        parse_explicit(json.dumps(doc))
    assert str(info.value) == message


def test_base_document_is_well_formed():
    ts, obj, run = parse_explicit(json.dumps(_base())).system
    assert ts.names == ("a", "b", "c") and run.loop == (2,)


def _code_made(**fields):
    doc = dict(states=["a", "b"], initial="a",
               transitions=[("a", "b"), ("b", "b")], objective_kind="safety",
               target=["b"], run_prefix=["a"], run_loop=["b"])
    doc.update(fields)
    return ExplicitModelDoc(**doc)


@pytest.mark.parametrize("fields, message", [
    (dict(initial="z"), "unknown state 'z' in initial"),
    (dict(transitions=[("a", "b"), ("b", "z")]),
     "unknown state 'z' in transition #1"),
    (dict(target=["z"]), "unknown state 'z' in objective target"),
    (dict(run_loop=["z"]), "unknown state 'z' in run loop"),
    (dict(objective_kind="parity", target=None, colours={"a": 1}),
     "colours missing for: b"),
    (dict(groups={"g": ["a"], "h": ["z"]}), "unknown state 'z' in group 'h'"),
])
def test_build_system_checks_a_document_made_in_code(fields, message):
    with pytest.raises(InputError) as info:
        build_system(_code_made(**fields))
    assert str(info.value) == message


def test_repeated_edge_gives_one_successor():
    doc = _base()
    doc["transitions"] += [["a", "b"], ["c", "c"]]
    ts = parse_explicit(json.dumps(doc)).system[0]
    assert ts.succ == ((1,), (2,), (2,)) and ts.num_edges() == 3


@pytest.mark.parametrize("end", [["a"], {"a": 1}])
def test_unhashable_transition_end_names_the_first_bad_transition(end):
    # the first bad end is unhashable, a later one merely unknown; the
    # message names the first in document order, as each end is resolved
    doc = _base()
    doc["transitions"] = [["a", "b"], ["b", end], ["c", "z"], ["c", "c"]]
    with pytest.raises(InputError) as info:
        parse_explicit(json.dumps(doc))
    assert str(info.value) == f"unknown state {end!r} in transition #1"
    doc["transitions"][1:3] = [["c", "z"], ["b", end]]
    with pytest.raises(InputError) as info:
        parse_explicit(json.dumps(doc))
    assert str(info.value) == "unknown state 'z' in transition #1"
