"""Explicit-graph model documents: parsing, validation and serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

from .errors import InputError, decode_json, read_text
from .grouping import _partition
from .model import (OBJECTIVE_KINDS, PARITY, LassoRun, Objective,
                    TransitionSystem, _look_up, require_valid_run)

_TOP_FIELDS = {"states", "initial", "transitions", "objective", "run", "groups"}
_OBJECTIVE_FIELDS = {"kind", "target", "colours"}
_RUN_FIELDS = {"prefix", "loop"}


@dataclass
class ExplicitModelDoc:
    """Name-based surface of a model file; see README for the schema.

    Kept deliberately close to the wire format so parse -> serialize ->
    parse is a fixpoint.  `system` is not part of the document: it is the
    `build_system` result that `parse_explicit` made while validating, so
    a loader need not build it again.  It is None for a document made in
    code and is not updated when a field changes.
    """

    states: List[str]
    initial: str
    transitions: List[Tuple[str, str]]
    objective_kind: str
    target: Optional[List[str]] = None
    colours: Optional[Dict[str, int]] = None
    run_prefix: Optional[List[str]] = None
    run_loop: Optional[List[str]] = None
    groups: Optional[Dict[str, List[str]]] = None
    system: Optional[tuple] = field(default=None, init=False, compare=False,
                                    repr=False)

    def has_run(self) -> bool:
        return self.run_loop is not None


def parse_explicit(text: str) -> ExplicitModelDoc:
    """Parse and validate an explicit model document in two passes:
    `_parse_fields` checks the JSON shapes, then `build_system` the names,
    graph, objective, run and groups.  Syntax errors carry line/column;
    semantic errors name the offending state or field.
    """
    doc = _parse_fields(text)
    # built once the decoded JSON is released, so the two never coexist
    doc.system = build_system(doc)
    return doc


def _parse_fields(text: str) -> ExplicitModelDoc:
    """The document's fields with their JSON shapes checked: field names,
    types, list lengths and colour values, but no state name."""
    raw = decode_json(text)
    if not isinstance(raw, dict):
        raise InputError("document must be an object")
    unknown = set(raw) - _TOP_FIELDS
    if unknown:
        raise InputError(f"unknown fields: {', '.join(sorted(unknown))}")
    for required in ("states", "initial", "transitions", "objective"):
        if required not in raw:
            raise InputError(f"missing field {required!r}")
    states = raw["states"]
    if (not isinstance(states, list) or not states
            or not all(isinstance(s, str) for s in states)):
        raise InputError("states must be a non-empty list of names")
    if not isinstance(raw["transitions"], list):
        raise InputError("transitions must be a list of [src, dst] pairs")
    for i, pair in enumerate(raw["transitions"]):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise InputError(f"transition #{i} must be a [src, dst] pair")
    obj = raw["objective"]
    if not isinstance(obj, dict):
        raise InputError("objective must be an object")
    unknown = set(obj) - _OBJECTIVE_FIELDS
    if unknown:
        raise InputError(f"unknown objective fields: {', '.join(sorted(unknown))}")
    kind = obj.get("kind")
    if kind not in OBJECTIVE_KINDS:
        raise InputError(f"unknown objective kind {kind!r}")
    target = colours = None
    if kind == PARITY:
        colours = obj.get("colours")
        if not isinstance(colours, dict):
            raise InputError("parity objectives need a colours map")
        for name, c in colours.items():
            if isinstance(c, bool) or not isinstance(c, int) or c < 0:
                raise InputError(f"colour of {name!r} must be a non-negative integer")
        if "target" in obj:
            raise InputError("parity objectives take colours, not a target")
    else:
        target = obj.get("target")
        if not isinstance(target, list):
            raise InputError(f"{kind} objectives need a target list")
        if "colours" in obj:
            raise InputError(f"{kind} objectives take a target, not colours")
    run_prefix = run_loop = None
    if "run" in raw:
        run = raw["run"]
        if not isinstance(run, dict) or set(run) - _RUN_FIELDS:
            raise InputError("run must be an object with prefix and loop")
        run_prefix, run_loop = run.get("prefix", []), run.get("loop", [])
        if not (isinstance(run_prefix, list) and isinstance(run_loop, list)):
            raise InputError("run prefix and loop must be lists of state names")
        if not run_loop:
            raise InputError("run loop must be non-empty")
    groups = raw.get("groups")
    if "groups" in raw and not isinstance(groups, dict):
        raise InputError("groups must map block names to state lists")
    for block, members in (groups or {}).items():
        if not isinstance(members, list):
            raise InputError(f"group {block!r} must be a non-empty list")
    return ExplicitModelDoc(states=states, initial=raw["initial"],
                            transitions=list(map(tuple, raw["transitions"])),
                            objective_kind=kind, target=target,
                            colours=colours, run_prefix=run_prefix,
                            run_loop=run_loop, groups=groups)


def serialize_explicit(doc: ExplicitModelDoc) -> str:
    """Canonical rendering; parse(serialize(doc)) is structurally equal."""
    out: Dict[str, object] = {
        "states": list(doc.states),
        "initial": doc.initial,
        "transitions": [[s, t] for s, t in doc.transitions],
    }
    if doc.objective_kind == PARITY:
        out["objective"] = {"kind": doc.objective_kind,
                            "colours": {s: doc.colours[s] for s in doc.states}}
    else:
        out["objective"] = {"kind": doc.objective_kind,
                            "target": list(doc.target)}
    if doc.has_run():
        out["run"] = {"prefix": list(doc.run_prefix or []),
                      "loop": list(doc.run_loop)}
    if doc.groups is not None:
        out["groups"] = {b: list(ms) for b, ms in sorted(doc.groups.items())}
    return json.dumps(out, indent=2) + "\n"


def build_system(doc: ExplicitModelDoc):
    """Materialize (TransitionSystem, Objective, run or None) from a document.

    The one place where state names map to indices, through one
    name -> index dict that the system keeps: an unknown name, a missing
    colour, a deadlock, an invalid run or groups that do not partition the
    states are InputErrors, also in a document made in code.  A repeated
    transition gives one edge.
    """
    index = {name: i for i, name in enumerate(doc.states)}
    if len(index) != len(doc.states):
        raise InputError("state names must be unique")
    resolve = partial(_look_up, index)
    succ = [set() for _ in doc.states]
    try:
        for s, t in doc.transitions:
            succ[index[s]].add(index[t])
    except (KeyError, TypeError):
        # the first unknown end, in document order, named by its transition
        for i, pair in enumerate(doc.transitions):
            for name in pair:
                resolve(name, f"transition #{i}")
        raise
    ts = TransitionSystem(doc.states, resolve(doc.initial, "initial"),
                          succ=[tuple(sorted(ends)) for ends in succ],
                          index=index)
    if doc.objective_kind == PARITY:
        for name in doc.colours:
            resolve(name, "colours")
        missing = set(doc.states).difference(doc.colours)
        if missing:
            raise InputError("colours missing for: " + ", ".join(sorted(missing)))
        obj = Objective(PARITY, colours=tuple(doc.colours[s] for s in doc.states))
    else:
        obj = Objective(doc.objective_kind, target=frozenset(
            resolve(s, "objective target") for s in doc.target))
    run = None
    if doc.has_run():
        run = LassoRun(
            tuple(resolve(s, "run prefix") for s in doc.run_prefix or ()),
            tuple(resolve(s, "run loop") for s in doc.run_loop))
        require_valid_run(ts, run)
    if doc.groups is not None:
        _partition(doc.groups, resolve, ts.names)
    return ts, obj, run


def load_explicit(path) -> ExplicitModelDoc:
    return parse_explicit(read_text(path))
