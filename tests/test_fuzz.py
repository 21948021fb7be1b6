"""Fuzzing of both input parsers: malformed input raises InputError only.

The CLI maps InputError to exit status 2 with a one-line message; any other
exception escaping a parser would be a traceback.  Programs are expanded
under a small state cap, whose refusal (StateCapExceeded, exit 1) is the
one other outcome allowed.  Both strategies build a mostly well-formed
input and then damage it, so that the checks deep in the parsers and in
expansion are reached too.
"""

import json

import hypothesis.strategies as st
from hypothesis import given, settings

from respgame import (InputError, StateCapExceeded, expand_program,
                      parse_program)
from respgame.explicit import build_system, parse_explicit

# ---- guarded-command programs ---------------------------------------------

_INT_ATOMS = ("x", "y", "N", "0", "1", "2")
_BOOL_ATOMS = ("b", "c", "T", "f", "true", "false")
_STRAY_ATOMS = _INT_ATOMS + _BOOL_ATOMS + ("g", "zz")
_WORDS = ("const", "int", "bool", "module", "endmodule", "init", "label",
          "formula", "owner", "m", "x", "[", "]", "[go]", "(", ")", ";", ":",
          "'", "->", "..", "=", "&", "!", "-", "7", '"', "//", "\n", "@")


@st.composite
def expressions(draw, kind, depth=2):
    """Expression text of `kind`; about one atom in ten is ill-typed or unknown."""
    if draw(st.integers(min_value=0, max_value=9)) == 9:
        return draw(st.sampled_from(_STRAY_ATOMS))
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(_INT_ATOMS if kind == "int" else _BOOL_ATOMS))
    if kind == "int":
        op = draw(st.sampled_from(("+", "-", "*", "neg")))
        if op == "neg":
            return f"-({draw(expressions('int', depth - 1))})"
        operands = ("int", "int")
    else:
        op = draw(st.sampled_from(("!", "&", "|", "=", "!=", "<", ">=")))
        if op == "!":
            return f"!({draw(expressions('bool', depth - 1))})"
        if op in ("&", "|"):
            operands = ("bool", "bool")
        elif op in ("=", "!="):
            operands = (draw(st.sampled_from(("int", "bool"))),) * 2
        else:
            operands = ("int", "int")
    a, b = (draw(expressions(k, depth - 1)) for k in operands)
    return f"({a} {op} {b})"


@st.composite
def modules(draw, name, int_var, bool_var, action):
    hi = draw(st.integers(min_value=0, max_value=3))
    lines = [f"module {name}",
             f"  {int_var} : [0..{hi}] init {draw(st.integers(0, hi))};",
             f"  {bool_var} : bool init {draw(st.sampled_from(('true', 'false')))};"]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        updates = draw(st.sampled_from(("true", "int", "bool", "both")))
        if updates != "true":
            parts = []
            if updates in ("int", "both"):
                parts.append(f"({int_var}' = {draw(expressions('int'))})")
            if updates in ("bool", "both"):
                parts.append(f"({bool_var}' = {draw(expressions('bool'))})")
            updates = " & ".join(parts)
        label = draw(st.sampled_from(("", "", action)))
        lines.append(f"  [{label}] {draw(expressions('bool'))} -> {updates};")
    if draw(st.integers(min_value=0, max_value=3)) < 3:
        lines.append("  [] true -> true;")
    lines.append("endmodule")
    return lines


@st.composite
def programs(draw):
    lines = [f"const int N = {draw(st.integers(min_value=0, max_value=2))};",
             f"const bool T = {draw(st.sampled_from(('true', 'false')))};"]
    if draw(st.booleans()):
        lines.append(f"formula f = {draw(expressions('bool'))};")
    if draw(st.booleans()):
        lines.append(f"formula g = {draw(expressions('int'))};")
    lines += draw(modules("m", "x", "b", "go"))
    lines += draw(modules("n", "y", "c", draw(st.sampled_from(("go", "run")))))
    if draw(st.booleans()):
        lines.append(f'label "l" = {draw(expressions("bool"))};')
    if draw(st.booleans()):
        owner = draw(st.sampled_from("mn"))
        lines.append(f"owner {owner} = {draw(expressions('bool'))};")
    text = "\n".join(lines) + "\n"
    if draw(st.integers(min_value=0, max_value=3)) == 3:
        # splice a stray token over a few characters
        i = draw(st.integers(min_value=0, max_value=len(text)))
        j = draw(st.integers(min_value=i, max_value=min(len(text), i + 8)))
        text = text[:i] + draw(st.sampled_from(_WORDS)) + text[j:]
    return text


@given(st.one_of(programs(), programs(),
                 st.lists(st.sampled_from(_WORDS)).map(" ".join),
                 st.text(max_size=40)))
@settings(max_examples=400, deadline=None)
def test_program_parser_raises_only_input_errors(text):
    try:
        expanded = expand_program(parse_program(text), max_states=50)
    except (InputError, StateCapExceeded):
        return
    assert 1 <= len(expanded.ts) <= 50


# ---- explicit documents ---------------------------------------------------

_NAMES = ("a", "b", "c", "d")
_KINDS = ("safety", "reachability", "buechi", "parity")
_JUNK = st.one_of(st.none(), st.booleans(),
                  st.integers(min_value=-2, max_value=5),
                  st.floats(allow_nan=False, allow_infinity=False),
                  st.text(max_size=3), st.sampled_from(_NAMES + ("nope",)),
                  st.lists(st.sampled_from(_NAMES), max_size=3),
                  st.dictionaries(st.sampled_from(_NAMES),
                                  st.integers(min_value=-1, max_value=3),
                                  max_size=3))


# where damage is done: a path of keys and indices into the document
_SITES = ((), ("transitions",), ("transitions", 0), ("objective",),
          ("objective", "target"), ("objective", "colours"), ("run",),
          ("run", "prefix"), ("run", "loop"), ("groups",), ("groups", "h"))


def _damage(draw, doc):
    node = doc
    for step in draw(st.sampled_from(_SITES)):
        if not isinstance(node, (dict, list)) or step not in (
                node if isinstance(node, dict) else range(len(node))):
            break
        node = node[step]
    if isinstance(node, dict):
        key = draw(st.sampled_from(sorted(node) + ["extra"]))
        if key in node and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(_JUNK)
    elif isinstance(node, list):
        if node and draw(st.booleans()):
            node[draw(st.integers(min_value=0, max_value=len(node) - 1))] = \
                draw(_JUNK)
        else:
            node.append(draw(_JUNK))


@st.composite
def documents(draw):
    """A valid document's JSON text, then up to three damaging edits."""
    states = list(_NAMES[:draw(st.integers(min_value=1, max_value=4))])
    names = st.sampled_from(states)
    transitions = [[s, draw(names)] for s in states]
    transitions += draw(st.lists(st.lists(names, min_size=2, max_size=2),
                                 max_size=4))
    kind = draw(st.sampled_from(_KINDS))
    if kind == "parity":
        objective = {"kind": kind, "colours": {
            s: draw(st.integers(min_value=0, max_value=3)) for s in states}}
    else:
        objective = {"kind": kind,
                     "target": draw(st.lists(names, unique=True))}
    doc = {"states": states, "initial": draw(names),
           "transitions": transitions, "objective": objective}
    if draw(st.booleans()):
        doc["run"] = {"prefix": draw(st.lists(names, max_size=2)),
                      "loop": draw(st.lists(names, min_size=1, max_size=2))}
    if draw(st.booleans()):
        doc["groups"] = {"g": states[:1], "h": states[1:]}
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        _damage(draw, doc)
    text = json.dumps(doc)
    if draw(st.integers(min_value=0, max_value=7)) == 7:
        text = text[:draw(st.integers(min_value=0, max_value=len(text)))]
    return text


@given(documents())
@settings(max_examples=1000, deadline=None)
def test_explicit_parser_raises_only_input_errors(text):
    try:
        ts, _obj, _run = build_system(parse_explicit(text))
    except InputError:
        return
    assert len(ts) == len(json.loads(text)["states"])
