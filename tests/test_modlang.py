"""Guarded-command language: parsing, expansion, semantics corner cases."""

import time
from pathlib import Path

import pytest

from conftest import Budget

from respgame import (AnalysisTimeout, InputError, StateCapExceeded,
                      expand_program, parse_program)
from respgame.cli import run_cli
from respgame.explicit import build_system
from respgame.generators import generate_clouds

MODELS = Path(__file__).resolve().parent.parent / "models"

TOGGLE = """
module m1
  a : bool init false;
  [] true -> (a' = !a);
endmodule
module m2
  b : bool init false;
  [] true -> (b' = !b);
endmodule
"""

TOGGLE_WITH_IDLE = TOGGLE.replace(
    "  [] true -> (b' = !b);",
    "  [] true -> (b' = !b);\n  [] true -> true;")


def test_toggle_expands_to_four_states():
    # hand enumeration: the four boolean valuations, each flipping either
    # bit, gives eight transitions and no self-loops
    expanded = expand_program(parse_program(TOGGLE))
    ts = expanded.ts
    assert len(ts) == 4
    assert ts.names[0] == "a=false,b=false"
    assert set(ts.names) == {"a=false,b=false", "a=true,b=false",
                             "a=false,b=true", "a=true,b=true"}
    assert ts.num_edges() == 8
    assert all(s not in ts.succ[s] for s in range(4))


def test_toggle_with_idle_adds_self_loops():
    expanded = expand_program(parse_program(TOGGLE_WITH_IDLE))
    ts = expanded.ts
    assert len(ts) == 4
    assert ts.num_edges() == 12
    assert all(s in ts.succ[s] for s in range(4))


def test_single_state_self_loop_program():
    prog = parse_program("""
module only
  x : [0..0] init 0;
  [] true -> (x' = 0);
endmodule
""")
    ts = expand_program(prog).ts
    assert len(ts) == 1 and ts.succ[0] == (0,)


def test_shipped_clouds_program_isomorphic_to_generator():
    networkx = pytest.importorskip("networkx")
    from networkx.algorithms import isomorphism

    expanded = expand_program(parse_program((MODELS / "clouds.prism").read_text()))
    ts_a = expanded.ts
    target_a = expanded.labels["plus"]
    ts_b, obj_b, _run = build_system(generate_clouds(3))

    def digraph(ts, initial, target):
        g = networkx.DiGraph()
        for s in range(len(ts)):
            g.add_node(s, init=(s == initial), target=(s in target))
        g.add_edges_from(ts.edges())
        return g

    ga = digraph(ts_a, ts_a.initial, target_a)
    gb = digraph(ts_b, ts_b.initial, obj_b.target)
    matcher = isomorphism.DiGraphMatcher(
        ga, gb, node_match=isomorphism.categorical_node_match(
            ["init", "target"], [False, False]))
    assert matcher.is_isomorphic()


def test_expansion_numbering_deterministic():
    text = (MODELS / "clouds.prism").read_text()
    a = expand_program(parse_program(text)).ts
    b = expand_program(parse_program(text)).ts
    assert a.names == b.names
    assert a.succ == b.succ


def test_deterministic_program_single_successors():
    prog = parse_program("""
module counter
  x : [0..3] init 0;
  [] x < 3 -> (x' = x + 1);
  [] x = 3 -> (x' = 0);
endmodule
""")
    ts = expand_program(prog).ts
    assert all(len(ts.succ[s]) == 1 for s in range(len(ts)))


def test_snapshot_update_semantics_swap():
    prog = parse_program("""
module swapper
  x : [0..1] init 0;
  y : [0..1] init 1;
  [] true -> (x' = y) & (y' = x);
endmodule
""")
    ts = expand_program(prog).ts
    assert set(ts.names) == {"x=0,y=1", "x=1,y=0"}
    assert ts.succ[0] == (1,) and ts.succ[1] == (0,)


def test_out_of_bounds_update_names_command():
    prog = parse_program("""
module runaway
  x : [0..2] init 0;
  [] true -> (x' = x + 1);
endmodule
""")
    with pytest.raises(InputError, match=r"drives 'x' to 3.*module runaway"):
        expand_program(prog)


def test_deadlock_valuation_reported():
    prog = parse_program("""
module stuck
  x : [0..1] init 0;
  [] x = 0 -> (x' = 1);
endmodule
""")
    with pytest.raises(InputError, match="deadlock: no command enabled in state x=1"):
        expand_program(prog)


def test_state_cap():
    prog = parse_program("""
module wide
  x : [0..9] init 0;
  [] x < 9 -> (x' = x + 1);
  [] true -> (x' = 0);
endmodule
""")
    with pytest.raises(StateCapExceeded, match="cap of 4"):
        expand_program(prog, max_states=4)


def test_expansion_calls_the_deadline_once_per_state():
    prog = parse_program("".join(
        f"module m{i}\n  v{i} : bool init false;\n"
        f"  [] true -> (v{i}' = !v{i});\nendmodule\n" for i in range(6)))
    spent = Budget()
    assert len(expand_program(prog, deadline=spent).ts) == spent.calls == 64
    budget = Budget(10)
    with pytest.raises(AnalysisTimeout):
        expand_program(prog, deadline=budget)
    assert budget.calls == 11


def test_synchronisation_requires_all_owners():
    prog = parse_program("""
module one
  x : [0..2] init 0;
  [go] x = 0 -> (x' = 1);
  [] true -> true;
endmodule
module two
  y : [0..2] init 0;
  [go] y = 1 -> (y' = 2);
  [] y = 0 -> (y' = 1);
endmodule
""")
    expanded = expand_program(prog)
    ts = expanded.ts
    start = ts.index_of("x=0,y=0")
    # go is blocked at the start (module two not ready), so x stays 0
    assert all("x=0" in ts.names[t] for t in ts.succ[start])
    mid = ts.index_of("x=0,y=1")
    assert any("x=1,y=2" == ts.names[t] for t in ts.succ[mid])


def test_synchronised_combinations_multiply():
    prog = parse_program("""
module a
  x : [0..2] init 0;
  [go] x = 0 -> (x' = 1);
  [go] x = 0 -> (x' = 2);
  [] x > 0 -> (x' = 0);
  [] x = 0 -> true;
endmodule
module b
  y : [0..2] init 0;
  [go] y = 0 -> (y' = 1);
  [go] y = 0 -> (y' = 2);
  [] y > 0 -> (y' = 0);
  [] y = 0 -> true;
endmodule
""")
    ts = expand_program(prog).ts
    start = ts.index_of("x=0,y=0")
    combos = {ts.names[t] for t in ts.succ[start]}
    assert {"x=1,y=1", "x=1,y=2", "x=2,y=1", "x=2,y=2"} <= combos


def test_labels_and_owners_evaluated_per_state():
    expanded = expand_program(parse_program((MODELS / "toggle.prism").read_text()))
    ts = expanded.ts
    both = expanded.labels["both"]
    assert both == {ts.index_of("a=true,b=true")}
    left = expanded.owners["left"]
    right = expanded.owners["right"]
    assert left | right == set(range(4)) and not left & right


def test_formula_macro_and_constants():
    prog = parse_program("""
const int LIMIT = 2;
formula full = x = LIMIT;
module m
  x : [0..2] init 0;
  [] !full -> (x' = x + 1);
  [] full -> (x' = 0);
endmodule
label "maxed" = full;
""")
    expanded = expand_program(prog)
    assert expanded.labels["maxed"] == {expanded.ts.index_of("x=2")}


def test_formula_cycle_rejected():
    prog = parse_program("""
formula loop = loop;
module m
  x : [0..1] init 0;
  [] loop -> (x' = 0);
  [] true -> (x' = 1);
endmodule
""")
    with pytest.raises(InputError, match="defined in terms of itself"):
        expand_program(prog)


def test_foreign_variable_assignment_rejected():
    with pytest.raises(InputError, match="foreign variable 'y'"):
        parse_program("""
module m
  x : [0..1] init 0;
  [] true -> (y' = 1);
endmodule
module n
  y : [0..1] init 0;
  [] true -> true;
endmodule
""")


def test_parse_error_positions():
    with pytest.raises(InputError, match="line 3"):
        parse_program("module m\n  x : [0..1] init 0;\n  [] true (x' = 1);\nendmodule")


def test_overlong_integer_literal_is_an_input_error():
    with pytest.raises(InputError, match="line 2, column 15: integer literal too long"):
        parse_program("\nconst int N = " + "1" * 5000 + ";")


def _render_expr(expr, parent_prec=0) -> str:
    prec = {"|": 1, "&": 2, "=": 3, "!=": 3, "<": 3, "<=": 3, ">": 3,
            ">=": 3, "+": 4, "-": 4, "*": 5}
    tag = expr[0]
    if tag == "int":
        return str(expr[1])
    if tag == "bool":
        return "true" if expr[1] else "false"
    if tag == "var":
        return expr[1]
    if tag == "unop":
        inner = _render_expr(expr[2], 6)
        return f"{expr[1]}{inner}"
    op, a, b = expr[1], expr[2], expr[3]
    p = prec[op]
    text = f"{_render_expr(a, p)} {op} {_render_expr(b, p + 1)}"
    return f"({text})" if p < parent_prec else text


def serialize_program(prog) -> str:
    """Canonical program text; parse -> serialize -> parse is a fixpoint."""
    out = []
    for name, value in prog.constants.items():
        kind = "bool" if isinstance(value, bool) else "int"
        text = ("true" if value else "false") if kind == "bool" else str(value)
        out.append(f"const {kind} {name} = {text};")
    for name, expr in prog.formulas.items():
        out.append(f"formula {name} = {_render_expr(expr)};")
    for mod in prog.modules:
        out.append(f"module {mod.name}")
        for v in mod.variables:
            if v.kind == "bool":
                init = "true" if v.init else "false"
                out.append(f"  {v.name} : bool init {init};")
            else:
                out.append(f"  {v.name} : [{v.lo}..{v.hi}] init {v.init};")
        for cmd in mod.commands:
            action = cmd.action or ""
            guard = _render_expr(cmd.guard)
            if cmd.updates:
                updates = " & ".join(f"({var}' = {_render_expr(expr)})"
                                     for var, expr in cmd.updates)
            else:
                updates = "true"
            out.append(f"  [{action}] {guard} -> {updates};")
        out.append("endmodule")
    for name, expr in prog.labels.items():
        out.append(f'label "{name}" = {_render_expr(expr)};')
    for name, expr in prog.owners.items():
        out.append(f"owner {name} = {_render_expr(expr)};")
    return "\n".join(out) + "\n"


def test_program_roundtrip_is_fixpoint():
    for path in (MODELS / "clouds.prism", MODELS / "toggle.prism"):
        once = serialize_program(parse_program(path.read_text()))
        twice = serialize_program(parse_program(once))
        assert once == twice
        a = expand_program(parse_program(path.read_text()))
        b = expand_program(parse_program(once))
        assert a.ts.names == b.ts.names and a.ts.succ == b.ts.succ


def test_program_roundtrip_preserves_expression_shape():
    text = """
const int N = 2 + 1;
module m
  x : [0..5] init 0;
  [] !(x = N) & (x < 4 | x = 5) -> (x' = x + 1);
  [] x = N -> (x' = 0);
  [] x - (1 - 1) >= 4 -> (x' = 0);
endmodule
label "top" = x = N;
"""
    once = serialize_program(parse_program(text))
    twice = serialize_program(parse_program(once))
    assert once == twice
    a = expand_program(parse_program(text))
    b = expand_program(parse_program(once))
    assert a.ts.succ == b.ts.succ and a.labels == b.labels


# Exact error texts of expression evaluation.  Each is raised when the
# expression is evaluated, not when it is parsed or compiled; errors inside
# a guard carry the command's description.

TWO_VARS = """
module m
  x : [0..2] init 0;
  b : bool init false;
{commands}endmodule
{extra}"""


def _expansion_error(commands, extra="", prefix=""):
    text = prefix + TWO_VARS.format(commands=commands, extra=extra)
    with pytest.raises(InputError) as info:
        expand_program(parse_program(text))
    return str(info.value)


GUARD = " in [] command of module m (line 5)"


@pytest.mark.parametrize("guard, message", [
    ("y = 0", "unknown identifier 'y'"),
    ("!x", "operator '!' needs boolean operands"),
    ("-b = 0", "operator '-' needs integer operands"),
    ("x + b = 0", "operator '+' needs integer operands"),
    ("b < 1", "operator '<' needs integer operands"),
    ("x & true", "operator '&' needs boolean operands"),
    ("x = b", "comparison = mixes boolean and integer"),
    ("true != 1", "comparison != mixes boolean and integer"),
    # no short circuit: the right operand of & and | is always evaluated
    ("false & (1 + true)", "operator '+' needs integer operands"),
    ("true | (y = 0)", "unknown identifier 'y'"),
    # operands are evaluated left to right, before the operator's check
    ("(b + 1) = (y & 2)", "operator '+' needs integer operands"),
    ("y & (x + b)", "unknown identifier 'y'"),
])
def test_guard_error_text(guard, message):
    commands = f"  [] {guard} -> true;\n  [] true -> true;\n"
    assert _expansion_error(commands) == message + GUARD


def test_non_boolean_guard_error_has_no_command_suffix():
    commands = "  [] x + 1 -> true;\n"
    assert _expansion_error(commands) == "operator 'guard' needs boolean operands"


def test_update_error_texts():
    assert _expansion_error("  [] true -> (x' = x + 1);\n") == (
        "update drives 'x' to 3, outside [0..2], "
        "in [] command of module m (line 5)")
    assert _expansion_error("  [] true -> (x' = true);\n") == (
        "operator 'update' needs integer operands")
    assert _expansion_error("  [] true -> (b' = 1);\n") == (
        "operator 'update' needs boolean operands")
    # update expressions carry no command suffix
    assert _expansion_error("  [] true -> (x' = y);\n") == (
        "unknown identifier 'y'")


def test_non_boolean_label_and_owner_error_texts():
    idle = "  [] true -> true;\n"
    assert _expansion_error(idle, extra='label "l" = x + 1;\n') == (
        "operator \"label 'l'\" needs boolean operands")
    assert _expansion_error(idle, extra="owner m = 3;\n") == (
        "operator \"owner 'm'\" needs boolean operands")
    assert _expansion_error(idle, extra='label "l" = y;\n') == (
        "unknown identifier 'y'")


def test_formula_cycle_error_text_names_first_repeat():
    commands = "  [] f -> true;\n  [] true -> true;\n"
    prefix = "formula f = g;\nformula g = h;\nformula h = g;\n"
    assert _expansion_error(commands, prefix=prefix) == (
        "formula 'g' is defined in terms of itself"
        " in [] command of module m (line 8)")


def test_formula_errors_carry_the_guard_suffix():
    commands = "  [] f = 1 -> true;\n  [] true -> true;\n"
    assert _expansion_error(commands, prefix="formula f = x + true;\n") == (
        "operator '+' needs integer operands"
        " in [] command of module m (line 6)")


# f(k) is (10^9)^(2^k): f9 is the first past the int-to-str digit limit
SQUARING_CHAIN = "const int N = 1000000000;\nformula f0 = N;\n" + "".join(
    f"formula f{k} = f{k - 1}*f{k - 1};\n" for k in range(1, 25))


def test_unevaluated_errors_stay_silent():
    # an update of a never-enabled command, an unused cyclic formula and a
    # formula too long to print are never evaluated, so none is reported
    text = "formula loop = loop;\n" + SQUARING_CHAIN + TWO_VARS.format(
        commands="  [] false -> (x' = zz) & (b' = loop);\n"
                 "  [] false -> (x' = f24);\n  [] true -> true;\n", extra="")
    expanded = expand_program(parse_program(text))
    assert expanded.ts.names == ("x=0,b=false",)


def test_formula_used_twice_per_level_compiles_in_linear_time():
    # f60 stands for 2^60 copies of x; inlined as a tree it would never
    # finish compiling, though the update using it is never evaluated
    chain = "".join(f"formula f{k} = f{k - 1} + f{k - 1};\n"
                    for k in range(1, 61))
    text = "formula f0 = x;\n" + chain + TWO_VARS.format(
        commands="  [] false -> (x' = f60);\n  [] true -> true;\n", extra="")
    assert len(expand_program(parse_program(text)).ts) == 1


def test_formula_used_twice_per_level_evaluates_in_linear_time():
    # an enabled guard reads f40, 2^40 copies of x; each formula remembers
    # its value for the valuation at hand, so every level is evaluated once
    chain = "".join(f"formula f{k} = f{k - 1} + f{k - 1};\n"
                    for k in range(1, 41))
    text = "formula f0 = x;\n" + chain + TWO_VARS.format(
        commands="  [] f40 >= 0 & x < 2 -> (x' = x + 1);\n"
                 "  [] x = 2 -> (x' = 0);\n", extra="")
    start = time.monotonic()
    assert len(expand_program(parse_program(text)).ts) == 3
    assert time.monotonic() - start < 1


def test_variable_sharing_a_name_with_constant_or_formula_is_refused():
    # the variable used to shadow them silently
    for prefix, message in [
            ("const int x = 5;\n", "line 4: variable 'x' already declared"),
            ("formula b = zz;\n", "line 5: variable 'b' already declared")]:
        text = prefix + TWO_VARS.format(commands="  [] true -> true;\n",
                                        extra="")
        with pytest.raises(InputError) as info:
            parse_program(text)
        assert str(info.value) == message


@pytest.mark.parametrize("prefix, extra, message", [
    ("const int N = 1;\nconst int N = 2;\n", "",
     "line 2: constant 'N' already declared"),
    ("formula f = 1;\nformula f = 2;\n", "",
     "line 2: formula 'f' already declared"),
    ("const int f = 1;\nformula f = 2;\n", "",
     "line 2: formula 'f' already declared"),
    ("", "const int x = 1;\n", "line 7: constant 'x' already declared"),
    ("", "formula b = true;\n", "line 7: formula 'b' already declared"),
    ("", 'label "l" = true;\nlabel l = false;\n',
     "line 8: label 'l' already declared"),
    ("", "owner m = true;\nowner m = false;\n",
     "line 8: owner 'm' already declared"),
])
def test_repeated_declaration_is_refused(prefix, extra, message):
    # each used to pass, the last declaration winning
    text = prefix + TWO_VARS.format(commands="  [] true -> true;\n",
                                    extra=extra)
    with pytest.raises(InputError) as info:
        parse_program(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text, message", [
    ("module m\n  x : [0..1\u00b2] init 0;",
     "line 2, column 12: unexpected character '\u00b2'"),
    ("const int N = \u00b2;", "line 1, column 15: unexpected character '\u00b2'"),
])
def test_non_decimal_digit_is_an_unexpected_character(text, message):
    # '\u00b2' is a digit to str.isdigit but no decimal digit; read as one,
    # it made an integer literal that int() refused as too long
    with pytest.raises(InputError) as info:
        parse_program(text + "\n  [] true -> true;\nendmodule\n")
    assert str(info.value) == message


def test_string_ends_on_its_line():
    # a string running on to the next line shifted every later line number
    with pytest.raises(InputError) as info:
        parse_program('label "a\nb" = true;\nmodule m\n  x : [0..1] init 2;\n')
    assert str(info.value) == "line 1, column 7: unterminated string"


@pytest.mark.parametrize("text, message", [
    ("const int N = 1 + true;", "operator '+' needs integer operands"),
    ("const bool N = 3;", "operator 'const' needs boolean operands"),
    ("formula f = 1;\nconst int N = f;", "unknown identifier 'f'"),
    ("module m\n  x : [0..true] init 0;", "operator 'range' needs integer operands"),
    ("module m\n  x : [0..2] init false;", "operator 'init' needs integer operands"),
    ("module m\n  x : bool init 1;", "operator 'init' needs boolean operands"),
    ("module m\n  x : [0..2] init q;", "unknown identifier 'q'"),
])
def test_parse_time_evaluation_error_text(text, message):
    with pytest.raises(InputError) as info:
        parse_program(text + "\n  [] true -> true;\nendmodule\n")
    assert str(info.value) == message


def test_constant_too_long_to_print_is_an_input_error():
    # 500 factors of 10^9 pass the literal check but not int-to-str
    text = ("const int N = 1000000000;\n"
            "const int M = " + "*".join(["N"] * 500) + ";\n"
            "module m\n  x : [0..M] init M;\n  [] true -> (x' = x);\nendmodule\n")
    with pytest.raises(InputError, match="line 2: const 'M' is a value with "
                                         "too many digits"):
        expand_program(parse_program(text))


def test_formula_chain_too_long_to_print_is_refused_promptly(capsys,
                                                             tmp_path):
    # each level squares 10^9; folding on would take minutes at 24 levels,
    # but f9 is the first past the digit limit and refuses on evaluation
    model = tmp_path / "chain.prism"
    model.write_text(SQUARING_CHAIN + "module m\n  x : [0..1] init 0;\n"
                                      "  [] x < f24 -> (x' = 0);\nendmodule\n")
    start = time.monotonic()
    code = run_cli(["analyze", str(model), "--objective", "reachability",
                    "--target", "x=1"])
    assert time.monotonic() - start < 1
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: formula 'f9' is a value with too many "
                          "digits to print in [] command of module m")


def test_update_too_long_to_print_names_the_command():
    prog = parse_program("const int N = 1000000000;\n"
                         "module big\n  x : [0..1] init 0;\n"
                         "  [] true -> (x' = " + "*".join(["N"] * 500) + ");\n"
                         "endmodule\n")
    with pytest.raises(InputError, match="drives 'x' to a value with too many "
                                         "digits to print.*module big"):
        expand_program(prog)
