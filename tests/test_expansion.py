"""Plan-cached program expansion against a reference that evaluates every
guard at every state.

`expand_program` keeps, per module, the enabled commands under the values
of the variables that module's guards read, and evaluates the guards again
only for a valuation of those variables it has not met.  `reference_expand`
is the uncached loop over the same compiled closures: same breadth-first
order, same updates, same errors.  The two must give equal models, or raise
the same error with the same text.
"""

from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings

from respgame import InputError, StateCapExceeded, parse_program
from respgame.generators import lab_program_text
from respgame.modlang import (DEFAULT_STATE_CAP, ExpandedModel, _Compiler,
                              _shown, expand_program)
from conftest import system
from test_fuzz import programs


def reference_expand(prog, max_states=DEFAULT_STATE_CAP):
    """Every guard of every module evaluated at every reachable state."""
    variables = prog.variables()
    if not variables:
        raise InputError("program declares no variables")
    var_index = {v.name: i for i, v in enumerate(variables)}
    owning = {}
    for mod in prog.modules:
        for cmd in mod.commands:
            if cmd.action is not None:
                mods = owning.setdefault(cmd.action, [])
                if mod.name not in mods:
                    mods.append(mod.name)
    compiler = _Compiler(prog.constants, prog.formulas, variables)
    compiled = []
    for mod in prog.modules:
        rows = []
        for cmd in mod.commands:
            guard = compiler.closure(cmd.guard, "bool", "guard",
                                     where=f" in {cmd.describe()}")[0]
            updates = []
            for var, expr in cmd.updates:
                slot = var_index[var]
                decl = variables[slot]
                updates.append((slot, compiler.closure(expr, decl.kind,
                                                       "update")[0],
                                decl.lo, decl.hi))
            rows.append((cmd, guard, updates))
        compiled.append((mod.name, rows))

    def apply_updates(valuation, chosen):
        new = list(valuation)
        for cmd, _, updates in chosen:
            for slot, value_of, lo, hi in updates:
                value = value_of(valuation)
                if not lo <= value <= hi:
                    raise InputError(
                        f"update drives {variables[slot].name!r} to "
                        f"{_shown(value)}, "
                        f"outside [{lo}..{hi}], in {cmd.describe()}")
                new[slot] = value
        return tuple(new)

    def successors(valuation):
        out = []
        enabled_by_action = {}
        for mod_name, rows in compiled:
            for row in rows:
                cmd, guard, _ = row
                if not guard(valuation):
                    continue
                if cmd.action is None:
                    out.append(apply_updates(valuation, (row,)))
                else:
                    enabled = enabled_by_action.setdefault(cmd.action, {})
                    enabled.setdefault(mod_name, []).append(row)
        for action, owners_ in sorted(owning.items()):
            enabled = enabled_by_action.get(action, {})
            if set(enabled) != set(owners_):
                continue
            for chosen in product(*[enabled[m] for m in owners_]):
                out.append(apply_updates(valuation, chosen))
        return out

    def name_of(valuation):
        return ",".join(
            f"{v.name}=" + (("true" if value else "false")
                            if v.kind == "bool" else str(value))
            for v, value in zip(variables, valuation))

    def over_cap():
        return StateCapExceeded(f"state space exceeds the cap of {max_states}")

    init = tuple(v.init for v in variables)
    if max_states < 1:
        raise over_cap()
    index = {init: 0}
    order = [init]
    adjacency = []
    for valuation in order:  # grows as states are discovered: BFS order
        succs = successors(valuation)
        if not succs:
            raise InputError(
                f"deadlock: no command enabled in state {name_of(valuation)}")
        row = []
        for nxt in succs:
            if nxt not in index:
                if len(index) >= max_states:
                    raise over_cap()
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
        adjacency.append(sorted(set(row)))
    ts = system([name_of(v) for v in order],
                [(s, t) for s, row in enumerate(adjacency)
                 for t in row])

    def states(expr, what):
        holds = compiler.closure(expr, "bool", what)[0]
        return frozenset(i for i, v in enumerate(order) if holds(v))

    labels = {label: states(expr, f"label {label!r}")
              for label, expr in prog.labels.items()}
    owners = {mod_name: states(expr, f"owner {mod_name!r}")
              for mod_name, expr in prog.owners.items()}
    return ExpandedModel(ts, variables, order, labels, owners)


def _outcome(expand, text, max_states=DEFAULT_STATE_CAP):
    """What `expand` makes of `text`: the model's parts, or the error."""
    try:
        expanded = expand(parse_program(text), max_states=max_states)
    except (InputError, StateCapExceeded) as exc:
        return type(exc), str(exc)
    ts = expanded.ts
    return (ts.names, ts.succ, expanded.valuations, expanded.labels,
            expanded.owners)


def _same_as_reference(text, max_states=DEFAULT_STATE_CAP):
    got = _outcome(expand_program, text, max_states)
    assert got == _outcome(reference_expand, text, max_states)
    return got


@given(programs())
@settings(max_examples=400, deadline=None)
def test_expansion_matches_the_reference(text):
    _same_as_reference(text, max_states=50)


@pytest.mark.parametrize("analysers", [2, 3, 4, 5])
@pytest.mark.parametrize("bug", [False, True])
def test_lab_programs_match_the_reference(analysers, bug):
    names = _same_as_reference(lab_program_text(analysers, bug))[0]
    assert len(names) > 100


def test_error_first_reached_deep_on_a_cached_plan():
    # acc's guard reads no variable, so every state after the first reuses
    # its plan; its update leaves the range only once t has counted up
    # three times, and the error names that state's command and value
    text = """
module clock
  t : [0..3] init 0;
  [] t < 3 -> (t' = t + 1);
  [] t = 3 -> (t' = 0);
endmodule
module acc
  s : [0..4] init 0;
  [] true -> (s' = s + t);
endmodule
"""
    kind, message = _same_as_reference(text)
    assert kind is InputError
    assert message == ("update drives 's' to 6, outside [0..4], "
                       "in [] command of module acc (line 9)")


def test_guard_error_is_met_where_the_guard_is_first_evaluated():
    # kinds are static, so a guard fails at every valuation or at none: the
    # error comes at the initial state, though the guard could hold only
    # at t = 3, deep in the search
    text = """
module clock
  t : [0..3] init 0;
  [] t < 3 -> (t' = t + 1);
  [] t = 3 -> (t' = 0);
endmodule
module acc
  s : [0..4] init 0;
  [] true -> true;
  [] t = 3 & s + true > 0 -> (s' = 0);
endmodule
"""
    assert _same_as_reference(text) == (
        InputError, "operator '+' needs integer operands "
                    "in [] command of module acc (line 10)")


def test_update_error_before_a_failing_guard_in_the_same_module():
    # the first command's update fails before the second guard is evaluated
    text = """
module m
  x : [0..1] init 1;
  [] true -> (x' = x + 1);
  [] 1 + true > 0 -> true;
endmodule
"""
    kind, message = _same_as_reference(text)
    assert kind is InputError and message.startswith("update drives 'x' to 2")


def test_synchronised_update_out_of_range_only_with_every_owner():
    # `go` adds 2 to x, which leaves [0..2] from x = 1; b enables `go` only
    # at y = 1, so the first failing state is x=1,y=1, not x=1,y=0
    text = """
module a
  x : [0..2] init 0;
  [go] true -> (x' = x + 2);
  [] x < 2 -> (x' = x + 1);
endmodule
module b
  y : [0..1] init 0;
  [go] y = 1 -> (y' = 0);
  [] y = 0 -> (y' = 1);
endmodule
"""
    kind, message = _same_as_reference(text)
    assert kind is InputError
    assert message == ("update drives 'x' to 3, outside [0..2], "
                       "in [go] command of module a (line 4)")


def test_modules_sharing_a_name_are_refused():
    # as one module, the two `a`s fired each [go] command alone, stepping
    # to x=1,y=0 and x=0,y=1; named apart, they synchronise
    text = """
module a
  x : [0..1] init 0;
  [go] true -> (x' = 1 - x);
endmodule
module {second}
  y : [0..1] init 0;
  [go] true -> (y' = 1 - y);
endmodule
"""
    assert _same_as_reference(text.format(second="a")) == (
        InputError, "line 6: module 'a' already declared")
    names, succ = _same_as_reference(text.format(second="b"))[:2]
    assert names == ("x=0,y=0", "x=1,y=1") and succ == ((1,), (0,))


def _guard_calls(monkeypatch):
    """A counter of guard closure calls, for programs compiled from now on."""
    calls = [0]
    closure = _Compiler.closure

    def counting(self, expr, kind, op, where=""):
        fn, slots = closure(self, expr, kind, op, where)
        if op != "guard":
            return fn, slots

        def counted(valuation):
            calls[0] += 1
            return fn(valuation)
        return counted, slots

    monkeypatch.setattr(_Compiler, "closure", counting)
    return calls


def _guard_variables(expr):
    tag = expr[0]
    if tag == "var":
        return {expr[1]}
    if tag in ("unop", "binop"):
        return set().union(*map(_guard_variables, expr[2:]))
    return set()


def test_guards_are_evaluated_once_per_projection(monkeypatch):
    calls = _guard_calls(monkeypatch)
    prog = parse_program(lab_program_text(4, bug=True))
    expanded = expand_program(prog)
    slots = {v.name: i for i, v in enumerate(expanded.variables)}
    bound = 0
    for mod in prog.modules:
        read = sorted(slots[name] for cmd in mod.commands
                      for name in _guard_variables(cmd.guard) if name in slots)
        projections = {tuple(v[i] for i in read) for v in expanded.valuations}
        bound += len(projections) * len(mod.commands)
    commands = sum(len(mod.commands) for mod in prog.modules)
    assert len(expanded.valuations) * commands == 3083 * 49
    assert 0 < calls[0] <= bound < 3083 * 49 // 100


def test_guards_reading_every_variable_are_evaluated_at_every_state(
        monkeypatch):
    calls = _guard_calls(monkeypatch)
    prog = parse_program("""
module counter
  x : [0..500] init 0;
  [] x < 500 -> (x' = x + 1);
  [] x = 500 -> (x' = 0);
endmodule
""")
    assert len(expand_program(prog).ts) == 501
    assert calls[0] == 501 * 2


def test_synchronised_update_out_of_range_never_fires():
    # `go` would drive x to 5, but b never enables it, so the action never
    # fires and its update is never evaluated
    text = """
module a
  x : [0..1] init 0;
  [go] true -> (x' = x + 5);
  [] true -> (x' = 1 - x);
endmodule
module b
  y : [0..1] init 0;
  [go] y = 2 -> true;
  [] true -> (y' = 1 - y);
endmodule
"""
    names = _same_as_reference(text)[0]
    assert names == ("x=0,y=0", "x=1,y=0", "x=0,y=1", "x=1,y=1")


def test_guard_error_of_a_later_module_before_a_synchronised_update():
    # `go` fires at the initial state and its update leaves [0..0], but the
    # synchronised update is evaluated only after every module's guards,
    # and n's guard is an integer
    text = """
const int N = 1;
module m
  b : bool init true;
  x : [0..0] init 0;
  [go] !(!(b)) -> (x' = -(-(N)));
endmodule
module n
  y : bool init false;
  [] x -> true;
endmodule
"""
    assert _same_as_reference(text) == (
        InputError, "operator 'guard' needs boolean operands")


def _predicate_calls(monkeypatch):
    """Calls of each label and owner closure, by its `what name` tag, for
    programs compiled from now on."""
    calls = Counter()
    closure = _Compiler.closure

    def counting(self, expr, kind, op, where=""):
        fn, slots = closure(self, expr, kind, op, where)
        if not op.startswith(("label ", "owner ")):
            return fn, slots

        def counted(valuation):
            calls[op] += 1
            return fn(valuation)
        return counted, slots

    monkeypatch.setattr(_Compiler, "closure", counting)
    return calls


def test_labels_and_owners_are_evaluated_once_per_projection(monkeypatch):
    calls = _predicate_calls(monkeypatch)
    prog = parse_program(lab_program_text(4, bug=True))
    expanded = expand_program(prog)
    slots = {v.name: i for i, v in enumerate(expanded.variables)}
    predicates = [("label", prog.labels), ("owner", prog.owners)]
    for what, exprs in predicates:
        for name, expr in exprs.items():
            read = sorted(slots[v] for v in _guard_variables(expr)
                          if v in slots)
            projections = {tuple(v[i] for i in read)
                           for v in expanded.valuations}
            assert 0 < calls[f"{what} {name!r}"] <= len(projections) < 30
    assert len(calls) == 6 and len(expanded.valuations) == 3083


def test_predicates_reading_every_variable_are_evaluated_at_every_state(
        monkeypatch):
    calls = _predicate_calls(monkeypatch)
    prog = parse_program("""
module counter
  x : [0..500] init 0;
  [] x < 500 -> (x' = x + 1);
  [] x = 500 -> (x' = 0);
endmodule
label "top" = x = 500;
owner counter = x >= 0;
""")
    expanded = expand_program(prog)
    assert expanded.labels["top"] == {500}
    assert calls == {"label 'top'": 501, "owner 'counter'": 501}
