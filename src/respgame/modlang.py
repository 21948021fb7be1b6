"""Guarded-command modelling language: parser and explicit-state expansion.

The accepted subset has integer/boolean constants, modules with bounded
integer and boolean variables, guarded commands with optional synchronising
action labels, named formulas (macros), labels and per-module owner
predicates.  No probabilities, no clocks, no unbounded variables.  The full
grammar is documented in docs/lang.md.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .errors import InputError, read_text
from .model import TransitionSystem

DEFAULT_STATE_CAP = 10_000_000

_PUNCT = ("->", "..", "!=", "<=", ">=", "(", ")", "[", "]", ";", ":", "'",
          "=", "<", ">", "+", "-", "*", "&", "|", "!")
_KEYWORDS = {"const", "int", "bool", "module", "endmodule", "init", "label",
             "formula", "owner", "true", "false"}


@dataclass(frozen=True)
class Token:
    kind: str  # ident | int | string | punct | keyword | eof
    text: str
    line: int
    col: int


def _tokenize(text: str) -> List[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise InputError(f"line {line}, column {col}: unterminated string")
            tokens.append(Token("string", text[i + 1:j], line, col))
            col += j - i + 1
            i = j + 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "keyword" if word in _KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(Token("punct", p, line, col))
                col += len(p)
                i += len(p)
                break
        else:
            raise InputError(f"line {line}, column {col}: unexpected character {c!r}")
    tokens.append(Token("eof", "", line, col))
    return tokens


# expression AST: ("int", v) ("bool", v) ("var", name) ("unop", op, e)
# ("binop", op, a, b)

_COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.take()
        if tok.text != text:
            raise InputError(
                f"line {tok.line}, column {tok.col}: expected {text!r}, "
                f"found {tok.text!r}")
        return tok

    def expect_kind(self, kind: str) -> Token:
        tok = self.take()
        if tok.kind != kind:
            raise InputError(
                f"line {tok.line}, column {tok.col}: expected {kind}, "
                f"found {tok.text!r}")
        return tok

    # expression parsing, loosest binding first
    def parse_expr(self):
        return self._parse_or()

    def _parse_or(self):
        e = self._parse_and()
        while self.peek().text == "|":
            self.take()
            e = ("binop", "|", e, self._parse_and())
        return e

    def _parse_and(self):
        e = self._parse_cmp()
        while self.peek().text == "&":
            self.take()
            e = ("binop", "&", e, self._parse_cmp())
        return e

    def _parse_cmp(self):
        e = self._parse_add()
        if self.peek().text in _COMPARISONS:
            op = self.take().text
            e = ("binop", op, e, self._parse_add())
        return e

    def _parse_add(self):
        e = self._parse_mul()
        while self.peek().text in ("+", "-"):
            op = self.take().text
            e = ("binop", op, e, self._parse_mul())
        return e

    def _parse_mul(self):
        e = self._parse_unary()
        while self.peek().text == "*":
            self.take()
            e = ("binop", "*", e, self._parse_unary())
        return e

    def _parse_unary(self):
        tok = self.peek()
        if tok.text == "!":
            self.take()
            return ("unop", "!", self._parse_unary())
        if tok.text == "-":
            self.take()
            return ("unop", "-", self._parse_unary())
        return self._parse_atom()

    def _parse_atom(self):
        tok = self.take()
        if tok.kind == "int":
            try:
                return ("int", int(tok.text))
            except ValueError:  # beyond the interpreter's digit limit
                raise InputError(f"line {tok.line}, column {tok.col}: "
                                 "integer literal too long") from None
        if tok.text == "true":
            return ("bool", True)
        if tok.text == "false":
            return ("bool", False)
        if tok.kind == "ident":
            return ("var", tok.text)
        if tok.text == "(":
            e = self.parse_expr()
            self.expect(")")
            return e
        raise InputError(
            f"line {tok.line}, column {tok.col}: unexpected {tok.text!r} "
            "in expression")


@dataclass(frozen=True)
class VarDecl:
    name: str
    kind: str  # int | bool
    lo: int
    hi: int
    init: object
    module: str


@dataclass
class Command:
    module: str
    action: Optional[str]
    guard: object
    updates: List[Tuple[str, object]]  # (variable, expression)
    line: int

    def describe(self) -> str:
        tag = f"[{self.action or ''}]"
        return f"{tag} command of module {self.module} (line {self.line})"


@dataclass
class ModuleDef:
    name: str
    variables: List[VarDecl] = field(default_factory=list)
    commands: List[Command] = field(default_factory=list)


@dataclass
class ModuleLangProgram:
    constants: Dict[str, object]
    formulas: Dict[str, object]
    modules: List[ModuleDef]
    labels: Dict[str, object]  # label name -> boolean expression
    owners: Dict[str, object]  # module name -> boolean expression

    def variables(self) -> List[VarDecl]:
        out = []
        for mod in self.modules:
            out.extend(mod.variables)
        return out


# Expressions compile once to closures over the valuation tuple (one slot
# per declared variable).  Kinds are static: a variable always holds a
# value of its declared kind (initial and updated values are checked), a
# constant has the kind of its value and every operator has a fixed result
# kind.  So each operand check is decided at compile time, and a failing
# one compiles to a closure that evaluates the operands in order (their own
# errors come first) and then raises.  Compiling never raises: every error
# is raised when the expression is evaluated, as a tree walk would.

_DYNAMIC = object()  # the value of a compiled expression that is not constant

# operator -> (operand kind, or None for "both alike"; result kind; function)
_UNARY = {"!": ("bool", "bool", operator.not_),
          "-": ("int", "int", operator.neg)}
_BINARY = {"+": ("int", "int", operator.add),
           "-": ("int", "int", operator.sub),
           "*": ("int", "int", operator.mul),
           "&": ("bool", "bool", operator.and_),
           "|": ("bool", "bool", operator.or_),
           "=": (None, "bool", operator.eq),
           "!=": (None, "bool", operator.ne),
           "<": ("int", "bool", operator.lt),
           "<=": ("int", "bool", operator.le),
           ">": ("int", "bool", operator.gt),
           ">=": ("int", "bool", operator.ge)}


def _kind_of(value) -> str:
    return "bool" if isinstance(value, bool) else "int"


def _needs(kind, op) -> str:
    want = "boolean" if kind == "bool" else "integer"
    return f"operator {op!r} needs {want} operands"


def _want(kind, value, op):
    if _kind_of(value) != kind:
        raise InputError(_needs(kind, op))


def _constant(value):
    return value, lambda v: value, _kind_of(value)


def _failing(message, *operands):
    """A node that evaluates `operands` in order, then raises `message`."""
    def fail(v):
        for fn in operands:
            fn(v)
        raise InputError(message)
    return _DYNAMIC, fail, None


def _apply(op, operands, where):
    """Node for `op` over compiled (value, fn, kind) operands."""
    want, result, f = (_UNARY if len(operands) == 1 else _BINARY)[op]
    values, fns, kinds = zip(*operands)
    known = {k for k in kinds if k is not None}
    if want is None and len(known) > 1:
        return _failing(f"comparison {op} mixes boolean and integer{where}",
                        *fns)
    if want is not None and known - {want}:
        return _failing(_needs(want, op) + where, *fns)
    if _DYNAMIC not in values:
        return _constant(f(*values))
    if len(fns) == 1:
        g, = fns
        return _DYNAMIC, lambda v: f(g(v)), result
    (a, b), (ga, gb) = values, fns
    if b is not _DYNAMIC:
        return _DYNAMIC, lambda v: f(ga(v), b), result
    if a is not _DYNAMIC:
        return _DYNAMIC, lambda v: f(a, gb(v)), result
    return _DYNAMIC, lambda v: f(ga(v), gb(v)), result


def _last_value(fn):
    """`fn` with a one-entry memo keyed on the identity of the valuation.

    Expansion evaluates every guard and update of a state on the same
    valuation tuple, and the memo holds that tuple, so its identity cannot
    pass to another valuation while it is remembered.  A call that raises
    remembers nothing.
    """
    last = value = None

    def remembered(v):
        nonlocal last, value
        if v is not last:
            value = fn(v)
            last = v
        return value

    return remembered


class _Compiler:
    """Expressions to closures over a valuation of `variables`.

    Identifiers resolve to a variable's slot first, then to a constant
    (folded), then to a formula (inlined, so a formula met again on its
    own expansion path is a cycle).  An inlined formula is compiled once
    per context and its node shared, so a formula used twice in a body
    does not double the compiled size, and the node remembers its value
    for the last valuation, so it does not double the evaluation work
    either.  A formula whose folded value is too long to print compiles to
    a failing node.
    """

    def __init__(self, constants, formulas=None, variables=()):
        self.constants = constants
        self.formulas = formulas or {}
        self.slots = {v.name: (i, v.kind) for i, v in enumerate(variables)}
        self.inlined = {}

    def node(self, expr, where="", visiting=frozenset()):
        """(value, fn, kind); `where` is appended to the node's errors."""
        tag = expr[0]
        if tag in ("int", "bool"):
            return _constant(expr[1])
        if tag == "unop":
            return _apply(expr[1], [self.node(expr[2], where, visiting)], where)
        if tag == "binop":
            return _apply(expr[1], [self.node(expr[2], where, visiting),
                                    self.node(expr[3], where, visiting)], where)
        name = expr[1]
        if name in self.slots:
            slot, kind = self.slots[name]
            return _DYNAMIC, operator.itemgetter(slot), kind
        if name in self.constants:
            return _constant(self.constants[name])
        if name not in self.formulas:
            return _failing(f"unknown identifier {name!r}{where}")
        if name in visiting:
            return _failing(
                f"formula {name!r} is defined in terms of itself{where}")
        key = (name, where, visiting)
        if key not in self.inlined:
            node = self.node(self.formulas[name], where, visiting | {name})
            if node[0] is not _DYNAMIC and _shown(node[0]) is _TOO_LONG:
                # refused like a constant; folding on would square the
                # digits per level of a chain like `f(i) = f(i-1)*f(i-1)`
                node = _failing(f"formula {name!r} is {_TOO_LONG}{where}")
            if node[0] is _DYNAMIC:
                node = _DYNAMIC, _last_value(node[1]), node[2]
            self.inlined[key] = node
        return self.inlined[key]

    def closure(self, expr, kind, op, where=""):
        """fn(valuation) for an expression whose value must have `kind`.

        A value of the other kind is reported as a wrong operand of `op`,
        without `where`.
        """
        _, fn, got = self.node(expr, where)
        if got is not None and got != kind:
            return _failing(_needs(kind, op), fn)[1]
        return fn


_TOO_LONG = "a value with too many digits to print"


def _shown(value) -> str:
    """Decimal text of `value`, or _TOO_LONG past the interpreter's
    int-to-str digit limit."""
    try:
        return str(value)
    except ValueError:
        return _TOO_LONG


def _printable(value, what):
    """`value`, refused when it is too long to print: every constant,
    bound and initial value may end up in a state name or a message."""
    if _shown(value) is _TOO_LONG:
        raise InputError(f"{what} is {_TOO_LONG}")
    return value


def _constant_value(expr, constants):
    """Parse-time value of `expr` over the constants declared so far."""
    value, fn, _ = _Compiler(constants).node(expr)
    return fn(()) if value is _DYNAMIC else value


def parse_program(text: str) -> ModuleLangProgram:
    p = _Parser(text)
    constants: Dict[str, object] = {}
    formulas: Dict[str, object] = {}
    modules: List[ModuleDef] = []
    labels: Dict[str, object] = {}
    owners: Dict[str, object] = {}
    var_names = set()
    while p.peek().kind != "eof":
        tok = p.peek()
        if tok.text == "const":
            p.take()
            kind_tok = p.take()
            if kind_tok.text not in ("int", "bool"):
                raise InputError(
                    f"line {kind_tok.line}: const needs int or bool")
            name = p.expect_kind("ident").text
            p.expect("=")
            expr = p.parse_expr()
            p.expect(";")
            value = _printable(_constant_value(expr, constants),
                               f"line {kind_tok.line}: const {name!r}")
            _want(kind_tok.text, value, "const")
            constants[name] = value
        elif tok.text == "formula":
            p.take()
            name = p.expect_kind("ident").text
            p.expect("=")
            formulas[name] = p.parse_expr()
            p.expect(";")
        elif tok.text == "label":
            p.take()
            name_tok = p.take()
            if name_tok.kind not in ("string", "ident"):
                raise InputError(f"line {name_tok.line}: label needs a name")
            p.expect("=")
            labels[name_tok.text] = p.parse_expr()
            p.expect(";")
        elif tok.text == "owner":
            p.take()
            name = p.expect_kind("ident").text
            p.expect("=")
            owners[name] = p.parse_expr()
            p.expect(";")
        elif tok.text == "module":
            modules.append(_parse_module(p, constants, var_names))
        else:
            raise InputError(
                f"line {tok.line}, column {tok.col}: unexpected {tok.text!r}")
    for mod_name in owners:
        if mod_name not in {m.name for m in modules}:
            raise InputError(f"owner declared for unknown module {mod_name!r}")
    return ModuleLangProgram(constants, formulas, modules, labels, owners)


def _parse_module(p: _Parser, constants, var_names) -> ModuleDef:
    p.expect("module")
    name = p.expect_kind("ident").text
    mod = ModuleDef(name)
    local = set()
    while p.peek().text != "endmodule":
        tok = p.peek()
        if tok.kind == "ident" and p.tokens[p.pos + 1].text == ":":
            decl = _parse_decl(p, constants, name)
            if decl.name in var_names:
                raise InputError(
                    f"line {tok.line}: variable {decl.name!r} already declared")
            var_names.add(decl.name)
            local.add(decl.name)
            mod.variables.append(decl)
        elif tok.text == "[":
            mod.commands.append(_parse_command(p, name, local))
        else:
            raise InputError(
                f"line {tok.line}, column {tok.col}: unexpected {tok.text!r} "
                "inside module")
    p.expect("endmodule")
    return mod


def _parse_decl(p: _Parser, constants, module_name) -> VarDecl:
    name = p.expect_kind("ident").text
    p.expect(":")
    tok = p.peek()
    if tok.text == "bool":
        p.take()
        p.expect("init")
        init = _constant_value(p.parse_expr(), constants)
        _want("bool", init, "init")
        p.expect(";")
        return VarDecl(name, "bool", 0, 1, init, module_name)
    p.expect("[")
    where = f"line {tok.line}: {name!r}"
    lo = _printable(_constant_value(p.parse_expr(), constants),
                    f"{where} lower bound")
    p.expect("..")
    hi = _printable(_constant_value(p.parse_expr(), constants),
                    f"{where} upper bound")
    p.expect("]")
    _want("int", lo, "range")
    _want("int", hi, "range")
    if hi < lo:
        raise InputError(f"variable {name!r} has an empty range [{lo}..{hi}]")
    p.expect("init")
    init = _printable(_constant_value(p.parse_expr(), constants),
                      f"{where} initial value")
    _want("int", init, "init")
    if not lo <= init <= hi:
        raise InputError(f"initial value {init} of {name!r} outside [{lo}..{hi}]")
    p.expect(";")
    return VarDecl(name, "int", lo, hi, init, module_name)


def _parse_command(p: _Parser, module_name, local_vars) -> Command:
    open_tok = p.expect("[")
    action = None
    if p.peek().kind == "ident":
        action = p.take().text
    p.expect("]")
    guard = p.parse_expr()
    p.expect("->")
    updates: List[Tuple[str, object]] = []
    if p.peek().text == "true":
        p.take()
    else:
        while True:
            p.expect("(")
            var = p.expect_kind("ident").text
            p.expect("'")
            p.expect("=")
            expr = p.parse_expr()
            p.expect(")")
            if var not in local_vars:
                raise InputError(
                    f"line {open_tok.line}: command of module {module_name} "
                    f"assigns foreign variable {var!r}")
            updates.append((var, expr))
            if p.peek().text == "&":
                p.take()
                continue
            break
    p.expect(";")
    return Command(module_name, action, guard, updates, open_tok.line)


@dataclass
class ExpandedModel:
    """Explicit reachable state space of a program.

    State names are canonical `var=value` listings in declaration order;
    numbering is breadth-first discovery order from the initial valuation.
    """

    ts: TransitionSystem
    variables: List[VarDecl]
    valuations: List[tuple]
    labels: Dict[str, frozenset]
    owners: Dict[str, frozenset]


def expand_program(prog: ModuleLangProgram,
                   max_states: int = DEFAULT_STATE_CAP) -> ExpandedModel:
    """Breadth-first expansion under interleaving + synchronisation.

    A command without an action interleaves on its own; commands sharing an
    action fire together, one enabled command per module owning the action.
    Updates read the pre-state (snapshot semantics).  Updates leaving a
    variable's range and reachable deadlock valuations are errors.
    """
    variables = prog.variables()
    if not variables:
        raise InputError("program declares no variables")
    var_index = {v.name: i for i, v in enumerate(variables)}
    owning: Dict[str, List[str]] = {}
    for mod in prog.modules:
        for cmd in mod.commands:
            if cmd.action is not None:
                mods = owning.setdefault(cmd.action, [])
                if mod.name not in mods:
                    mods.append(mod.name)

    compiler = _Compiler(prog.constants, prog.formulas, variables)
    # per module: (command, guard, updates), an update being (slot,
    # value_of, lo, hi); a boolean's [0..1] range holds for True and False
    compiled = []
    for mod in prog.modules:
        rows = []
        for cmd in mod.commands:
            guard = compiler.closure(cmd.guard, "bool", "guard",
                                     where=f" in {cmd.describe()}")
            updates = []
            for var, expr in cmd.updates:
                slot = var_index[var]
                decl = variables[slot]
                updates.append((slot, compiler.closure(expr, decl.kind,
                                                       "update"),
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
        enabled_by_action: Dict[str, Dict[str, list]] = {}
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
                continue  # some owning module blocks the action
            combos = [enabled[m] for m in owners_]
            picks = [[]]
            for options in combos:
                picks = [chosen + [r] for chosen in picks for r in options]
            for chosen in picks:
                out.append(apply_updates(valuation, chosen))
        return out

    def name_of(valuation):
        parts = []
        for v, value in zip(variables, valuation):
            text = ("true" if value else "false") if v.kind == "bool" else str(value)
            parts.append(f"{v.name}={text}")
        return ",".join(parts)

    init = tuple(v.init for v in variables)
    index = {init: 0}
    order = [init]
    adjacency: List[List[int]] = []
    frontier = [init]
    while frontier:
        next_frontier = []
        for valuation in frontier:
            succs = successors(valuation)
            if not succs:
                raise InputError(
                    f"deadlock: no command enabled in state {name_of(valuation)}")
            row = []
            for nxt in succs:
                if nxt not in index:
                    if len(index) >= max_states:
                        raise InputError(
                            f"state space exceeds the cap of {max_states}")
                    index[nxt] = len(order)
                    order.append(nxt)
                    next_frontier.append(nxt)
                row.append(index[nxt])
            adjacency.append(sorted(set(row)))
        frontier = next_frontier
    names = [name_of(v) for v in order]
    edges = [(s, t) for s, row in enumerate(adjacency) for t in row]
    ts = TransitionSystem(names, 0, edges)
    labels = {}
    for label, expr in prog.labels.items():
        holds = compiler.closure(expr, "bool", f"label {label!r}")
        labels[label] = frozenset(i for i, v in enumerate(order) if holds(v))
    owners = {}
    for mod_name, expr in prog.owners.items():
        holds = compiler.closure(expr, "bool", f"owner {mod_name!r}")
        owners[mod_name] = frozenset(i for i, v in enumerate(order) if holds(v))
    return ExpandedModel(ts, variables, order, labels, owners)


def load_program(path) -> ModuleLangProgram:
    return parse_program(read_text(path))
