"""Guarded-command modelling language: parser and explicit-state expansion.

The accepted subset has integer/boolean constants, modules with bounded
integer and boolean variables, guarded commands with optional synchronising
action labels, named formulas (macros), labels and per-module owner
predicates.  No probabilities, no clocks, no unbounded variables.  The full
grammar is documented in docs/lang.md.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from itertools import product
from typing import Dict, List, Optional, Tuple

from .errors import InputError, StateCapExceeded, read_text
from .model import TransitionSystem

DEFAULT_STATE_CAP = 10_000_000

_KEYWORDS = {"const", "int", "bool", "module", "endmodule", "init", "label",
             "formula", "owner", "true", "false"}

# one alternative per token kind, tried in order; a comment is apart from
# blanks because the end-of-input token stands where a final comment starts
_TOKEN = re.compile(r"""
    (?P<newline>\n)
  | (?P<blank>[ \t\r]+)
  | (?P<comment>//[^\n]*)
  | "(?P<string>[^"\n]*)"
  | (?P<open>")
  | (?P<int>\d+)
  | (?P<word>[^\W\d]\w*)
  | (?P<punct>->|\.\.|!=|<=|>=|[()\[\];:'=<>+\-*&|!])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str  # ident | int | string | punct | keyword | eof
    text: str
    line: int
    col: int


def _tokenize(text: str) -> List[Token]:
    tokens = []
    line, start = 1, 0  # start: the offset where the line starts
    pos = end = 0  # end: where the last match other than a comment ends
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        kind = m and m.lastgroup
        col = pos - start + 1
        if kind == "word" and not (text[pos].isalpha() or text[pos] == "_"):
            kind = None  # a numeral such as '½' goes on a word but starts none
        if not kind:
            raise InputError(f"line {line}, column {col}: "
                             f"unexpected character {text[pos]!r}")
        if kind == "open":
            raise InputError(f"line {line}, column {col}: unterminated string")
        pos = m.end()
        if kind == "newline":
            line, start = line + 1, pos
        elif kind not in ("blank", "comment"):
            word = m.group(kind)
            if kind == "word":
                kind = "keyword" if word in _KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, col))
        if kind != "comment":
            end = pos
    tokens.append(Token("eof", "", line, end - start + 1))
    return tokens


# expression AST: ("int", v) ("bool", v) ("var", name) ("unop", op, e)
# ("binop", op, a, b)

_COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")
# binary operators by level, loosest first; comparisons do not chain and
# every other level is left-associative
_LEVELS = (("|",), ("&",), _COMPARISONS, ("+", "-"), ("*",))


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

    def parse_expr(self, level=0):
        """An expression whose binary operators are of `_LEVELS[level]`
        or bind tighter."""
        if level == len(_LEVELS):
            return self._parse_unary()
        ops = _LEVELS[level]
        e = self.parse_expr(level + 1)
        while self.peek().text in ops:
            op = self.take().text
            e = ("binop", op, e, self.parse_expr(level + 1))
            if ops is _COMPARISONS:
                break
        return e

    def _parse_unary(self):
        if self.peek().text in ("!", "-"):
            return ("unop", self.take().text, self._parse_unary())
        return self._parse_atom()

    def _parse_atom(self):
        tok = self.take()
        if tok.kind == "int":
            try:
                return ("int", int(tok.text))
            except ValueError:  # beyond the interpreter's digit limit
                raise InputError(f"line {tok.line}, column {tok.col}: "
                                 "integer literal too long") from None
        if tok.text in ("true", "false"):
            return ("bool", tok.text == "true")
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


_NO_SLOTS = frozenset()


def _constant(value):
    return value, lambda v: value, _kind_of(value), _NO_SLOTS


def _failing(message, *operands):
    """A node that evaluates `operands` in order, then raises `message`."""
    fns = [node[1] for node in operands]

    def fail(v):
        for fn in fns:
            fn(v)
        raise InputError(message)
    return _DYNAMIC, fail, None, _NO_SLOTS.union(*[n[3] for n in operands])


def _apply(op, operands, where):
    """Node for `op` over compiled (value, fn, kind, slots) operands."""
    want, result, f = (_UNARY if len(operands) == 1 else _BINARY)[op]
    values, fns, kinds, slots = zip(*operands)
    known = {k for k in kinds if k is not None}
    if want is None and len(known) > 1:
        return _failing(f"comparison {op} mixes boolean and integer{where}",
                        *operands)
    if want is not None and known - {want}:
        return _failing(_needs(want, op) + where, *operands)
    if _DYNAMIC not in values:
        return _constant(f(*values))
    slots = _NO_SLOTS.union(*slots)
    if len(fns) == 1:
        g, = fns
        return _DYNAMIC, lambda v: f(g(v)), result, slots
    (a, b), (ga, gb) = values, fns
    if b is not _DYNAMIC:
        return _DYNAMIC, lambda v: f(ga(v), b), result, slots
    if a is not _DYNAMIC:
        return _DYNAMIC, lambda v: f(a, gb(v)), result, slots
    return _DYNAMIC, lambda v: f(ga(v), gb(v)), result, slots


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
    a failing node.  Every node carries the variable slots its closure
    reads, so a shared formula's are collected once, with its node.
    """

    def __init__(self, constants, formulas=None, variables=()):
        self.constants = constants
        self.formulas = formulas or {}
        self.slots = {v.name: (i, v.kind) for i, v in enumerate(variables)}
        self.inlined = {}

    def node(self, expr, where="", visiting=frozenset()):
        """(value, fn, kind, slots); `where` is appended to the node's
        errors, and `fn` reads only the variable slots in `slots`."""
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
            return _DYNAMIC, operator.itemgetter(slot), kind, frozenset((slot,))
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
                node = _DYNAMIC, _last_value(node[1]), node[2], node[3]
            self.inlined[key] = node
        return self.inlined[key]

    def closure(self, expr, kind, op, where=""):
        """(fn(valuation), slots it reads) for an expression whose value
        must have `kind`.

        A value of the other kind is reported as a wrong operand of `op`,
        without `where`.
        """
        node = self.node(expr, where)
        if node[2] is not None and node[2] != kind:
            node = _failing(_needs(kind, op), node)
        return node[1], node[3]


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
    value, fn = _Compiler(constants).node(expr)[:2]
    return fn(()) if value is _DYNAMIC else value


def _declare(declared, what, tok) -> str:
    """The name `tok` declares as a `what`, entered in its namespace in
    `declared`; a name the namespace holds already is refused."""
    taken = declared[what]
    if tok.text in taken:
        raise InputError(f"line {tok.line}: {what} {tok.text!r} already declared")
    taken.add(tok.text)
    return tok.text


def _too_deep(where) -> InputError:
    return InputError(f"{where}: expression nested too deeply")


def parse_program(text: str) -> ModuleLangProgram:
    p = _Parser(text)
    try:
        return _parse_items(p)
    except RecursionError:
        # the last token taken is where the recursion ran out
        raise _too_deep(f"line {p.tokens[p.pos - 1].line}") from None


def _parse_items(p: _Parser) -> ModuleLangProgram:
    constants: Dict[str, object] = {}
    formulas: Dict[str, object] = {}
    modules: List[ModuleDef] = []
    labels: Dict[str, object] = {}
    owners: Dict[str, object] = {}
    # the names that must be unique; constants, formulas and variables
    # share one namespace
    idents = set()
    declared = {"constant": idents, "formula": idents, "variable": idents,
                "module": set(), "label": set(), "owner": set()}
    while p.peek().kind != "eof":
        tok = p.peek()
        if tok.text == "const":
            p.take()
            kind_tok = p.take()
            if kind_tok.text not in ("int", "bool"):
                raise InputError(
                    f"line {kind_tok.line}: const needs int or bool")
            name_tok = p.expect_kind("ident")
            p.expect("=")
            expr = p.parse_expr()
            p.expect(";")
            value = _printable(_constant_value(expr, constants),
                               f"line {kind_tok.line}: const {name_tok.text!r}")
            _want(kind_tok.text, value, "const")
            constants[_declare(declared, "constant", name_tok)] = value
        elif tok.text in ("formula", "label", "owner"):
            p.take()
            # a label may be named by a string too
            name_tok = p.take() if tok.text == "label" else p.expect_kind("ident")
            if name_tok.kind not in ("string", "ident"):
                raise InputError(f"line {name_tok.line}: label needs a name")
            p.expect("=")
            expr = p.parse_expr()
            p.expect(";")
            tables = {"formula": formulas, "label": labels, "owner": owners}
            tables[tok.text][_declare(declared, tok.text, name_tok)] = expr
        elif tok.text == "module":
            modules.append(_parse_module(p, constants, declared))
        else:
            raise InputError(
                f"line {tok.line}, column {tok.col}: unexpected {tok.text!r}")
    for mod_name in owners:
        if mod_name not in declared["module"]:
            raise InputError(f"owner declared for unknown module {mod_name!r}")
    return ModuleLangProgram(constants, formulas, modules, labels, owners)


def _parse_module(p: _Parser, constants, declared) -> ModuleDef:
    p.expect("module")
    name = _declare(declared, "module", p.expect_kind("ident"))
    mod = ModuleDef(name)
    local = set()
    while p.peek().text != "endmodule":
        tok = p.peek()
        if tok.kind == "ident" and p.tokens[p.pos + 1].text == ":":
            decl = _parse_decl(p, constants, name)
            local.add(_declare(declared, "variable", tok))
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


def _projector(slots):
    """The projection of a valuation onto `slots`, for a cache key; an
    empty set projects every valuation to ()."""
    return operator.itemgetter(*sorted(slots) or [slice(0, 0)])


class _Pieces(dict):
    """The `var=value` piece of a state name per value of one variable,
    each made once."""

    def __init__(self, decl: VarDecl):
        super().__init__()
        self.prefix = decl.name + "="
        self.boolean = decl.kind == "bool"

    def __missing__(self, value):
        shown = ("true" if value else "false") if self.boolean else str(value)
        piece = self[value] = self.prefix + shown
        return piece


def expand_program(prog: ModuleLangProgram,
                   max_states: int = DEFAULT_STATE_CAP,
                   deadline=None) -> ExpandedModel:
    """Breadth-first expansion under interleaving + synchronisation.

    A command without an action interleaves on its own; commands sharing an
    action fire together, one enabled command per module owning the action.
    Updates read the pre-state (snapshot semantics).  Updates leaving a
    variable's range and reachable deadlock valuations are errors, and more
    than `max_states` states are refused.  `deadline`, when given, is called
    before each state is expanded and may abort the expansion by raising.

    A module's guards and updates are evaluated once per distinct
    valuation of the variables they read: the module's plan, its enabled
    commands with the (slot, value) writes each makes, is cached under
    that projection of the state, and a successor is the valuation with
    the writes applied.  An interleaving command's writes are made as soon
    as it is found enabled; a synchronised command's only when its action
    fires, and are then kept in the plan, so every error is met where an
    uncached expansion meets it.  A module whose guards and updates read
    every variable gets no cache, since breadth-first search meets each
    state once.  Labels and owners are evaluated once per distinct
    valuation of the variables they read, in one pass over the states.
    """
    variables = prog.variables()
    if not variables:
        raise InputError("program declares no variables")
    var_index = {v.name: i for i, v in enumerate(variables)}
    owning: Dict[str, List[int]] = {}
    for m, mod in enumerate(prog.modules):
        for cmd in mod.commands:
            if cmd.action is not None:
                mods = owning.setdefault(cmd.action, [])
                if m not in mods:
                    mods.append(m)
    # one bit per action, in name order: the order actions fire in
    bit = {action: 1 << i for i, action in enumerate(sorted(owning))}
    owners_of = {bit[action]: mods for action, mods in owning.items()}

    compiler = _Compiler(prog.constants, prog.formulas, variables)
    # per module: rows (command, guard, updates), an update being (slot,
    # value_of, lo, hi); the bits of the actions it owns; the projection
    # onto the slots its guards and updates read, and the cache of its
    # plans (None when they read every slot); a boolean's [0..1] range
    # holds for True and False
    compiled = []
    for mod in prog.modules:
        rows = []
        reads = set()
        owned = 0
        for cmd in mod.commands:
            try:
                guard, slots = compiler.closure(
                    cmd.guard, "bool", "guard", where=f" in {cmd.describe()}")
                reads |= slots
                updates = []
                for var, expr in cmd.updates:
                    slot = var_index[var]
                    decl = variables[slot]
                    value_of, slots = compiler.closure(expr, decl.kind,
                                                       "update")
                    reads |= slots
                    updates.append((slot, value_of, decl.lo, decl.hi))
            except RecursionError:
                raise _too_deep(f"line {cmd.line}") from None
            rows.append((cmd, guard, updates))
            if cmd.action is not None:
                owned |= bit[cmd.action]
        cache = {} if len(reads) < len(variables) else None
        compiled.append((rows, owned, _projector(reads), cache))

    def writes_of(valuation, cmd, updates):
        writes = []
        for slot, value_of, lo, hi in updates:
            value = value_of(valuation)
            if not lo <= value <= hi:
                raise InputError(
                    f"update drives {variables[slot].name!r} to "
                    f"{_shown(value)}, "
                    f"outside [{lo}..{hi}], in {cmd.describe()}")
            writes.append((slot, value))
        return writes

    def plan_of(valuation, rows, owned):
        """(writes of the enabled interleaving rows, bits of the enabled
        actions, bits of the owned but disabled ones, action bit -> the
        enabled rows as [command, updates, writes or None]).

        Guards go in row order, and an interleaving command's writes as
        soon as it is enabled, so the first error is the one an uncached
        expansion meets.
        """
        alone, by_action, on = [], {}, 0
        for cmd, guard, updates in rows:
            if not guard(valuation):
                continue
            if cmd.action is None:
                alone.append(writes_of(valuation, cmd, updates))
            else:
                b = bit[cmd.action]
                on |= b
                by_action.setdefault(b, []).append([cmd, updates, None])
        return alone, on, owned & ~on, by_action

    def successors(valuation):
        out = []
        plans = []
        on = off = 0
        for rows, owned, project, cache in compiled:
            if cache is None:
                plan = plan_of(valuation, rows, owned)
            else:
                key = project(valuation)
                plan = cache.get(key)
                if plan is None:
                    plan = cache[key] = plan_of(valuation, rows, owned)
            plans.append(plan)
            for writes in plan[0]:
                new = list(valuation)
                for slot, value in writes:
                    new[slot] = value
                out.append(tuple(new))
            on |= plan[1]
            off |= plan[2]
        # an action fires when every owning module enables it
        fired = on & ~off
        while fired:
            b = fired & -fired
            fired ^= b
            groups = [plans[m][3][b] for m in owners_of[b]]
            for chosen in product(*groups):
                new = list(valuation)
                for entry in chosen:
                    writes = entry[2]
                    if writes is None:
                        writes = entry[2] = writes_of(valuation, entry[0],
                                                      entry[1])
                    for slot, value in writes:
                        new[slot] = value
                out.append(tuple(new))
        return out

    pieces = [_Pieces(v) for v in variables]

    def name_of(valuation):
        return ",".join(map(dict.__getitem__, pieces, valuation))

    def over_cap():
        return StateCapExceeded(f"state space exceeds the cap of {max_states}",
                                guidance="raise --state-cap")

    init = tuple(v.init for v in variables)
    if max_states < 1:
        raise over_cap()
    index = {init: 0}
    order = [init]
    succ: List[tuple] = []
    frontier = [init]
    while frontier:
        next_frontier = []
        for valuation in frontier:
            if deadline is not None:
                deadline()
            succs = successors(valuation)
            if not succs:
                raise InputError(
                    f"deadlock: no command enabled in state {name_of(valuation)}")
            row = []
            for nxt in succs:
                t = index.get(nxt)
                if t is None:
                    if len(index) >= max_states:
                        raise over_cap()
                    t = index[nxt] = len(order)
                    order.append(nxt)
                    next_frontier.append(nxt)
                row.append(t)
            succ.append(tuple(sorted(set(row))))
        frontier = next_frontier
    ts = TransitionSystem(map(name_of, order), 0, succ=succ)

    def holding(what, exprs):
        """The states where each expression of `exprs` holds."""
        out = {}
        for name, expr in exprs.items():
            try:
                holds, slots = compiler.closure(expr, "bool",
                                                f"{what} {name!r}")
            except RecursionError:
                raise _too_deep(f"{what} {name!r}") from None
            project = _projector(slots)
            truth = {}
            members = []
            for i, valuation in enumerate(order):
                key = project(valuation)
                held = truth.get(key)
                if held is None:
                    held = truth[key] = holds(valuation)
                if held:
                    members.append(i)
            out[name] = frozenset(members)
        return out

    return ExpandedModel(ts, variables, order, holding("label", prog.labels),
                         holding("owner", prog.owners))


def load_program(path) -> ModuleLangProgram:
    return parse_program(read_text(path))
