"""Transition systems, omega-regular objectives and lasso-shaped counterexamples."""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import chain
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from .errors import InputError, no_deadline

SAFETY = "safety"
REACHABILITY = "reachability"
BUECHI = "buechi"
PARITY = "parity"

OBJECTIVE_KINDS = (SAFETY, REACHABILITY, BUECHI, PARITY)


class NoViolation(Exception):
    """The system satisfies the objective; there is nothing to explain."""


class TransitionSystem:
    """Finite directed state graph with a single initial state.

    States are dense integer indices 0..n-1 with unique display names.
    `succ[s]`, one entry per state and passed by keyword, holds the
    successors of state s as a tuple, sorted and duplicate-free; the
    constructor takes that order as given but checks that every successor
    is a state.  Every state must have at least one successor; deadlocked
    models are rejected at construction with a listing of the offending
    states.  `index`, when given, is the name -> index dict of `names` that
    the caller has built already, so a load keeps one.

    With `name_of`, `names` holds one key per state instead, such as a
    program's valuations, and the name of state s is `name_of(names[s])`.
    Those names are formed, and the name -> index dict behind `index_of`
    built, the first time `names` or `index_of` is read, so an analysis
    that reads neither formats no name.  They are not checked for
    duplicates: the caller gives keys whose names are unique by
    construction, as an expansion's distinct valuations give distinct
    `var=value` listings.
    """

    __slots__ = ("_names", "_name_of", "initial", "succ", "_index", "_preds",
                 "_off_run")

    def __init__(self, names: Sequence, initial: int, *,
                 succ: Sequence[Tuple[int, ...]],
                 index: Optional[Dict[str, int]] = None,
                 name_of: Optional[Callable[[object], str]] = None):
        names = tuple(names)
        n = len(names)
        if index is None and name_of is None:
            index = {name: i for i, name in enumerate(names)}
            if len(index) != n:
                dupes = sorted(m for m, k in Counter(names).items() if k > 1)
                raise InputError(f"duplicate state names: {', '.join(dupes)}")
        self._names = names
        self._name_of = name_of
        if not 0 <= initial < n:
            raise InputError(f"initial state index {initial} out of range")
        succ = tuple(succ)
        if len(succ) != n:
            raise InputError(f"{len(succ)} successor lists for {n} states")
        if not all(succ):
            dead = [self.names[s] for s, ends in enumerate(succ) if not ends]
            raise InputError(
                "deadlocked states (no outgoing transition): " + ", ".join(dead))
        if (min(chain.from_iterable(succ)) < 0
                or max(chain.from_iterable(succ)) >= n):
            raise InputError(f"successor index out of range 0..{n - 1}")
        self.initial = initial
        self.succ = succ
        self._index = index
        self._preds = None
        self._off_run = None

    @property
    def names(self) -> Tuple[str, ...]:
        """The display name of each state, formed on first read when the
        system was given `name_of`."""
        if self._name_of is not None:
            self._names = tuple(map(self._name_of, self._names))
            self._name_of = None
        return self._names

    def __len__(self) -> int:
        return len(self.succ)

    def index_of(self, name: str, where: str = "") -> int:
        """The index of state `name`; an unknown or non-string name is an
        InputError, naming `where` when it is given."""
        if self._index is None:
            self._index = {name: i for i, name in enumerate(self.names)}
        return _look_up(self._index, name, where)

    def preds(self) -> tuple:
        """Predecessor lists, sorted; built on first use and then shared by
        every game arena on this system."""
        if self._preds is None:
            self._preds = predecessors(self.succ)
        return self._preds

    def off_run(self, run: "LassoRun") -> frozenset:
        """The states off `run`, which Sat owns in every optimistic game;
        made for the last run asked about and kept until another run
        object is.  Runs are compared by identity: hashing one reads it
        whole."""
        cached = self._off_run
        if cached is None or cached[0] is not run:
            cached = self._off_run = (
                run, frozenset(range(len(self))) - run.states())
        return cached[1]

    def edges(self):
        for s, ts in enumerate(self.succ):
            for t in ts:
                yield s, t

    def num_edges(self) -> int:
        return sum(len(ts) for ts in self.succ)


def _look_up(index: Dict[str, int], name, where: str = "") -> int:
    try:
        return index[name]
    except (KeyError, TypeError):
        suffix = f" in {where}" if where else ""
        raise InputError(f"unknown state {name!r}{suffix}") from None


def predecessors(succ) -> tuple:
    """The predecessor lists of the successor lists `succ`, each sorted."""
    pred = [[] for _ in succ]
    for s, ts in enumerate(succ):
        for t in ts:
            pred[t].append(s)
    return tuple(map(tuple, pred))


class _ObjectiveFields(NamedTuple):
    kind: str
    target: Optional[frozenset] = None
    colours: Optional[Tuple[int, ...]] = None


class Objective(_ObjectiveFields):
    """Safety / reachability / Buechi target set, or a parity colouring.

    Exactly one payload is populated: `target` for the set-based kinds,
    `colours` (one non-negative integer per state) for parity.  A parity
    run is accepted when the maximal colour among the states visited
    infinitely often is even.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in OBJECTIVE_KINDS:
            raise InputError(f"unknown objective kind {self.kind!r}")
        if self.kind == PARITY:
            if self.colours is None or self.target is not None:
                raise InputError("parity objectives take a colour map only")
            if any(c < 0 for c in self.colours):
                raise InputError("parity colours must be non-negative")
        else:
            if self.target is None or self.colours is not None:
                raise InputError(f"{self.kind} objectives take a target set only")
        return self

    def check_against(self, ts: TransitionSystem):
        n = len(ts)
        if self.kind == PARITY:
            if len(self.colours) != n:
                raise InputError("colour map must cover every state")
        else:
            bad = [s for s in self.target if not 0 <= s < n]
            if bad:
                raise InputError(f"objective target out of range: {bad}")


class LassoRun:
    """Simple lasso-shaped run: finite prefix followed by a repeated loop.

    The loop is non-empty and repeats no state; no loop state occurs in the
    prefix and the prefix itself is duplicate-free, so every state on the
    run has a unique successor along it.  A run is not changed after
    construction; two runs are equal when their prefixes and loops are.
    """

    def __init__(self, prefix: Tuple[int, ...], loop: Tuple[int, ...]):
        self.prefix = prefix
        self.loop = loop

    def __eq__(self, other):
        if other.__class__ is not LassoRun:
            return NotImplemented
        return self.prefix == other.prefix and self.loop == other.loop

    def __hash__(self):
        return hash((self.prefix, self.loop))

    def states(self) -> frozenset:
        return frozenset(self.prefix) | frozenset(self.loop)

    def sequence(self) -> Tuple[int, ...]:
        return self.prefix + self.loop

    def edges(self):
        """(state, run successor) pairs in run order; the last closes the loop."""
        seq = self.sequence()
        return zip(seq, seq[1:] + self.loop[:1])

    @cached_property
    def forced(self) -> Dict[int, Tuple[int]]:
        """Each run state's successor list when engraving cuts it down to
        its run edge; made once and shared by every engraved graph."""
        return {s: (t,) for s, t in self.edges()}


def require_valid_run(ts: TransitionSystem, run: LassoRun) -> None:
    """Raise InputError naming the first violated LassoRun invariant
    against `ts`, with its position along the run."""
    def fail(message, position):
        raise InputError(f"invalid run: {message} (position {position})")

    name = ts.names.__getitem__
    if not run.loop:
        fail("loop must be non-empty", 0)
    for pos, s in enumerate(run.sequence()):
        if not 0 <= s < len(ts):
            fail(f"state index {s} out of range", pos)
    start = run.prefix[0] if run.prefix else run.loop[0]
    if start != ts.initial:
        fail(f"run starts in {name(start)}, not the initial state "
             f"{name(ts.initial)}", 0)
    seen = set()
    for i, s in enumerate(run.loop):
        if s in seen:
            fail(f"loop repeats {name(s)}", len(run.prefix) + i)
        seen.add(s)
    pseen = set()
    for i, s in enumerate(run.prefix):
        if s in seen:
            fail(f"prefix state {name(s)} also occurs in the loop", i)
        if s in pseen:
            fail(f"prefix repeats {name(s)}", i)
        pseen.add(s)
    for pos, (s, t) in enumerate(run.edges()):
        if t not in ts.succ[s]:
            fail(f"{name(s)} -> {name(t)} is not a transition", pos)


def violates(ts: TransitionSystem, obj: Objective, run: LassoRun) -> bool:
    """True iff the infinite unrolling of `run` does not satisfy `obj`.

    The loop determines the infinitely-visited states, so Buechi violation
    depends on the loop only; prefix visits are irrelevant.
    """
    obj.check_against(ts)
    loop = set(run.loop)
    if obj.kind == SAFETY:
        return bool((set(run.prefix) | loop) & obj.target)
    if obj.kind == REACHABILITY:
        return not ((set(run.prefix) | loop) & obj.target)
    if obj.kind == BUECHI:
        return not (loop & obj.target)
    return max(obj.colours[s] for s in loop) % 2 == 1


def _bfs_path(succ, source: int, targets, allowed=None):
    """Shortest path source -> first target hit, successors in index order.

    Returns the path as a list including both endpoints, or None.
    `allowed` restricts the states the path may use (source exempt).
    """
    targets = set(targets)
    if source in targets:
        return [source]
    parent = {source: None}
    frontier = [source]
    while frontier:
        nxt = []
        for s in frontier:
            for t in succ[s]:
                if t in parent or (allowed is not None and t not in allowed):
                    continue
                parent[t] = s
                if t in targets:
                    path = [t]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                nxt.append(t)
        frontier = nxt
    return None


def _reachable(succ, source: int, allowed=None):
    seen = {source}
    stack = [source]
    while stack:
        s = stack.pop()
        for t in succ[s]:
            if t not in seen and (allowed is None or t in allowed):
                seen.add(t)
                stack.append(t)
    return seen


def _sccs(succ, allowed, deadline=no_deadline, roots=None):
    """Tarjan over the subgraph induced by `allowed`; returns state -> scc id.

    The depth-first search starts from each of `roots`, allowed states, in
    turn, by default from every allowed state in index order, and numbers
    only the allowed states it reaches; `allowed` is read by membership
    only.  Components are numbered as they complete, so every edge leads
    to an equal or smaller id, and the result lists the states component
    by component in that order, each component in reverse numbering
    order.  `deadline` is called before each state is numbered.

    `low[v]` is the least number v is known to reach through states on
    the stack until v's component completes, and `done` from then on,
    above every number.  A state is on the stack exactly when it is
    numbered and has no component, so an edge into a finished component
    never lowers a link and no on-stack set is kept (Pearce, A
    space-efficient algorithm for finding strongly connected components,
    IPL 116(1), 2016).  A component of one state is finished without a
    slice of the stack.
    """
    low = {}
    low_of = low.get
    comp = {}
    stack = []
    # the suspended frames: (state, its number, its stack position, the
    # iterator over its successors); the running frame is held in locals,
    # with its link in `lv`
    work = []
    done = len(succ)
    ncomp = 0
    for root in sorted(allowed) if roots is None else roots:
        if root in low:
            continue
        deadline()
        low[root] = lv = num = len(low)
        v, pos, it = root, len(stack), iter(succ[root])
        stack.append(root)
        while True:
            for w in it:
                lw = low_of(w)
                if lw is None:
                    if w in allowed:
                        low[v] = lv
                        work.append((v, num, pos, it))
                        deadline()
                        low[w] = lv = num = len(low)
                        v, pos, it = w, len(stack), iter(succ[w])
                        stack.append(w)
                        break
                elif lw < lv:
                    lv = lw
            else:
                if lv == num:
                    if pos == len(stack) - 1:
                        stack.pop()
                        comp[v] = ncomp
                        low[v] = done
                    else:
                        members = stack[pos:]
                        del stack[pos:]
                        members.reverse()
                        comp.update(dict.fromkeys(members, ncomp))
                        low.update(dict.fromkeys(members, done))
                    ncomp += 1
                    if not work:
                        break
                    v, num, pos, it = work.pop()
                    lv = low[v]
                else:
                    low[v] = lv
                    v, num, pos, it = work.pop()
                    lv = min(lv, low[v])
    return comp


def _cycle_finder(succ, comp):
    """Shortest cycles within the components of the SCC map `comp`.

    Returns `cycle(state)` for states in `comp`: the shortest cycle
    through `state` within its component as [state, ..., last], or None
    when `state` lies on no cycle.  Ties go to the lowest first successor.
    `cycle` lists a component's members only when it searches it.
    """
    sizes = Counter(comp.values())

    def cycle(state):
        if state in succ[state]:
            return [state]
        cid = comp[state]
        if sizes[cid] == 1:
            return None
        scc = {s for s, c in comp.items() if c == cid}
        # every successor inside the SCC has a path back within it
        back = min((_bfs_path(succ, t, {state}, allowed=scc)
                    for t in succ[state] if t in scc), key=len)
        return [state] + back[:-1]

    return cycle


def _canonical_lasso(seq_prefix, cycle) -> LassoRun:
    """Trim prefix/loop overlap and internal prefix cycles into a simple lasso.

    `seq_prefix` is a duplicate-free path ending just before the cycle
    entry; `cycle` is a duplicate-free cycle.  If the prefix touches the
    cycle, it is cut there and the cycle rotated to start at that state.
    """
    cycle = list(cycle)
    cycle_set = set(cycle)
    prefix = []
    for s in seq_prefix:
        if s in cycle_set:
            k = cycle.index(s)
            cycle = cycle[k:] + cycle[:k]
            return LassoRun(tuple(prefix), tuple(cycle))
        prefix.append(s)
    return LassoRun(tuple(prefix), tuple(cycle))


def find_violating_run(ts: TransitionSystem, obj: Objective,
                       deadline=no_deadline) -> LassoRun:
    """Deterministically construct a simple lasso run violating `obj`.

    Search order is by ascending state index throughout, so the result is
    reproducible.  Raises NoViolation when every run satisfies the
    objective.  `deadline` is called before each state the SCC passes
    number.
    """
    obj.check_against(ts)
    succ = ts.succ
    n = len(ts)

    if obj.kind == SAFETY:
        # shortest path into the target, then walk until a state repeats
        path = _bfs_path(succ, ts.initial, obj.target)
        if path is None:
            raise NoViolation("the target set is unreachable")
        seq = list(path)
        seen = {s: i for i, s in enumerate(seq)}
        cur = seq[-1]
        while True:
            nxt = succ[cur][0]
            if nxt in seen:
                k = seen[nxt]
                return LassoRun(tuple(seq[:k]), tuple(seq[k:]))
            seen[nxt] = len(seq)
            seq.append(nxt)
            cur = nxt

    if obj.kind == REACHABILITY:
        # an entire run avoiding the target: cycle reachable within S \ F
        if ts.initial in obj.target:
            raise NoViolation("the initial state is already in the target")
        # one pass from the initial state numbers exactly the states it
        # reaches without entering the target
        reach = _sccs(succ, set(range(n)).difference(obj.target), deadline,
                      (ts.initial,))
        find_cycle = _cycle_finder(succ, reach)
        for w in sorted(reach):
            cycle = find_cycle(w)
            if cycle is not None:
                path = _bfs_path(succ, ts.initial, {w}, allowed=reach)
                return _canonical_lasso(path[:-1], cycle)
        raise NoViolation("every run eventually reaches the target")

    # parity: a reachable cycle whose maximal colour is odd, one finder per
    # odd colour met among the candidates.  Buechi is parity with colour 2
    # on the target and 1 elsewhere.
    colours, none = obj.colours, "no reachable odd-dominated cycle exists"
    if obj.kind == BUECHI:
        colours = [2 if s in obj.target else 1 for s in range(n)]
        none = "every reachable cycle meets the target set"
    # the SCC of a reachable state within an allowed set is reachable too,
    # so each pass numbers only the reachable states
    reach = _reachable(succ, ts.initial)
    finders = {}
    for w in sorted(reach):
        c = colours[w]
        if c % 2 == 0:
            continue
        if c not in finders:
            finders[c] = _cycle_finder(succ, _sccs(
                succ, {s for s in reach if colours[s] <= c}, deadline))
        cycle = finders[c](w)
        if cycle is not None:
            path = _bfs_path(succ, ts.initial, {w})
            return _canonical_lasso(path[:-1], cycle)
    raise NoViolation(none)
