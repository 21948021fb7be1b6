"""Deterministic benchmark-model generators.

Every generator emits an explicit model document (with the counterexample
run baked in where one exists) so results are reproducible byte for byte.
The lab-analysis family is a loose reconstruction at reduced scale, not
ground truth for any real system.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .errors import InputError
from .explicit import ExplicitModelDoc, build_system
from .model import BUECHI, REACHABILITY, SAFETY, NoViolation, find_violating_run
from .modlang import expand_program, parse_program

FAMILIES = ("clouds", "exp-coalitions", "frontier-stress-reach",
            "frontier-stress-safety", "almost-empty-frontier",
            "centrifuge-analog")


def _diamond_chain(idxs: List[int], exit_idx: int, edges: List[Tuple[int, int]]):
    """Wire an acyclic diamond lattice over `idxs`; all paths reach exit."""
    m = len(idxs)
    p = 0

    def nxt(q):
        return idxs[q] if q < m else exit_idx

    while p < m:
        if p + 2 < m:
            edges.append((idxs[p], idxs[p + 1]))
            edges.append((idxs[p], idxs[p + 2]))
            edges.append((idxs[p + 1], nxt(p + 3)))
            edges.append((idxs[p + 2], nxt(p + 3)))
            p += 3
        else:
            edges.append((idxs[p], nxt(p + 1)))
            p += 1


def _lowest_walk(succ: Dict[int, List[int]], start: int, stop: int) -> List[int]:
    """Follow lowest-index successors from start until stop; excludes stop."""
    path = [start]
    cur = start
    while cur != stop:
        cur = min(succ[cur])
        if cur != stop:
            path.append(cur)
    return path


def _to_goal_or_sink(chain: List[int], goal: int, sink: int):
    """Edges from each state of `chain` to `goal`, to `sink` and on to the
    next state of the chain."""
    return ([(s, goal) for s in chain] + [(s, sink) for s in chain]
            + list(zip(chain, chain[1:])))


def _document(names: List[str], edges: List[Tuple[int, int]], kind: str,
              target: List[int], prefix: List[int],
              loop: List[int]) -> ExplicitModelDoc:
    """The document over `names`, started in the first state; `target` and
    the run are state indices, and the transitions are the distinct edges
    sorted by name."""
    def named(indices):
        return [names[s] for s in indices]

    return ExplicitModelDoc(
        states=list(names), initial=names[0],
        transitions=sorted((names[s], names[t]) for s, t in set(edges)),
        objective_kind=kind, target=named(target),
        run_prefix=named(prefix), run_loop=named(loop))


def generate_clouds(k: int) -> ExplicitModelDoc:
    """Three acyclic diamond clouds of k states around a single critical
    choice state; reaching the good sink is decided there alone."""
    if k < 1:
        raise InputError("clouds needs k >= 1")
    names = (["s0"] + [f"u{i}" for i in range(1, k + 1)] + ["crit"]
             + [f"v{i}" for i in range(1, k)] + ["plus"]
             + [f"w{i}" for i in range(1, k)] + ["minus"])
    s0 = 0
    cloud1 = list(range(1, k + 1))
    crit = k + 1
    cloud2 = list(range(k + 2, 2 * k + 1))
    plus = 2 * k + 1
    cloud3 = list(range(2 * k + 2, 3 * k + 1))
    minus = 3 * k + 1
    edges: List[Tuple[int, int]] = []
    edges.append((s0, cloud1[0]))
    _diamond_chain(cloud1, crit, edges)
    edges.append((crit, cloud2[0] if cloud2 else plus))
    _diamond_chain(cloud2, plus, edges)
    edges.append((plus, plus))
    edges.append((crit, cloud3[0] if cloud3 else minus))
    _diamond_chain(cloud3, minus, edges)
    edges.append((minus, minus))
    succ: Dict[int, List[int]] = {}
    for s, t in edges:
        succ.setdefault(s, []).append(t)
    prefix = [s0] + _lowest_walk(succ, cloud1[0], crit) + [crit]
    if cloud3:
        prefix += _lowest_walk(succ, cloud3[0], minus)
    return _document(names, edges, REACHABILITY, [plus], prefix, [minus])


def generate_exp_coalitions(n: int) -> ExplicitModelDoc:
    """Ladder of (a, b) state pairs with one recurrence state reachable only
    from the start; each pair contributes an independent binary choice, so
    minimal winning coalitions multiply."""
    if n < 1:
        raise InputError("exp-coalitions needs n >= 1")
    names = ["s0"]
    for i in range(1, n + 1):
        names += [f"s{i}a", f"s{i}b"]
    names.append("sf")
    a = {i: 2 * i - 1 for i in range(1, n + 1)}
    b = {i: 2 * i for i in range(1, n + 1)}
    sf = 2 * n + 1
    edges = [(0, a[1]), (0, sf), (sf, a[n])]
    for i in range(1, n + 1):
        down = a[i - 1] if i >= 2 else 0
        edges.append((a[i], b[i]))
        edges.append((a[i], down))
        edges.append((b[i], down))
        if i < n:
            edges.append((b[i], a[i + 1]))
    edges.append((b[n], b[n]))
    prefix = [0]
    for i in range(1, n + 1):
        prefix.append(a[i])
        if i < n:
            prefix.append(b[i])
    return _document(names, edges, BUECHI, [sf], prefix, [b[n]])


def generate_frontier_stress_reach(k: int) -> ExplicitModelDoc:
    """Reachability stress: the frontier splits evenly into k states with an
    edge into the winning region (the responsibility-bearing kind, with the
    single pivotal state among them) and k dead-side decoys."""
    if k < 1:
        raise InputError("frontier-stress-reach needs k >= 1")
    names = (["s0", "r"] + [f"z{i}" for i in range(1, k)]
             + [f"b{i}" for i in range(1, k + 1)] + ["goal", "sink"])
    r = 1
    zs = list(range(2, k + 1))
    bs = list(range(k + 1, 2 * k + 1))
    goal, sink = 2 * k + 1, 2 * k + 2
    edges = [(0, r)] + [(0, bi) for bi in bs]
    edges += _to_goal_or_sink([r] + zs, goal, sink)
    for bi in bs:
        edges.append((bi, r))
        edges.append((bi, sink))
    edges += [(goal, goal), (sink, sink)]
    return _document(names, edges, REACHABILITY, [goal], [0, r], [sink])


def generate_frontier_stress_safety(k: int) -> ExplicitModelDoc:
    """Safety mirror of the reachability stress model: the pivotal state
    sits on the side with an edge into the losing region."""
    if k < 1:
        raise InputError("frontier-stress-safety needs k >= 1")
    names = (["s0", "r"] + [f"z{i}" for i in range(1, k)]
             + [f"w{i}" for i in range(1, k + 1)] + ["safe", "bad"])
    r = 1
    zs = list(range(2, k + 1))
    ws = list(range(k + 1, 2 * k + 1))
    safe, bad = 2 * k + 1, 2 * k + 2
    edges = [(0, r)] + [(0, z) for z in zs]
    edges += [(r, bad), (r, safe), (r, ws[0])]
    for z in zs:
        edges += [(z, bad), (z, r)]
    for j, w in enumerate(ws):
        edges.append((w, safe))
        edges.append((w, ws[j + 1] if j + 1 < len(ws) else r))
    edges += [(safe, safe), (bad, bad)]
    return _document(names, edges, SAFETY, [bad], [0, r], [bad])


def generate_almost_empty_frontier(k: int) -> ExplicitModelDoc:
    """A k-state frontier whose members look identical to every local
    heuristic signal, with exactly one state actually responsible (and
    indexed last, so deterministic tie-breaks try the decoys first)."""
    if k < 1:
        raise InputError("almost-empty-frontier needs k >= 1")
    names = (["s0"] + [f"d{i}" for i in range(1, k)] + ["r", "goal", "sink"])
    ds = list(range(1, k))
    r = k
    goal, sink = k + 1, k + 2
    edges = [(0, r)] + _to_goal_or_sink([r] + ds, goal, sink)
    edges += [(goal, goal), (sink, sink)]
    return _document(names, edges, REACHABILITY, [goal], [0, r], [sink])


# the analyser whose completion test `lab_program_text` gets wrong
_BUGGY_ANALYSER = 2

_LAB_TEMPLATE = """\
// Scaled-down lab model (a reconstruction, not ground truth): a supply
// hands one clean and one infected sample to {n} analysers; each analyser
// soaks its strip for three ticks at a nondeterministic rate and reports
// infected when the strip soaked at least 4 units.
const int T = 3;
module supply
  clean_left : [0..1] init 1;
  inf_left : [0..1] init 1;
{supply_cmds}  [] clean_left = 0 & inf_left = 0 & {all_idle} -> true;
endmodule
{analysers}module counter
  pos : [0..2] init 0;
  neg : [0..2] init 0;
{counter_cmds}endmodule
label "success" = clean_left = 0 & inf_left = 0 & {all_idle} & pos = 1 & neg = 1;
{owners}"""

_ANALYSER_TEMPLATE = """\
module analyser{i}
  busy{i} : bool init false;
  inf{i} : bool init false;
  t{i} : [0..3] init 0;
  d{i} : [0..9] init 0;
  [load{i}c] !busy{i} -> (busy{i}' = true) & (inf{i}' = false) & (t{i}' = 0) & (d{i}' = 0);
  [load{i}i] !busy{i} -> (busy{i}' = true) & (inf{i}' = true) & (t{i}' = 0) & (d{i}' = 0);
  [] busy{i} & !inf{i} & t{i} < T -> (t{i}' = t{i} + 1);
  [] busy{i} & !inf{i} & t{i} < T -> (t{i}' = t{i} + 1) & (d{i}' = d{i} + 1);
  [] busy{i} & inf{i} & t{i} < T -> (t{i}' = t{i} + 1) & (d{i}' = d{i} + 2);
  [] busy{i} & inf{i} & t{i} < T -> (t{i}' = t{i} + 1) & (d{i}' = d{i} + 3);
  [rep{i}p] busy{i} & t{i} {done_op} T & d{i} >= 4 -> (busy{i}' = false);
  [rep{i}n] busy{i} & t{i} {done_op} T & d{i} < 4 -> (busy{i}' = false);
endmodule
"""


def lab_program_text(analysers: int = 2, bug: bool = True) -> str:
    """Guarded-command source of the lab model; with `bug`, analyser
    `_BUGGY_ANALYSER` tests tick completion with <= instead of =,
    allowing an early abort."""
    if analysers < 1:
        raise InputError("centrifuge-analog needs at least one analyser")
    if bug and analysers < _BUGGY_ANALYSER:
        raise InputError("buggy analyser index out of range")
    supply_cmds = []
    counter_cmds = []
    blocks = []
    owners = []
    idle = " & ".join(f"!busy{i}" for i in range(1, analysers + 1))
    for i in range(1, analysers + 1):
        supply_cmds.append(
            f"  [load{i}c] clean_left > 0 -> (clean_left' = clean_left - 1);\n"
            f"  [load{i}i] inf_left > 0 -> (inf_left' = inf_left - 1);\n")
        counter_cmds.append(
            f"  [rep{i}p] pos < 2 -> (pos' = pos + 1);\n"
            f"  [rep{i}n] neg < 2 -> (neg' = neg + 1);\n")
        done_op = "<=" if (bug and i == _BUGGY_ANALYSER) else "="
        blocks.append(_ANALYSER_TEMPLATE.format(i=i, done_op=done_op))
        earlier = " & ".join(f"!busy{j}" for j in range(1, i))
        cond = f"busy{i}" if i == 1 else f"{earlier} & busy{i}"
        owners.append(f"owner analyser{i} = {cond};\n")
    owners.append(f"owner supply = {idle};\n")
    return _LAB_TEMPLATE.format(
        n=analysers, supply_cmds="".join(supply_cmds), all_idle=idle,
        analysers="".join(blocks), counter_cmds="".join(counter_cmds),
        owners="".join(owners))


def generate_centrifuge_analog(analysers: int = 2,
                               bug: bool = True) -> ExplicitModelDoc:
    """Expand the lab program into an explicit document with module groups.

    The reachability target is the success label; when the injected bug
    makes it violable, the discovered counterexample run is included.
    """
    prog = parse_program(lab_program_text(analysers, bug))
    expanded = expand_program(prog)
    ts = expanded.ts
    target = sorted(ts.names[s] for s in expanded.labels["success"])
    groups: Dict[str, List[str]] = {}
    for mod_name, members in sorted(expanded.owners.items()):
        groups[mod_name] = sorted((ts.names[s] for s in members),
                                  key=ts.index_of)
    doc = ExplicitModelDoc(
        states=list(ts.names), initial=ts.names[ts.initial],
        transitions=[(ts.names[s], ts.names[t]) for s, t in ts.edges()],
        objective_kind=REACHABILITY, target=target, groups=groups)
    ts2, obj, _ = build_system(doc)
    try:
        run = find_violating_run(ts2, obj)
        doc.run_prefix = [ts2.names[s] for s in run.prefix]
        doc.run_loop = [ts2.names[s] for s in run.loop]
    except NoViolation:
        pass
    return doc


def generate(family: str, size: int = 0, bug: bool = True) -> ExplicitModelDoc:
    """Dispatch by family name; see docs/cli.md for parameter ranges."""
    if family == "clouds":
        return generate_clouds(size)
    if family == "exp-coalitions":
        return generate_exp_coalitions(size)
    if family == "frontier-stress-reach":
        return generate_frontier_stress_reach(size)
    if family == "frontier-stress-safety":
        return generate_frontier_stress_safety(size)
    if family == "almost-empty-frontier":
        return generate_almost_empty_frontier(size)
    if family == "centrifuge-analog":
        return generate_centrifuge_analog(size or 2, bug=bug)
    raise InputError(f"unknown model family {family!r}; "
                     f"choose one of {', '.join(FAMILIES)}")
