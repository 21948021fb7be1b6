"""The benchmark's workloads: generated inputs, command lines and references.

Each input is made by `respgame.generators` and written to a file; the
program only ever receives that file.  Explicit documents list their states
in an order drawn from the workload seed, so different seeds hand the
program differently numbered copies of the same model; the values do not
depend on state numbering, so one reference rule holds for every seed.
The lab program is left as generated: its breadth-first numbering picks
the counterexample run, and the reference values belong to that run.

Every reference is worked out here, outside the timed calls, either by the
brute-force oracle, by the naive defining sum, or from a property the
generator documents.  A check returns None when the output matches and a
one-line reason when it does not.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from respgame.explicit import build_system, serialize_explicit
from respgame.games import OPTIMISTIC, PESSIMISTIC, build_game, game_value
from respgame.generators import generate, lab_program_text
from respgame.grouping import BY_MODULE, GroupingSpec, resolve_grouping
from respgame.model import REACHABILITY, Objective, find_violating_run
from respgame.modlang import expand_program, parse_program
from respgame.shapley import oracle_shapley, prune_dummies

SIZES = {
    "analyze-exp": 7,
    "refine-clouds": 5000,
    "positivity-buechi": 200,
    "analyze-lab": 4,
}

# Layer metric -> the workloads it is mapped to (README.md gives the
# end-to-end metric each should move there).  The traced run fails when a
# metric reads 0 on a workload it is mapped to: a wrapper missed a copied
# binding, or the layer is no longer reached.
LAYER_MAP = {
    "modlang.expand_s": ("analyze-lab",),
    "modlang.states": ("analyze-lab",),
    "modlang.edges": ("analyze-lab",),
    "explicit.load_s": ("refine-clouds",),
    "model.run_search_s": ("analyze-lab",),
    "model.run_search_calls": ("analyze-lab",),
    "grouping.resolve_s": ("analyze-lab",),
    "grouping.blocks": ("analyze-lab",),
    "shapley.prune_s": ("analyze-exp",),
    "shapley.players": ("analyze-exp",),
    "shapley.exact_s": ("analyze-exp",),
    "shapley.aggregate_self_s": ("analyze-exp",),
    "shapley.gamma_calls": ("analyze-exp",),
    "shapley.games_solved": ("analyze-exp",),
    "shapley.memo_hits": ("analyze-exp",),
    "shapley.memo_hit_ratio": ("analyze-exp",),
    "games.build_s": ("analyze-exp", "refine-clouds", "positivity-buechi"),
    "games.engrave_s": ("analyze-exp", "refine-clouds", "positivity-buechi"),
    "games.build_calls": ("analyze-exp", "refine-clouds", "positivity-buechi"),
    "games.arena_states_total": ("analyze-exp", "refine-clouds",
                                 "positivity-buechi"),
    "games.arena_edges_total": ("analyze-exp", "refine-clouds",
                                "positivity-buechi"),
    "games.solve_s": ("analyze-exp", "refine-clouds", "positivity-buechi"),
    "games.solve_calls": ("analyze-exp", "refine-clouds", "positivity-buechi"),
    "games.solve_us_per_call": ("analyze-exp", "refine-clouds",
                                "positivity-buechi"),
    "refinement.loop_s": ("refine-clouds",),
    "refinement.witness_s": ("refine-clouds",),
    "refinement.witness_calls": ("refine-clouds",),
    "refinement.refine_block_s": ("refine-clouds",),
    "refinement.splits": ("refine-clouds",),
    "refinement.values_s": ("refine-clouds",),
    "positivity.rho_order_s": ("positivity-buechi",),
    "positivity.search_s": ("positivity-buechi",),
    "positivity.probes": ("positivity-buechi",),
    "positivity.games_solved": ("positivity-buechi",),
    "exports.render_s": ("refine-clouds",),
}

@dataclass
class Prepared:
    """One workload made ready: the command line and its output check."""

    argv: List[str]
    check: Callable[[str], Optional[str]]
    setup_problems: List[str]


def _shuffled_doc(doc, seed: int):
    states = list(doc.states)
    random.Random(seed).shuffle(states)
    doc.states = states
    return doc


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _compare(got: Optional[Dict[str, Fraction]],
             expected: Dict[str, Fraction]) -> Optional[str]:
    if got is None:
        return "output could not be parsed"
    if set(got) != set(expected):
        return (f"player names differ: {len(set(got) ^ set(expected))} "
                f"not in both")
    wrong = sorted(n for n in expected if got[n] != expected[n])
    if wrong:
        name = wrong[0]
        return (f"{len(wrong)} values differ, e.g. {name}: "
                f"{got[name]} != {expected[name]}")
    return None


def _table_values(text: str) -> Optional[Dict[str, Fraction]]:
    """Values from the `analyze` table; None if it is not a table."""
    lines = text.splitlines()
    if not lines or lines[0].split()[:1] != ["player"]:
        return None
    rows = {}
    for line in lines[1:]:
        if line.startswith("games solved:"):
            return rows
        fields = line.split()
        try:
            rows[fields[0]] = Fraction(fields[1])
        except (IndexError, ValueError):
            return None
    return None


def _records_values(text: str) -> Optional[Dict[str, Fraction]]:
    try:
        doc = json.loads(text)
        return {p["name"]: Fraction(p["numerator"], p["denominator"])
                for p in doc["players"]}
    except (ValueError, KeyError, TypeError):
        return None


_POSITIVE = re.compile(r"positive responsibility: \{(.*)\}\n\Z")


def _positive_names(text: str) -> Optional[frozenset]:
    match = _POSITIVE.match(text)
    if match is None:
        return None
    return frozenset(n for n in match.group(1).split(", ") if n)


def _naive_shapley(ts, obj, run, mode, players) -> Dict[str, Fraction]:
    """The defining sum over every coalition of block players, term by
    term, with one plain game solve per coalition."""
    n = len(players)
    gamma = []
    for mask in range(1 << n):
        states = set()
        for p in range(n):
            if mask >> p & 1:
                states |= players.members[p]
        gamma.append(game_value(build_game(ts, obj, run, states, mode)))
    fact = math.factorial
    values = {}
    for p in range(n):
        bit = 1 << p
        values[players.names[p]] = sum(
            (Fraction(fact(m.bit_count()) * fact(n - m.bit_count() - 1),
                      fact(n)) * (gamma[m | bit] - gamma[m])
             for m in range(1 << n) if not m & bit), Fraction(0))
    return values


def _analyze_exp(seed: int, path: str) -> Prepared:
    doc = _shuffled_doc(generate("exp-coalitions", SIZES["analyze-exp"]), seed)
    _write(path, serialize_explicit(doc))
    ts, obj, run = build_system(doc)
    players = prune_dummies(ts, obj, run, PESSIMISTIC)
    problems = []
    if len(players) != 15:
        problems.append(f"pruning kept {len(players)} players, expected 15")
    oracle = oracle_shapley(ts, obj, run, PESSIMISTIC,
                            [ts.index_of(n) for n in players.names])
    expected = {name: Fraction(0) for name in ts.names}
    expected.update(oracle.as_dict())
    return Prepared(["analyze", path],
                    lambda out: _compare(_table_values(out), expected),
                    problems)


def _refine_clouds(seed: int, path: str) -> Prepared:
    doc = _shuffled_doc(generate("clouds", SIZES["refine-clouds"]), seed)
    _write(path, serialize_explicit(doc))
    # the generator decides the outcome at `crit` alone
    expected = {name: Fraction(0) for name in doc.states}
    expected["crit"] = Fraction(1)
    return Prepared(["refine", path, "--initial-blocks", "4",
                     "--seed", str(seed), "--format", "records"],
                    lambda out: _compare(_records_values(out), expected), [])


def _positivity_buechi(seed: int, path: str) -> Prepared:
    doc = _shuffled_doc(generate("exp-coalitions",
                                 SIZES["positivity-buechi"]), seed)
    _write(path, serialize_explicit(doc))
    expected = frozenset(doc.states) - {"sf"}
    problems = []
    small = _shuffled_doc(generate("exp-coalitions", 4), seed)
    ts, obj, run = build_system(small)
    oracle = oracle_shapley(ts, obj, run, OPTIMISTIC).positivity()
    if oracle != frozenset(ts.names) - {"sf"}:
        problems.append("the oracle at size 4 breaks the rule that every "
                        "state except sf is positive")

    def check(out: str) -> Optional[str]:
        got = _positive_names(out)
        if got is None:
            return "output could not be parsed"
        if got != expected:
            return f"{len(got ^ expected)} states wrongly classified"
        return None

    return Prepared(["positivity", path, "--mode", "optimistic"], check,
                    problems)


def _analyze_lab(seed: int, path: str) -> Prepared:
    text = lab_program_text(SIZES["analyze-lab"], bug=True)
    _write(path, text)
    expanded = expand_program(parse_program(text))
    ts = expanded.ts
    obj = Objective(REACHABILITY, target=expanded.labels["success"])
    run = find_violating_run(ts, obj)
    players = resolve_grouping(GroupingSpec(BY_MODULE), ts,
                               labels=expanded.labels, owners=expanded.owners)
    expected = {name: Fraction(0) for name in players.names}
    expected["analyser2"] = expected["supply"] = Fraction(1, 2)
    problems = []
    mismatch = _compare(_naive_shapley(ts, obj, run, PESSIMISTIC, players),
                        expected)
    if mismatch is not None:
        problems.append(f"the naive sum disagrees with the reference: "
                        f"{mismatch}")
    return Prepared(["analyze", path, "--objective", "reachability",
                     "--target-label", "success", "--group-by-module"],
                    lambda out: _compare(_table_values(out), expected),
                    problems)


WORKLOADS: Dict[str, Tuple[str, Callable[[int, str], Prepared]]] = {
    "analyze-exp": ("model.json", _analyze_exp),
    "refine-clouds": ("model.json", _refine_clouds),
    "positivity-buechi": ("model.json", _positivity_buechi),
    "analyze-lab": ("model.prism", _analyze_lab),
}


def prepare(name: str, seed: int, workdir: str) -> Prepared:
    filename, make = WORKLOADS[name]
    return make(seed, f"{workdir}/{filename}")
