"""Result rendering: tables, machine-readable records, annotated DOT."""

from __future__ import annotations

import json
from typing import Optional

from .games import arena_to_dot, build_game
from .refinement import RefinementResult
from .shapley import PayoffGame, ResponsibilityReport

REPORT_SCHEMA = "respgame-report-v1"


def sorted_rows(report: ResponsibilityReport):
    """(name, value) rows sorted by descending value, then by player order."""
    order = {name: i for i, name in enumerate(report.names)}
    rows = list(zip(report.names, report.values))
    rows.sort(key=lambda row: (-row[1], order[row[0]]))
    return rows


def render_table(report: ResponsibilityReport,
                 note: Optional[str] = None) -> str:
    lines = []
    if note:
        lines.append(f"note: {note}")
    width = max([len(n) for n in report.names] + [len("player")])
    lines.append(f"{'player':<{width}}  {'value':>10}  {'decimal':>10}  positive")
    for name, value in sorted_rows(report):
        dec = f"{float(value):.6f}"
        lines.append(f"{name:<{width}}  {str(value):>10}  {dec:>10}  "
                     f"{'yes' if value > 0 else 'no'}")
    lines.append(f"games solved: {report.games_solved}, "
                 f"memo hits: {report.memo_hits}")
    return "\n".join(lines) + "\n"


def trace_records(trace):
    out = []
    for rec in trace:
        out.append({
            "index": rec.index,
            "partition": {str(bid): list(members)
                          for bid, members in sorted(rec.partition.items())},
            "witnesses": {str(bid): sorted(map(int, coalition))
                          for bid, coalition in sorted(rec.witnesses.items())},
            "selected": rec.selected,
            "delta_size": len(rec.delta),
            "frontier": sorted(rec.frontier),
            "split": rec.split_state,
        })
    return out


def records_document(report: ResponsibilityReport,
                     refinement: Optional[RefinementResult] = None) -> str:
    """Machine-readable report; schema documented in docs/report.md."""
    players = [{
        "name": name,
        "numerator": value.numerator,
        "denominator": value.denominator,
        "positive": value > 0,
    } for name, value in sorted_rows(report)]
    doc = {
        "schema": REPORT_SCHEMA,
        "mode": report.mode,
        "player_kind": report.player_kind,
        "players": players,
        "stats": {"games_solved": report.games_solved,
                  "memo_hits": report.memo_hits},
    }
    if refinement is not None:
        doc["trace"] = trace_records(refinement.trace)
    return json.dumps(doc, indent=2) + "\n"


def render_trace_text(trace) -> str:
    """Human-oriented refinement trace; structure matches docs/trace.md."""
    lines = []
    for rec in trace_records(trace):
        lines.append(f"iteration {rec['index']}")
        for bid, members in rec["partition"].items():
            mark = " *" if rec["selected"] is not None and \
                str(rec["selected"]) == bid else ""
            lines.append(f"  block {bid}{mark}: {{{', '.join(members)}}}")
        if rec["witnesses"]:
            pairs = ", ".join(f"{bid} <- {c}"
                              for bid, c in rec["witnesses"].items())
            lines.append(f"  witnesses: {pairs}")
        if rec["split"] is not None:
            lines.append(f"  delta size {rec['delta_size']}, "
                         f"frontier {{{', '.join(rec['frontier'])}}}, "
                         f"split {rec['split']}")
        else:
            lines.append("  all witness blocks singleton; stopping")
    return "\n".join(lines) + "\n"


def dot_document(pg: PayoffGame, report: ResponsibilityReport) -> str:
    """Arena DOT annotated with values; positive players highlighted."""
    game = build_game(pg.ts, pg.objective, pg.run,
                      frozenset(range(len(pg.ts))), pg.mode)
    name_to_states = dict(zip(pg.players.names, pg.players.members))
    values = {}
    positives = set()
    for name, value in zip(report.names, report.values):
        states = name_to_states.get(name)
        if states is None:
            if report.player_kind != "states":
                continue
            states = (pg.ts.index_of(name),)  # zero row for a pruned state
        for s in states:
            values[s] = str(value)
            if value > 0:
                positives.add(s)
    return arena_to_dot(game, run=pg.run, values=values, positives=positives)
