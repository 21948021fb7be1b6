"""Result rendering: tables, machine-readable records, annotated DOT."""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode_str
from operator import itemgetter
from typing import Optional

from .games import arena_to_dot, build_game
from .refinement import RefinementResult
from .shapley import PayoffGame, ResponsibilityReport

REPORT_SCHEMA = "respgame-report-v1"


def sorted_rows(report: ResponsibilityReport):
    """(name, value) rows sorted by descending value, then by player order.

    Rows are split by the sign of the value first, so the zero rows, most
    of a large report, keep their player order without a `Fraction`
    comparison each.  A reverse sort is stable, so equal values keep their
    player order."""
    positive, zero, negative = [], [], []
    for row in zip(report.names, report.values):
        sign = row[1].numerator
        (positive if sign > 0 else negative if sign else zero).append(row)
    positive.sort(key=itemgetter(1), reverse=True)
    negative.sort(key=itemgetter(1), reverse=True)
    return positive + zero + negative


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


def _member(key: str, value) -> str:
    """`"key": value` laid out as json.dumps(indent=2) does one level deep;
    json.dumps never emits a raw newline inside a string."""
    return f'  "{key}": ' + json.dumps(value, indent=2).replace("\n", "\n  ")


def _players_member(rows) -> str:
    """The players array, byte for byte as json.dumps(indent=2) writes it.

    Written record by record because json.dumps with an indent runs the
    pure-Python encoder, and this array is nearly the whole document."""
    if not rows:
        return '  "players": []'
    records = ",\n".join([
        f'    {{\n      "name": {_encode_str(name)},\n'
        f'      "numerator": {value.numerator},\n'
        f'      "denominator": {value.denominator},\n'
        f'      "positive": {"true" if value.numerator > 0 else "false"}\n'
        f'    }}' for name, value in rows])
    return f'  "players": [\n{records}\n  ]'


def records_document(report: ResponsibilityReport,
                     refinement: Optional[RefinementResult] = None) -> str:
    """Machine-readable report; schema and layout in docs/report.md."""
    members = [
        _member("schema", REPORT_SCHEMA),
        _member("mode", report.mode),
        _member("player_kind", report.player_kind),
        _players_member(sorted_rows(report)),
        _member("stats", {"games_solved": report.games_solved,
                          "memo_hits": report.memo_hits}),
    ]
    if refinement is not None:
        members.append(_member("trace", trace_records(refinement.trace)))
    return "{\n" + ",\n".join(members) + "\n}\n"


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
