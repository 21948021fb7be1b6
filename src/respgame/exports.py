"""Result rendering: tables, machine-readable records, annotated DOT."""

from __future__ import annotations

import json
from itertools import compress, repeat
from json.encoder import encode_basestring_ascii as _encode_str
from operator import itemgetter, not_
from typing import Optional

from .refinement import RefinementResult
from .shapley import PayoffGame, ResponsibilityReport

REPORT_SCHEMA = "respgame-report-v1"


def _by_sign(report: ResponsibilityReport):
    """(positive, zero, negative): the positive and the negative (name,
    value) rows, each sorted by descending value, and one flag per row,
    true where the value is zero.

    A reverse sort is stable, so equal values keep their player order.
    The zero rows, most of a large report, are neither sorted nor made
    into rows: `compress` picks them out in player order."""
    zero = [not value.numerator for value in report.values]
    positive, negative = [], []
    for row in compress(zip(report.names, report.values), map(not_, zero)):
        (positive if row[1].numerator > 0 else negative).append(row)
    positive.sort(key=itemgetter(1), reverse=True)
    negative.sort(key=itemgetter(1), reverse=True)
    return positive, zero, negative


# the columns of a zero row after its padded name
_ZERO_COLUMNS = f"  {'0':>10}  {'0.000000':>10}  no\n"


def _table_row(name: str, value, width: int, mark: str) -> str:
    dec = f"{float(value):.6f}"
    return f"{name:<{width}}  {str(value):>10}  {dec:>10}  {mark}\n"


def render_table(report: ResponsibilityReport,
                 note: Optional[str] = None) -> str:
    """Human-oriented table; layout in docs/report.md.  The zero rows are
    written in one join over their padded names."""
    positive, zero, negative = _by_sign(report)
    width = max(len("player"), max(map(len, report.names), default=0))
    lines = [f"note: {note}\n"] if note else []
    lines.append(f"{'player':<{width}}  {'value':>10}  {'decimal':>10}  "
                 f"positive\n")
    lines += [_table_row(name, value, width, "yes")
              for name, value in positive]
    zero_names = list(compress(report.names, zero))
    if zero_names:
        padded = map(str.ljust, zero_names, repeat(width))
        lines += (_ZERO_COLUMNS.join(padded), _ZERO_COLUMNS)
    lines += [_table_row(name, value, width, "no")
              for name, value in negative]
    lines.append(f"games solved: {report.games_solved}, "
                 f"memo hits: {report.memo_hits}\n")
    return "".join(lines)


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
            "delta_size": rec.delta_size,
            "frontier": sorted(rec.frontier),
            "split": rec.split_state,
        })
    return out


def _member(key: str, value) -> str:
    """`"key": value` laid out as json.dumps(indent=2) does one level deep;
    json.dumps never emits a raw newline inside a string."""
    return f'  "{key}": ' + json.dumps(value, indent=2).replace("\n", "\n  ")


def _record(name: str, value) -> str:
    """One players record, as json.dumps(indent=2) writes it in the array."""
    return (f'    {{\n      "name": {_encode_str(name)},\n'
            f'      "numerator": {value.numerator},\n'
            f'      "denominator": {value.denominator},\n'
            f'      "positive": {"true" if value.numerator > 0 else "false"}\n'
            f'    }}')


# a zero row's record is these two texts around its encoded name
_ZERO_HEAD = '    {\n      "name": '
_ZERO_TAIL = (',\n      "numerator": 0,\n      "denominator": 1,\n'
              '      "positive": false\n    }')


def _players_pieces(positive, zero_names, negative) -> list:
    """The players member as pieces to concatenate, byte for byte as
    json.dumps(indent=2) writes it.

    Written record by record because json.dumps with an indent runs the
    pure-Python encoder, and this array is nearly the whole document; the
    zero rows are one join of their encoded names between the zero-record
    texts."""
    pieces = []
    for name, value in positive:
        pieces += (",\n", _record(name, value))
    if zero_names:
        names = map(_encode_str, zero_names)
        pieces += (",\n", _ZERO_HEAD,
                   (_ZERO_TAIL + ",\n" + _ZERO_HEAD).join(names), _ZERO_TAIL)
    for name, value in negative:
        pieces += (",\n", _record(name, value))
    if not pieces:
        return ['  "players": []']
    pieces[0] = '  "players": [\n'  # in place of the first separator
    pieces.append("\n  ]")
    return pieces


def records_document(report: ResponsibilityReport,
                     refinement: Optional[RefinementResult] = None) -> str:
    """Machine-readable report; schema and layout in docs/report.md.

    The members are pieces of one list, joined once into the document."""
    pieces = ["{\n"]
    for key, value in (("schema", REPORT_SCHEMA), ("mode", report.mode),
                       ("player_kind", report.player_kind)):
        pieces += (_member(key, value), ",\n")
    positive, zero, negative = _by_sign(report)
    pieces += _players_pieces(positive, list(compress(report.names, zero)),
                              negative)
    pieces += (",\n", _member("stats", {"games_solved": report.games_solved,
                                        "memo_hits": report.memo_hits}))
    if refinement is not None:
        pieces += (",\n", _member("trace", trace_records(refinement.trace)))
    pieces.append("\n}\n")
    return "".join(pieces)


def render_trace_text(trace) -> str:
    """Human-oriented refinement trace; structure matches docs/trace.md.
    Blocks, witnesses and frontier names in the order of `trace_records`."""
    lines = []
    for rec in trace:
        lines.append(f"iteration {rec.index}")
        for bid, members in sorted(rec.partition.items()):
            mark = " *" if bid == rec.selected else ""
            lines.append(f"  block {bid}{mark}: {{{', '.join(members)}}}")
        if rec.witnesses:
            pairs = ", ".join(f"{bid} <- {sorted(c)}"
                              for bid, c in sorted(rec.witnesses.items()))
            lines.append(f"  witnesses: {pairs}")
        if rec.split_state is not None:
            lines.append(f"  delta size {rec.delta_size}, "
                         f"frontier {{{', '.join(sorted(rec.frontier))}}}, "
                         f"split {rec.split_state}")
        else:
            lines.append("  all witness blocks singleton; stopping")
    return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    """`text` for the inside of a quoted DOT string: a backslash and a
    quote escaped, a newline written as DOT's `\\n` line break."""
    return (text.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def dot_document(pg: PayoffGame, report: ResponsibilityReport) -> str:
    """The model as DOT, annotated with values; positive players
    highlighted.  Attribute contract in docs/dot.md.

    It draws the full-coalition arena, which is the model itself: the full
    coalition owns every state, so every node is a box, and engraving cuts
    no edge.  The report has a row for every player and every pruned
    state, so every state has a value."""
    ts = pg.ts
    name_to_states = dict(zip(pg.players.names, pg.players.members))
    values = {}
    for name, value in zip(report.names, report.values):
        states = name_to_states.get(name)
        if states is None:  # the zero row of a pruned state
            states = (ts.index_of(name),)
        for s in states:
            values[s] = value
    run_edges = set(pg.run.edges()) if pg.run is not None else set()
    lines = ["digraph arena {", "  rankdir=LR;"]
    for s, name in enumerate(ts.names):
        attrs = [f'label="{_dot_escape(name)}\\n{values[s]}"', "shape=box"]
        if s == ts.initial:
            attrs.append("penwidth=2")
        if values[s] > 0:
            attrs += ("style=filled", "fillcolor=gold")
        lines.append(f'  n{s} [{", ".join(attrs)}];')
    for s, t in ts.edges():
        if (s, t) in run_edges:
            lines.append(f'  n{s} -> n{t} [color=red, style=bold, run="1"];')
        else:
            lines.append(f"  n{s} -> n{t};")
    lines.append("}")
    return "\n".join(lines) + "\n"
