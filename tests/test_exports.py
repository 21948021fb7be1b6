"""The records document and the table: their exact bytes, their row order
and `positive`."""

import json
import random
import re
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest

from respgame import exports
from respgame.cli import run_cli
from respgame.explicit import serialize_explicit
from respgame.exports import records_document, render_table
from respgame.generators import generate
from respgame.refinement import IterationRecord, RefinementResult
from respgame.shapley import ResponsibilityReport

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"


def reference_rows(report):
    """(name, value) rows by descending value, then player order."""
    order = {name: i for i, name in enumerate(report.names)}
    return sorted(zip(report.names, report.values),
                  key=lambda row: (-row[1], order[row[0]]))


def reference_document(report, refinement=None):
    """The records document built as a dict of dicts and laid out by
    json.dumps(indent=2), the layout docs/report.md specifies."""
    rows = reference_rows(report)
    doc = {
        "schema": exports.REPORT_SCHEMA,
        "mode": report.mode,
        "player_kind": report.player_kind,
        "players": [{"name": name,
                     "numerator": value.numerator,
                     "denominator": value.denominator,
                     "positive": value > 0} for name, value in rows],
        "stats": {"games_solved": report.games_solved,
                  "memo_hits": report.memo_hits},
    }
    if refinement is not None:
        doc["trace"] = exports.trace_records(refinement.trace)
    return json.dumps(doc, indent=2) + "\n"


def reference_table(report, note=None):
    """The table formatted row by row, the layout docs/report.md gives."""
    lines = []
    if note:
        lines.append(f"note: {note}")
    width = max([len(n) for n in report.names] + [len("player")])
    lines.append(f"{'player':<{width}}  {'value':>10}  {'decimal':>10}  "
                 f"positive")
    for name, value in reference_rows(report):
        dec = f"{float(value):.6f}"
        lines.append(f"{name:<{width}}  {str(value):>10}  {dec:>10}  "
                     f"{'yes' if value > 0 else 'no'}")
    lines.append(f"games solved: {report.games_solved}, "
                 f"memo hits: {report.memo_hits}")
    return "\n".join(lines) + "\n"


_NAMES = ("s{}", "x{}", "café{}", 'q"uote{}', "back\\slash{}", "new\nline{}",
          "a-long-player-name-{}")


def random_report(rng):
    """A report with long runs of zero rows (`Fraction(0)` shared and
    `Fraction(0, 5)` apart), ties, negative values and escaped names."""
    shared_zero = Fraction(0)
    values = []
    n = rng.choice((0, 1, 5, 40, 300))
    while len(values) < n:
        if rng.random() < 0.6:
            values += [rng.choice((shared_zero, Fraction(0, 5)))
                       for _ in range(rng.randrange(1, 60))]
        else:
            numerator = rng.randrange(-4, 5) * 3 ** rng.randrange(20)
            values.append(Fraction(numerator, rng.choice((1, 2, 3, 12))))
    values = tuple(values[:n])
    names = tuple(rng.choice(_NAMES).format(i) for i in range(n))
    return ResponsibilityReport(rng.choice(("states", "blocks")),
                                rng.choice(("optimistic", "pessimistic")),
                                names, values, rng.randrange(100),
                                rng.randrange(100))


def _cli_documents(monkeypatch, capsys, *argv):
    """Run the CLI; return its output and the reference document for the
    report (and refinement) it rendered."""
    seen = []
    real = exports.records_document

    def recording(report, refinement=None):
        seen.append((report, refinement))
        return real(report, refinement)

    monkeypatch.setattr(exports, "records_document", recording)
    assert run_cli(list(argv)) == 0
    out = capsys.readouterr().out
    assert len(seen) == 1
    return out, reference_document(*seen[0])


@pytest.fixture
def clouds(tmp_path):
    path = tmp_path / "clouds.json"
    path.write_text(serialize_explicit(generate("clouds", 6)))
    return str(path)


def test_analyze_records_match_reference(monkeypatch, capsys, clouds):
    out, expected = _cli_documents(monkeypatch, capsys, "analyze", clouds,
                                   "--format", "records")
    assert out == expected
    doc = json.loads(out)
    assert "trace" not in doc and len(doc["players"]) > 10
    assert any(p["positive"] for p in doc["players"])
    assert any(not p["positive"] for p in doc["players"])


def test_refine_records_match_reference(monkeypatch, capsys, clouds):
    out, expected = _cli_documents(monkeypatch, capsys, "refine", clouds,
                                   "--initial-blocks", "2", "--seed", "3",
                                   "--format", "records")
    assert out == expected
    trace = json.loads(out)["trace"]
    assert len(trace) > 1 and trace[-1]["split"] is None


def test_block_names_are_escaped_as_json_dumps_does(monkeypatch, capsys,
                                                    tmp_path):
    groups = tmp_path / "groups.json"
    groups.write_text(json.dumps({"q\"uote": ["s0"], "back\\slash": ["s1"],
                                  "new\nline": ["s2"], "café": ["s3"]}))
    out, expected = _cli_documents(
        monkeypatch, capsys, "analyze", str(MODELS / "groups_demo.json"),
        "--groups", str(groups), "--format", "records")
    assert out == expected
    for escaped in ('"q\\"uote"', '"back\\\\slash"', '"new\\nline"',
                    '"caf\\u00e9"'):
        assert f'"name": {escaped},' in out
    assert out.isascii()


def test_empty_player_set_matches_reference():
    report = ResponsibilityReport("states", "optimistic", (), ())
    text = records_document(report)
    assert text == reference_document(report)
    assert '  "players": [],\n' in text


def test_trace_with_empty_and_null_fields_matches_reference():
    report = ResponsibilityReport("blocks", "forward", ("a", "b"),
                                  (Fraction(1, 2), Fraction(1, 2)), 3, 1)
    trace = [
        IterationRecord(1, {0: ("a", "b")}, {}),
        IterationRecord(2, {1: ("a",), 2: ("b",)}, {1: (2,), 2: ()},
                        selected=1, delta_size=2, frontier=(),
                        split_state=None),
        IterationRecord(3, {}, {5: (1, 2)}, selected=None,
                        delta_size=0, frontier=("s1", "s0"), split_state="s1"),
    ]
    refinement = RefinementResult(frozenset({0, 1}), trace, {})
    text = records_document(report, refinement)
    assert text == reference_document(report, refinement)
    records = json.loads(text)["trace"]
    assert records[0]["witnesses"] == {} and records[0]["frontier"] == []
    assert records[0]["selected"] is None and records[0]["split"] is None


def test_values_past_64_bits_match_reference():
    big = Fraction(2 ** 70 + 1, 2 ** 65 + 3)
    report = ResponsibilityReport(
        "states", "pessimistic", ("s0", "s1", "s2"),
        (Fraction(1, 2 ** 64 + 7), big, Fraction(0)))
    text = records_document(report)
    assert text == reference_document(report)
    players = json.loads(text)["players"]
    assert (players[0]["numerator"], players[0]["denominator"]) == \
        (big.numerator, big.denominator)
    assert players[1]["denominator"] == 2 ** 64 + 7


def test_positive_is_value_above_zero():
    values = (Fraction(0), Fraction(0, 7), Fraction(1, 9), Fraction(5, 3),
              Fraction(-1, 4))
    names = tuple(f"s{i}" for i in range(len(values)))
    report = ResponsibilityReport("states", "pessimistic", names, values)
    players = json.loads(records_document(report))["players"]
    by_name = dict(zip(names, values))
    assert len(players) == len(values)
    for record in players:
        assert record["positive"] is (by_name[record["name"]] > 0)


def test_random_reports_match_the_references():
    # after the random reports, a hand-picked tie: equal values as distinct
    # Fractions and both zero forms keep player order among themselves
    values = (Fraction(1, 3), Fraction(0), Fraction(2, 6), Fraction(0, 5),
              Fraction(1, 2), Fraction(3, 9))
    assert values[0] == values[2] and values[0] is not values[2]
    tie = ResponsibilityReport("states", "pessimistic",
                               tuple(f"p{i}" for i in range(6)), values)
    assert [name for name, _ in reference_rows(tie)] == [
        "p4", "p0", "p2", "p5", "p1", "p3"]
    rng = random.Random(31)
    zero_rows = 0
    for report in chain((random_report(rng) for _ in range(300)), [tie]):
        zero_rows += sum(value == 0 for value in report.values)
        note = rng.choice((None, "", "objective unsatisfiable; "
                                     "all responsibilities 0"))
        assert render_table(report, note=note) == \
            reference_table(report, note), report
        assert records_document(report) == reference_document(report), report
    assert zero_rows > 10_000


def test_table_rows_and_note():
    report = ResponsibilityReport(
        "states", "pessimistic", ("p", "é", "a-long-name"),
        (Fraction(0, 5), Fraction(-1, 3), Fraction(2, 3)), 4, 2)
    assert render_table(report, note="unsatisfiable") == (
        "note: unsatisfiable\n"
        "player            value     decimal  positive\n"
        "a-long-name         2/3    0.666667  yes\n"
        "p                     0    0.000000  no\n"
        "é                  -1/3   -0.333333  no\n"
        "games solved: 4, memo hits: 2\n")
    empty = ResponsibilityReport("states", "optimistic", (), ())
    assert render_table(empty) == reference_table(empty) == (
        "player       value     decimal  positive\n"
        "games solved: 0, memo hits: 0\n")


def test_doc_examples_are_what_the_tool_prints(capsys, tmp_path):
    docs = ROOT / "docs"
    report_md, trace_md = ((docs / name).read_text()
                           for name in ("report.md", "trace.md"))
    groups = re.search(r"`halves.json` holding `(.*?)`", report_md).group(1)
    (tmp_path / "halves.json").write_text(groups)
    argv = [str(MODELS / "groups_demo.json"), "--groups",
            str(tmp_path / "halves.json"), "--format", "records"]
    example = re.search(r"```json\n(.*?)```", report_md, re.S).group(1)
    assert run_cli(["analyze", *argv]) == 0
    assert capsys.readouterr().out == example
    example = re.search(r"```json\n(.*?)```", trace_md, re.S).group(1)
    assert run_cli(["refine", *argv]) == 0
    first = json.loads(capsys.readouterr().out)["trace"][0]
    assert json.dumps(first, indent=2) + "\n" == example
    command, example = re.search(r"`(respgame analyze [^`]*)` prints "
                                 r"exactly:\n\n```text\n(.*?)```",
                                 report_md, re.S).groups()
    argv = [str(ROOT / arg) if arg.startswith("models/") else arg
            for arg in command.split()[1:]]
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == example
