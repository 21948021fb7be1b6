"""End-to-end command-line behaviour, exit codes and file outputs."""

import json
import re
import time
from pathlib import Path
from unittest import mock

import pytest

import respgame.shapley
from respgame.cli import build_parser, run_cli

MODELS = Path(__file__).resolve().parent.parent / "models"
DOCS = Path(__file__).resolve().parent.parent / "docs"


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_recurrence_model_table(capsys):
    code, out, _ = run(capsys, "analyze", str(MODELS / "recurrence_demo.json"),
                       "--mode", "optimistic")
    assert code == 0
    rows = [line.split() for line in out.splitlines()
            if line and line[0] == "s"]
    assert rows[0][0] == "s2" and rows[0][1] == "2/3"


def test_analyze_pessimistic_values(capsys):
    code, out, _ = run(capsys, "analyze", str(MODELS / "recurrence_demo.json"),
                       "--mode", "pessimistic", "--format", "records")
    assert code == 0
    doc = json.loads(out)
    values = {p["name"]: (p["numerator"], p["denominator"])
              for p in doc["players"]}
    assert values["s2"] == (3, 4) and values["s4"] == (1, 12)


def test_analyze_unwinnable_notes_degenerate_case(capsys):
    code, out, _ = run(capsys, "analyze", str(MODELS / "unwinnable.json"))
    assert code == 0
    assert "objective unsatisfiable; all responsibilities 0" in out
    assert "yes" not in out


def test_refine_worked_example_trace(capsys, tmp_path):
    code, out, _ = run(capsys, "refine", str(MODELS / "refinement_demo.json"),
                       "--refine", "frontier-random", "--seed", "7",
                       "--no-prune", "--explain")
    assert code == 0
    assert "iteration 1" in out
    for name, value in (("s2", "5/12"), ("s3", "5/12"), ("s6", "1/12"),
                        ("s8", "1/12")):
        assert f"{name}" in out and value in out


def test_refine_records_deterministic(capsys):
    args = ("refine", str(MODELS / "refinement_demo.json"), "--refine",
            "frontier-random", "--seed", "3", "--format", "records")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == "respgame-report-v1"
    assert "trace" in doc


def test_positivity_uses_fast_paths(capsys, tmp_path):
    model = tmp_path / "clouds3.json"
    code, _, _ = run(capsys, "generate", "--family", "clouds", "--size", "3",
                     "-o", str(model))
    assert code == 0
    code, out, _ = run(capsys, "positivity", str(model),
                       "--mode", "optimistic")
    assert code == 0 and "crit" in out
    code, out, _ = run(capsys, "positivity", str(MODELS / "recurrence_demo.json"),
                       "--mode", "optimistic")
    assert code == 0
    assert "s2" in out and "s4" not in out


def test_oracle_minimal_coalitions(capsys, tmp_path):
    model = tmp_path / "ladder.json"
    run(capsys, "generate", "--family", "exp-coalitions", "--size", "2",
        "-o", str(model))
    code, out, _ = run(capsys, "oracle", str(model), "--mode", "optimistic",
                       "--minimal-coalitions")
    assert code == 0
    assert "minimal winning coalitions: 4" in out


def test_oracle_minimal_coalitions_solve_one_table(capsys, monkeypatch):
    # two pruning games, then one game per coalition of the four players
    builds = []
    real = respgame.shapley.build_game
    monkeypatch.setattr(respgame.shapley, "build_game",
                        lambda *a: builds.append(a) or real(*a))
    code, out, _ = run(capsys, "oracle", str(MODELS / "recurrence_demo.json"),
                       "--minimal-coalitions")
    assert code == 0 and "minimal winning coalitions:" in out
    assert len(builds) == 2 + 2 ** 4


def test_analyze_records_file(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, _, _ = run(capsys, "analyze", str(MODELS / "recurrence_demo.json"),
                     "--mode", "optimistic", "--format", "records",
                     "-o", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert len(doc["players"]) == 6
    top = doc["players"][0]
    assert top["name"] == "s2"
    assert (top["numerator"], top["denominator"]) == (2, 3)


def test_analyze_records_empty_player_set(capsys, tmp_path):
    model = tmp_path / "det.json"
    model.write_text(json.dumps({
        "states": ["a", "b"], "initial": "a",
        "transitions": [["a", "b"], ["b", "a"]],
        "objective": {"kind": "reachability", "target": []},
        "run": {"prefix": [], "loop": ["a", "b"]}}))
    out_file = tmp_path / "report.json"
    code, _, _ = run(capsys, "analyze", str(model), "--format", "records",
                     "-o", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["schema"] == "respgame-report-v1"
    assert all(not p["positive"] for p in doc["players"])


def test_refine_dot_highlights_responsible(capsys, tmp_path):
    out_file = tmp_path / "arena.dot"
    code, _, _ = run(capsys, "refine", str(MODELS / "refinement_demo.json"),
                     "--format", "dot", "-o", str(out_file))
    assert code == 0
    dot = out_file.read_text()
    highlighted = {line.split()[0] for line in dot.splitlines()
                   if "fillcolor=gold" in line}
    assert highlighted == {"n2", "n3", "n6", "n8"}


def test_generate_then_analyze_pipeline(capsys, tmp_path):
    model = tmp_path / "stress.json"
    code, _, _ = run(capsys, "generate", "--family", "frontier-stress-reach",
                     "--size", "2", "-o", str(model))
    assert code == 0
    code, out, _ = run(capsys, "analyze", str(model))
    assert code == 0
    rows = [line.split() for line in out.splitlines() if line]
    assert any(r[0] == "r" and r[1] == "1" for r in rows)


def test_nothing_to_explain_exit_zero(capsys, tmp_path):
    model = tmp_path / "fine.json"
    model.write_text(json.dumps({
        "states": ["a"], "initial": "a", "transitions": [["a", "a"]],
        "objective": {"kind": "safety", "target": []}}))
    code, out, _ = run(capsys, "analyze", str(model))
    assert code == 0
    assert "nothing to explain" in out


def test_player_cap_refusal_exit_one(capsys, tmp_path):
    model = tmp_path / "big.json"
    run(capsys, "generate", "--family", "clouds", "--size", "90",
        "-o", str(model))
    code, _, err = run(capsys, "analyze", str(model))
    assert code == 1
    assert "refused" in err and "cap" in err


def test_timeout_refusal(capsys):
    code, _, err = run(capsys, "refine", str(MODELS / "refinement_demo.json"),
                       "--timeout-s", "0")
    assert code == 1 and "timeout" in err


def test_analyze_timeout_refusal(capsys, tmp_path):
    model = tmp_path / "exp.json"
    run(capsys, "generate", "--family", "exp-coalitions", "--size", "4",
        "-o", str(model))
    # the budget covers pruning too, so not even its two games are solved
    with mock.patch.object(respgame.shapley, "solve",
                           wraps=respgame.shapley.solve) as solve:
        code, _, err = run(capsys, "analyze", str(model), "--timeout-s", "0")
    assert code == 1 and "timeout" in err and solve.call_count == 0


def test_refine_timeout_inside_witness_search(capsys, tmp_path):
    # one iteration's witness search over 17 blocks runs for seconds
    model = tmp_path / "exp8.json"
    run(capsys, "generate", "--family", "exp-coalitions", "--size", "8",
        "-o", str(model))
    start = time.monotonic()
    code, _, err = run(capsys, "refine", str(model), "--initial-blocks", "17",
                       "--no-values", "--timeout-s", "0.2")
    assert code == 1 and "timeout" in err
    assert time.monotonic() - start < 5


def test_positivity_and_oracle_timeout_refusal(capsys):
    # pessimistic positivity runs the refinement loop
    model = str(MODELS / "engraving_demo.json")
    for command in ("positivity", "oracle"):
        code, out, err = run(capsys, command, model, "--timeout-s", "0")
        assert code == 1 and "timeout" in err and not out


def test_polynomial_positivity_timeout_refusal(capsys):
    # optimistic Buechi and optimistic reachability on state players take
    # the polynomial searches, which check the deadline once per state
    for name in ("recurrence_demo.json", "unwinnable.json"):
        code, out, err = run(capsys, "positivity", str(MODELS / name),
                             "--mode", "optimistic", "--timeout-s", "0")
        assert code == 1 and "timeout" in err and not out


def test_input_error_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.json"))
    assert code == 2


def test_run_override_validated(capsys):
    code, _, err = run(capsys, "analyze", str(MODELS / "recurrence_demo.json"),
                       "--run-prefix", "s0", "--run-loop", "s1,s2,s1")
    assert code == 2 and "loop repeats" in err


def test_program_input_with_label_objective(capsys):
    code, out, _ = run(capsys, "analyze", str(MODELS / "clouds.prism"),
                       "--objective", "reachability", "--target-label",
                       "plus", "--mode", "optimistic")
    assert code == 0
    rows = [line.split() for line in out.splitlines() if line]
    assert any(r[0].startswith("loc=4") and r[1] == "1" for r in rows)


def test_group_by_module_pipeline(capsys):
    code, out, _ = run(capsys, "analyze", str(MODELS / "toggle.prism"),
                       "--objective", "buechi", "--target-label", "both",
                       "--group-by-module")
    assert code == 0
    assert "left" in out and "right" in out


def test_state_cap_flag(capsys):
    code, _, err = run(capsys, "analyze", str(MODELS / "clouds.prism"),
                       "--objective", "reachability", "--target-label",
                       "plus", "--state-cap", "5")
    assert code == 2 and "cap" in err


def test_bad_parity_colour_is_an_input_error(capsys):
    for colour in ("both=abc", "both=-1", "both="):
        code, out, err = run(capsys, "analyze", str(MODELS / "toggle.prism"),
                             "--objective", "parity", "--colour", colour)
        assert code == 2 and not out
        assert err == (f"error: bad --colour {colour!r}; "
                       f"N must be a non-negative integer\n")


def test_unreadable_input_is_an_input_error(capsys, tmp_path):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe")
    model = str(MODELS / "groups_demo.json")
    for bad, argv in ((tmp_path, ("analyze", str(tmp_path))),
                      (binary, ("analyze", str(binary))),
                      (binary, ("analyze", str(binary), "--lang", "program")),
                      (binary, ("analyze", str(binary), "--lang", "explicit")),
                      (binary, ("analyze", model, "--groups", str(binary)))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and err.startswith("error: ")
        assert str(bad) in err and model not in err


def _exit_code(argv):
    try:
        return run_cli(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ("export",),
    ("analyze", "--seed", "1"),
    ("analyze", "--block-cap", "3"),
    ("analyze", "--oracle-cap", "3"),
    ("positivity", "--format", "records"),
    ("positivity", "--player-cap", "3"),
    ("oracle", "--seed", "1"),
    ("oracle", "--player-cap", "3"),
    ("oracle", "--block-cap", "3"),
    ("oracle", "--format", "records"),
    ("refine", "--oracle-cap", "3"),
    ("refine", "--minimal-coalitions"),
])
def test_flags_a_command_does_not_read_are_usage_errors(capsys, argv):
    argv = [argv[0], str(MODELS / "recurrence_demo.json"), *argv[1:]]
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err and not captured.out


@pytest.mark.parametrize("argv", [
    ("analyze", "--timeout-s", "-1"),
    ("analyze", "--timeout-s", "nan"),
    ("analyze", "--player-cap", "-1"),
    ("refine", "--player-cap", "-1"),
    ("refine", "--block-cap", "-1"),
    ("positivity", "--block-cap", "-3"),
    ("oracle", "--oracle-cap", "-1"),
    ("oracle", "--state-cap", "-1"),
])
def test_negative_flag_values_are_usage_errors(capsys, argv):
    # a negative cap or budget is a malformed flag, not a refusal (exit 1)
    flag = argv[1]
    argv = [argv[0], str(MODELS / "recurrence_demo.json"), *argv[1:]]
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err and not captured.out
    assert f"argument {flag}: must be a non-negative number" in captured.err


def test_zero_cap_is_a_refusal(capsys):
    code, out, err = run(capsys, "analyze", str(MODELS / "recurrence_demo.json"),
                         "--player-cap", "0")
    assert code == 1 and "cap of 0" in err and not out


def test_target_flags_with_a_parity_objective_are_input_errors(capsys):
    for flags in (("--target-label", "crit"), ("--target", "loc=0")):
        code, out, err = run(capsys, "analyze", str(MODELS / "clouds.prism"),
                             "--objective", "parity", *flags)
        assert code == 2 and not out
        assert err == ("error: --target and --target-label do not apply to "
                       "a parity objective; use --colour\n")


def test_colour_with_a_non_parity_objective_is_an_input_error(capsys):
    for kind in ("safety", "reachability", "buechi"):
        code, out, err = run(capsys, "analyze", str(MODELS / "toggle.prism"),
                             "--objective", kind, "--target-label", "both",
                             "--colour", "both=1")
        assert code == 2 and not out
        assert err == (f"error: --colour applies to a parity objective "
                       f"only, not {kind}\n")


def test_generate_centrifuge_analog_bad_size(capsys):
    for size, message in (("-1", "needs at least one analyser"),
                          ("1", "buggy analyser index out of range")):
        code, out, err = run(capsys, "generate", "--family",
                             "centrifuge-analog", "--size", size)
        assert code == 2 and not out and message in err


def test_refine_text_only_flags_need_the_table_format(capsys):
    model = str(MODELS / "refinement_demo.json")
    for flag, form in (("--no-values", "records"), ("--explain", "dot"),
                       ("--no-values", "dot"), ("--explain", "records")):
        code, out, err = run(capsys, "refine", model, flag, "--format", form)
        assert code == 2 and not out
        assert err == "error: --no-values and --explain need --format table\n"


def _documented_flags():
    """command -> flags named in the first column of its docs/cli.md tables;
    a table under a heading naming several commands belongs to each."""
    flags = {}
    commands = ()
    for line in (DOCS / "cli.md").read_text().splitlines():
        if line.startswith("#"):
            commands = re.findall(r"`([a-z]+)`", line)
            for command in commands:
                flags.setdefault(command, set())
        elif line.startswith("| `") and commands:
            cell = re.split(r"(?<!\\)\|", line)[1]
            for span in re.findall(r"`([^`]+)`", cell):
                for command in commands:
                    flags[command].add(span.split()[0])
    return flags


def _parser_flags():
    subs = next(a for a in build_parser()._actions if a.choices)
    out = {}
    for command, sub in subs.choices.items():
        names = set()
        for action in sub._actions:
            if action.dest == "help":
                continue
            names.update(action.option_strings or [action.dest.upper()])
        out[command] = names
    return out


def test_cli_docs_list_exactly_the_flags_each_command_accepts():
    documented = _documented_flags()
    parsed = _parser_flags()
    assert sorted(documented) == sorted(parsed)
    for command, names in parsed.items():
        assert documented[command] == names, command
