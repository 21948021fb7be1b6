"""End-to-end command-line behaviour, exit codes and file outputs."""

import argparse
import gc
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

from conftest import spy_everywhere

import respgame.cli
import respgame.explicit
import respgame.games
import respgame.grouping
import respgame.shapley
from respgame import HeuristicsConfig, generate, serialize_explicit
from respgame.cli import build_parser, run_cli
from respgame.model import require_valid_run

MODELS = Path(__file__).resolve().parent.parent / "models"
DOCS = Path(__file__).resolve().parent.parent / "docs"
SRC = Path(__file__).resolve().parent.parent / "src"
RUN_CLI = ("import sys; from respgame.cli import run_cli; "
           "sys.exit(run_cli(sys.argv[1:]))")


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


@pytest.mark.parametrize("family, size, expected", [
    ("clouds", 4, "{crit}"),
    ("exp-coalitions", 4, "{s0, s1a, s1b, s2a, s2b, s3a, s3b, s4a, s4b}"),
])
def test_polynomial_positivity_solves_no_pruning_games(capsys, monkeypatch,
                                                       tmp_path, family,
                                                       size, expected):
    # optimistic reachability (clouds) and Buechi (exp-coalitions) on state
    # players read no player set; the refinement fallback still prunes
    model = tmp_path / "model.json"
    run(capsys, "generate", "--family", family, "--size", str(size),
        "-o", str(model))
    calls = []
    prune = respgame.cli.prune_dummies
    monkeypatch.setattr(respgame.cli, "prune_dummies",
                        lambda *args: calls.append(args) or prune(*args))
    code, out, _ = run(capsys, "positivity", str(model), "--mode",
                       "optimistic")
    assert code == 0 and not calls
    assert out == f"positive responsibility: {expected}\n"
    code, out, _ = run(capsys, "positivity", str(model), "--mode",
                       "pessimistic")
    assert code == 0 and len(calls) == 1
    assert out == f"positive responsibility: {expected}\n"


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
    for module in (respgame.games, respgame.shapley):
        monkeypatch.setattr(module, "build_game",
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
    with spy_everywhere(respgame.games, "solve") as solve:
        code, _, err = run(capsys, "analyze", str(model), "--timeout-s", "0")
    assert code == 1 and "timeout" in err and solve.call_count == 0


def test_refine_timeout_inside_witness_search(capsys, tmp_path):
    # learning the block game's table over 21 blocks runs for about a second
    model = tmp_path / "exp10.json"
    run(capsys, "generate", "--family", "exp-coalitions", "--size", "10",
        "-o", str(model))
    start = time.monotonic()
    code, _, err = run(capsys, "refine", str(model), "--initial-blocks", "21",
                       "--no-values", "--timeout-s", "0.2")
    assert code == 1 and "timeout" in err
    assert time.monotonic() - start < 5


@pytest.mark.parametrize("family, size, flags", [
    *(("frontier-stress-reach", 25,
       ("--select", "random", "--refine", "random", "--seed", str(seed)))
      for seed in range(3)),
    ("frontier-stress-safety", 40, ("--seed", "2"))])
def test_refusal_at_the_block_cap_solves_only_new_coalitions(
        capsys, tmp_path, family, size, flags):
    # relearning the whole block table on every pass solved 301 games
    # before this refusal; carrying answers across splits solves 92
    model = tmp_path / "model.json"
    run(capsys, "generate", "--family", family, "--size", str(size),
        "-o", str(model))
    loaded = []
    load = respgame.cli._load_model

    def keep(*args, **kwargs):
        loaded.append(load(*args, **kwargs))
        return loaded[-1]

    with mock.patch.object(respgame.cli, "_load_model", keep):
        code, out, err = run(capsys, "refine", str(model), "--no-values",
                             *flags)
    assert code == 1 and not out
    assert "25 blocks exceed the witness-search cap of 24" in err
    assert loaded[0].games_solved <= 92


def test_run_search_timeout_refusal(capsys):
    # the run search spends the budget, so the players are never chosen
    with mock.patch.object(respgame.cli, "_players_from_flags",
                           wraps=respgame.cli._players_from_flags) as players:
        code, out, err = run(capsys, "analyze",
                             str(MODELS / "recurrence_demo.json"),
                             "--find-run", "--timeout-s", "0")
    assert code == 1 and "timeout" in err and not out
    assert players.call_count == 0


def test_positivity_and_oracle_timeout_refusal(capsys):
    # pessimistic positivity runs the refinement loop
    model = str(MODELS / "engraving_demo.json")
    for command in ("positivity", "oracle"):
        code, out, err = run(capsys, command, model, "--timeout-s", "0")
        assert code == 1 and "timeout" in err and not out


def test_polynomial_positivity_timeout_refusal(capsys):
    # optimistic Buechi and optimistic reachability on state players take
    # the polynomial searches, which solve no pruning games; with no budget
    # left neither prints a result.  The Buechi search on
    # recurrence_demo.json refuses at its first coalition query, and the
    # reachability search on unwinnable.json before its one game
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


def test_document_run_validated_once(capsys):
    # build_system validates a document's run; the CLI checks only that it
    # violates the objective
    spy = mock.Mock(wraps=require_valid_run)
    with mock.patch.object(respgame.explicit, "require_valid_run", spy), \
            mock.patch.object(respgame.cli, "require_valid_run", spy):
        code, _, _ = run(capsys, "analyze",
                         str(MODELS / "recurrence_demo.json"))
    assert code == 0 and spy.call_count == 1


def test_program_run_flags_take_comma_joined_state_names(capsys):
    # every state name of toggle.prism is comma-joined, so the parts of a
    # flag are joined into the longest name the model knows
    toggle = ("analyze", str(MODELS / "toggle.prism"), "--objective",
              "reachability", "--target-label", "both")
    found = run(capsys, *toggle)
    given = run(capsys, *toggle, "--run-loop",
                "a=false,b=false,a=true,b=false")
    assert given == found and found[0] == 0
    code, out, err = run(capsys, *toggle, "--run-loop", "a=false,c=true")
    assert (code, out, err) == (2, "", "error: unknown state 'a=false'\n")
    code, out, err = run(capsys, *toggle, "--run-prefix",
                         "a=false,b=false,,a=true", "--run-loop",
                         "a=true,b=false")
    assert (code, out, err) == (2, "", "error: unknown state 'a=true'\n")


def test_explicit_run_flags_report_the_first_unknown_part(capsys):
    code, out, err = run(capsys, "analyze",
                         str(MODELS / "recurrence_demo.json"),
                         "--run-prefix", "s0,,zz,s1", "--run-loop", "yy")
    assert (code, out, err) == (2, "", "error: unknown state 'zz'\n")


def test_document_groups_are_partition_checked_once(capsys):
    with spy_everywhere(respgame.grouping, "_partition") as spy:
        code, _, _ = run(capsys, "analyze", str(MODELS / "groups_demo.json"))
    assert code == 0 and spy.call_count == 1


def test_run_prefix_without_loop_is_an_input_error(capsys):
    code, out, err = run(capsys, "positivity",
                         str(MODELS / "recurrence_demo.json"),
                         "--run-prefix", "nonexistent_state,zzz")
    assert code == 2 and not out
    assert "error: --run-prefix needs --run-loop" in err


def test_empty_run_loop_is_an_input_error(capsys):
    code, out, err = run(capsys, "positivity",
                         str(MODELS / "recurrence_demo.json"),
                         "--run-loop", "")
    assert code == 2 and not out
    assert "invalid run: loop must be non-empty" in err


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


@pytest.mark.skipif(not Path("/dev/stdin").exists(),
                    reason="the platform has no /dev/stdin")
@pytest.mark.parametrize("model, flags", [
    ("engraving_demo.json", ()),
    ("toggle.prism", ("--objective", "safety", "--target-label", "both")),
])
def test_a_model_piped_into_dev_stdin_is_read_once(capsys, model, flags):
    """A pipe can be read only once: the format is told from the same text
    that is parsed."""
    path = MODELS / model
    env = dict(os.environ, PYTHONPATH=str(SRC))
    piped = subprocess.run(
        [sys.executable, "-c", RUN_CLI, "analyze", "/dev/stdin", *flags],
        input=path.read_bytes(), env=env, capture_output=True, timeout=120)
    code, out, err = run(capsys, "analyze", str(path), *flags)
    assert (piped.returncode, piped.stdout.decode(), piped.stderr.decode()) \
        == (code, out, err)
    assert code == 0 and out


def test_a_document_after_many_blank_lines_is_still_explicit(capsys,
                                                            tmp_path):
    model = MODELS / "engraving_demo.json"
    padded = tmp_path / "padded.json"
    padded.write_text("\n" * 5000 + model.read_text())
    assert run(capsys, "analyze", str(padded)) == \
        run(capsys, "analyze", str(model))


def test_state_cap_flag(capsys):
    code, _, err = run(capsys, "analyze", str(MODELS / "clouds.prism"),
                       "--objective", "reachability", "--target-label",
                       "plus", "--state-cap", "5")
    assert code == 1 and "cap" in err


def test_state_cap_counts_the_initial_state(capsys, tmp_path):
    one = tmp_path / "one.prism"
    one.write_text("module m\n  x : bool init false;\n  [] true -> true;\n"
                   "endmodule\nlabel \"goal\" = x;\n")
    argv = ("analyze", str(one), "--objective", "reachability",
            "--target-label", "goal", "--state-cap")
    code, out, err = run(capsys, *argv, "0")
    assert code == 1 and not out
    assert err == ("refused: state space exceeds the cap of 0\n"
                   "hint: raise --state-cap\n")
    assert run(capsys, *argv, "1")[0] == 0


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
                      (binary, ("analyze", model, "--groups", str(binary)))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and err.startswith("error: ")
        assert str(bad) in err and model not in err


def test_grouping_members_must_be_state_names(capsys, tmp_path):
    model = str(MODELS / "groups_demo.json")
    for member in (["s0"], {}):
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps({"a": [member], "b": ["s1"]}))
        code, out, err = run(capsys, "analyze", model, "--groups", str(groups))
        assert code == 2 and not out
        assert err == "error: group 'a' must list state names\n"


def test_grouping_file_shares_the_document_wording(capsys, tmp_path):
    model = str(MODELS / "groups_demo.json")
    for groups, message in (
            ({"a": ["s0", "x"], "b": ["s1", "s2", "s3"]},
             "unknown state 'x' in group 'a'"),
            ({"a": [], "b": ["s0", "s1", "s2", "s3"]},
             "group 'a' must be a non-empty list"),
            ({"a": ["s0", "s1"], "b": ["s1", "s2", "s3"]},
             "group 'b' overlaps: s1"),
            ({"a": ["s0", "s1"], "b": ["s2"]},
             "groups do not partition the states; missing: s3"),
            ({}, "explicit-list grouping needs blocks")):
        path = tmp_path / "groups.json"
        path.write_text(json.dumps(groups))
        code, out, err = run(capsys, "analyze", model, "--groups", str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")


_DEEP = "[" * 100_000
_NESTED_CONSTANT = ("const int N = " + "(" * 300 + "1" + ")" * 300 + ";\n"
                    "module m\n  x : [0..1] init 0;\n  [] true -> (x'=1);\n"
                    "endmodule\n")
# parsed without deep recursion, but compiled into one closure per term
_LONG_CHAIN = ("formula f = " + "+".join(["x"] * 20_000) + ";\n"
               "module m\n  x : [0..1] init 0;\n  [] f >= 0 -> (x'=1);\n"
               "endmodule\n")


@pytest.mark.parametrize("reader,text,message", [
    ("explicit", '{"states": ' + _DEEP,
     "syntax error: arrays or objects nested too deeply"),
    ("groups", '{"a": ' + _DEEP,
     "syntax error: arrays or objects nested too deeply"),
    ("program", "\n" + _NESTED_CONSTANT,
     "line 2: expression nested too deeply"),
    ("program", _LONG_CHAIN, "line 4: expression nested too deeply"),
])
def test_deep_nesting_is_an_input_error(capsys, tmp_path, reader, text,
                                        message):
    path = tmp_path / "deep"
    path.write_text(text)
    argv = ["analyze", str(path)]
    if reader == "groups":
        argv = ["analyze", str(MODELS / "groups_demo.json"), "--groups",
                str(path)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err == f"error: {message}\n"


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


def test_heuristic_flag_defaults_are_the_config_defaults():
    args = build_parser().parse_args(["refine", "model.json"])
    defaults = HeuristicsConfig()
    assert (args.initial_blocks, args.select, args.refine, args.seed) == (
        defaults.initial_blocks, defaults.select, defaults.refine,
        defaults.rng_seed)
    positivity = build_parser().parse_args(["positivity", "model.json"])
    assert positivity.seed == defaults.rng_seed


def _reference_parser():
    """The parser as `build_parser` made it before the model flags were
    declared once and shared: every command that reads a model adds them
    to itself."""
    cli = respgame.cli
    parser = argparse.ArgumentParser(
        prog="respgame",
        description="Backward responsibility values for lasso counterexamples "
                    "in finite transition systems.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, helptext, own in (
            ("analyze", "exact Shapley responsibility for every player",
             ("--player-cap", "--format")),
            ("positivity", "the set of players with positive responsibility",
             ("--block-cap", "--seed")),
            ("refine", "positivity (and values) via partition refinement",
             ("--player-cap", "--block-cap", "--seed", "--format",
              "--initial-blocks", "--select", "--refine", "--explain",
              "--no-values")),
            ("oracle", "brute-force reference computation",
             ("--oracle-cap", "--minimal-coalitions"))):
        sub = subs.add_parser(name, help=helptext)
        cli._add_model_flags(sub)
        for flag in own:
            sub.add_argument(flag, **cli._OWN_FLAGS[flag])
    gen = subs.add_parser("generate", help="emit a benchmark model document")
    gen.add_argument("--family", choices=cli.FAMILIES, required=True)
    gen.add_argument("--size", type=int, default=0)
    gen.add_argument("--clean", action="store_true",
                     help="centrifuge-analog only: omit the injected bug")
    gen.add_argument("-o", "--output", metavar="FILE")
    return parser


def _help_texts(parser):
    subs = next(a for a in parser._actions if a.choices)
    texts = [parser.format_help(), parser.format_usage()]
    for sub in subs.choices.values():
        texts += [sub.format_help(), sub.format_usage()]
    return texts


# parsed in this order by one parser, so that a flag's state leaking from
# one command or line into the next shows
_ARGV_TABLE = [
    ["analyze", "m.json"],
    ["analyze", "m.json", "--mode", "optimistic", "--player-cap", "5",
     "--format", "records", "--target", "a"],
    ["positivity", "m.json", "--objective", "reachability", "--target", "a",
     "--target", "b", "--seed", "3", "--block-cap", "0"],
    ["refine", "m.json", "--objective", "parity", "--colour", "x=1",
     "--colour", "y=2", "--select", "max-delta", "--refine",
     "frontier-first", "--initial-blocks", "4", "--explain", "--no-values"],
    ["refine", "m.json", "--target", "c"],
    ["oracle", "m.json", "--group-by-label", "a", "--group-by-label", "b",
     "--minimal-coalitions", "--oracle-cap", "7", "--timeout-s", "1.5",
     "--state-cap", "10"],
    ["analyze", "m.json", "--run-prefix", "a,b", "--run-loop", "c",
     "--find-run", "--no-prune", "-o", "out.txt", "--groups", "g.json",
     "--group-by-module", "--target-label", "bad"],
    ["oracle", "m.json"],
    ["generate", "--family", "clouds", "--size", "3", "--clean"],
    ["analyze", "m.json", "--mode", "sideways"],
    ["refine", "m.json", "--timeout-s", "nan"],
    ["positivity", "m.json", "--player-cap", "3"],
    ["oracle"],
]


def _parsed(parser, argv, capsys):
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code, capsys.readouterr().err


def test_shared_model_flags_parse_and_print_as_per_command_flags(
        capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    shared, reference = build_parser(), _reference_parser()
    assert _help_texts(shared) == _help_texts(reference)
    for argv in _ARGV_TABLE:
        assert _parsed(shared, argv, capsys) == _parsed(
            reference, argv, capsys), argv


def test_refine_solves_only_the_first_pruning_game(capsys, monkeypatch,
                                                   tmp_path):
    # pruning solves W(0) cold and seeds W(all states) from it, and the
    # payoff game reads both off the pruning result.  The loop's one
    # witness reads the regions of the empty and the grand coalition,
    # which are those bounds, and the fixpoint reads the final block table
    # without building a witness; so the pruning games are the only
    # solves, and the first is the only cold one
    model = tmp_path / "clouds6.json"
    model.write_text(serialize_explicit(generate("clouds", 6)))
    solve = respgame.games.solve
    calls = []

    def counting(game, *seeded):
        calls.append(seeded)
        return solve(game, *seeded)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "respgame" \
                and getattr(module, "solve", None) is solve:
            monkeypatch.setattr(module, "solve", counting)
    code, out, _ = run(capsys, "refine", str(model), "--format", "records")
    assert code == 0 and json.loads(out)["players"]
    assert [bool(seeded) for seeded in calls] == [False, True]


@pytest.fixture
def collector():
    """Yields a function that sets the collector on or off; the setting
    the test found is restored afterwards."""
    enabled = gc.isenabled()

    def set_collector(on):
        (gc.enable if on else gc.disable)()

    yield set_collector
    set_collector(enabled)


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_setting_is_restored_on_every_exit(capsys, tmp_path,
                                                     monkeypatch, collector,
                                                     enabled):
    fine = tmp_path / "fine.json"
    fine.write_text(json.dumps({
        "states": ["a"], "initial": "a", "transitions": [["a", "a"]],
        "objective": {"kind": "safety", "target": []}}))
    demo = str(MODELS / "recurrence_demo.json")
    collector(enabled)
    for argv, code, stream in (
            (["analyze", demo], 0, "out"),
            (["analyze", str(fine)], 0, "out"),  # nothing to explain
            (["analyze", demo, "--player-cap", "0"], 1, "err"),
            (["analyze", str(tmp_path / "missing.json")], 2, "err"),
            (["analyze", demo, "--seed", "1"], 2, "err")):  # usage error
        assert _exit_code(argv) == code, argv
        assert getattr(capsys.readouterr(), stream)
        assert gc.isenabled() is enabled, argv
    seen = []

    def failing(args):
        seen.append(gc.isenabled())
        raise RuntimeError("escapes")

    monkeypatch.setitem(respgame.cli._COMMANDS, "analyze", failing)
    with pytest.raises(RuntimeError, match="escapes"):
        run_cli(["analyze", demo])
    assert seen == [False]  # the command itself ran with the collector off
    assert gc.isenabled() is enabled


def test_cyclic_garbage_does_not_grow_with_the_model(capsys, tmp_path,
                                                     collector):
    # The collector is paused for a whole command, which is safe only while
    # the command's cyclic garbage stays a small constant (the parser)
    # rather than growing with the model.
    found = {}
    collector(False)
    for size in (50, 50, 2000):  # the first run also warms up caches
        model = tmp_path / f"clouds{size}.json"
        model.write_text(serialize_explicit(generate("clouds", size)))
        gc.collect()
        assert run_cli(["refine", str(model), "--format", "records"]) == 0
        found[size] = gc.collect()
        assert json.loads(capsys.readouterr().out)["players"]
    assert abs(found[2000] - found[50]) <= 20, found
