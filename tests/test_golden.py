"""Byte-for-byte command output on a fixed corpus of models and flags.

Each case runs one command in-process through `run_cli` and compares its
exit code, stdout and stderr with `tests/golden/<case>.txt`, so a change
in any output byte fails with a diff.  The corpus covers every model in
`models/` and each generator family at size 6, every pair of refinement
heuristics on two generated models, and one case for each refusal and
each flag that the others leave unrun.

To write the files again after a deliberate output change, which prints
each case file it writes or deletes:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from respgame.cli import run_cli
from respgame.generators import FAMILIES
from respgame.refinement import REFINE_HEURISTICS, SELECT_HEURISTICS

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"
GOLDEN = Path(__file__).resolve().parent / "golden"

MODES = ("optimistic", "pessimistic", "forward")

# command name in the case id -> the command's own flags
DOCUMENT_COMMANDS = {
    "analyze-table": ("analyze",),
    "analyze-records": ("analyze", "--format", "records"),
    "analyze-dot": ("analyze", "--format", "dot"),
    "refine-records": ("refine", "--format", "records", "--seed", "3"),
    "refine-explain": ("refine", "--explain", "--seed", "1",
                       "--initial-blocks", "2"),
    "positivity": ("positivity",),
    "oracle-minimal": ("oracle", "--minimal-coalitions"),
}

PROGRAM_COMMANDS = {
    "analyze": ("analyze",),
    "refine-explain": ("refine", "--explain", "--seed", "1"),
    "positivity": ("positivity",),
}

GENERATED_COMMANDS = {
    "analyze": ("analyze",),
    "refine-explain": ("refine", "--explain"),
    "positivity": ("positivity",),
}

# generated models that run every --select x --refine pair, with their sizes
HEURISTIC_MODELS = (("frontier-stress-reach", 6), ("exp-coalitions", 5))

HEURISTIC_FLAGS = ("--explain", "--no-values", "--initial-blocks", "3",
                   "--seed", "2")

TOGGLE_OBJECTIVES = {
    "buechi-modules": ("--objective", "buechi", "--target-label", "both",
                       "--group-by-module"),
    "safety": ("--objective", "safety", "--target-label", "both"),
    "parity": ("--objective", "parity", "--colour", "both=2"),
    "parity-odd": ("--objective", "parity", "--colour", "both=1"),
}

# the grouping file that `generate_models` writes beside the documents,
# for engraving_demo.json
GROUPS = {"start": ["s0"], "middle": ["s1", "s2"],
          "rest": ["s3", "s4", "s5", "bad"]}


def single_cases(generated: Path):
    """Case id -> argv of the refusals (exit 1) and of the flags that the
    case families leave unrun."""
    demo = str(MODELS / "engraving_demo.json")
    return {
        "refused-analyze-player-cap": (
            "analyze", str(generated / "exp-coalitions-6.json"),
            "--player-cap", "3"),
        "refused-refine-block-cap": (
            "refine", str(generated / "frontier-stress-reach-6.json"),
            "--block-cap", "1", "--initial-blocks", "2"),
        "refused-oracle-cap": ("oracle", demo, "--oracle-cap", "1"),
        "refused-state-cap": (
            "analyze", str(MODELS / "clouds.prism"), "--objective",
            "reachability", "--target-label", "crit", "--state-cap", "5"),
        "refused-refine-player-cap": (
            "refine", str(MODELS / "refinement_demo.json"), "--player-cap",
            "0", "--seed", "7"),
        "toggle_prism-safety-run-override-analyze": (
            "analyze", str(MODELS / "toggle.prism"), "--objective", "safety",
            "--target-label", "both", "--run-prefix",
            "a=false,b=false,a=true,b=false", "--run-loop",
            "a=true,b=true,a=false,b=true"),
        "toggle_prism-safety-group-by-label-analyze": (
            "analyze", str(MODELS / "toggle.prism"), "--objective", "safety",
            "--target-label", "both", "--group-by-label", "both"),
        "engraving_demo-groups-file-analyze": (
            "analyze", demo, "--groups", str(generated / "groups.json")),
        "engraving_demo-no-prune-oracle": ("oracle", demo, "--no-prune"),
        "engraving_demo-forward-find-run-analyze-dot": (
            "analyze", demo, "--mode", "forward", "--find-run", "--format",
            "dot"),
        "engraving_demo-run-override-analyze": (
            "analyze", demo, "--run-prefix", "s0,s1,s3,s5", "--run-loop",
            "bad"),
    }


def cases(generated: Path):
    """Case id -> argv; generated models are read from `generated`."""
    out = {}
    for model in sorted(MODELS.glob("*.json")):
        for mode in MODES:
            for name, command in DOCUMENT_COMMANDS.items():
                out[f"{model.stem}-{mode}-{name}"] = (
                    command[0], str(model), "--mode", mode, *command[1:])
    for kind in ("reachability", "safety", "buechi"):
        for mode in ("optimistic", "pessimistic"):
            for name, command in PROGRAM_COMMANDS.items():
                out[f"clouds_prism-{kind}-{mode}-{name}"] = (
                    command[0], str(MODELS / "clouds.prism"), "--objective",
                    kind, "--target-label", "crit", "--mode", mode,
                    *command[1:])
    for label, flags in TOGGLE_OBJECTIVES.items():
        for name, command in PROGRAM_COMMANDS.items():
            out[f"toggle_prism-{label}-{name}"] = (
                command[0], str(MODELS / "toggle.prism"), *flags,
                *command[1:])
    for family in FAMILIES:
        for name, command in GENERATED_COMMANDS.items():
            out[f"{family}-6-{name}"] = (
                command[0], str(generated / f"{family}-6.json"),
                *command[1:])
    for family, size in HEURISTIC_MODELS:
        for select in SELECT_HEURISTICS:
            for refine in REFINE_HEURISTICS:
                out[f"{family}-{size}-refine-{select}-{refine}"] = (
                    "refine", str(generated / f"{family}-{size}.json"),
                    *HEURISTIC_FLAGS, "--select", select, "--refine", refine)
    out.update(single_cases(generated))
    return out


def generate_models(directory: Path) -> None:
    """Write each generator family's size-6 document, and the heuristic
    models, into `directory` as `<family>-<size>.json`, and `GROUPS` as
    `groups.json`."""
    for family, size in ({(f, 6) for f in FAMILIES} | set(HEURISTIC_MODELS)):
        code = run_cli(["generate", "--family", family, "--size", str(size),
                        "-o", str(directory / f"{family}-{size}.json")])
        assert code == 0, family
    (directory / "groups.json").write_text(json.dumps(GROUPS),
                                           encoding="utf-8")


def transcript(argv) -> str:
    """Exit code, stdout and stderr of one command, as one text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(list(argv))
    return (f"exit: {code}\n--- stdout\n{out.getvalue()}"
            f"--- stderr\n{err.getvalue()}")


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    directory = tmp_path_factory.mktemp("generated")
    generate_models(directory)
    return directory


CASES = sorted(cases(Path("generated")))


def test_the_corpus_has_a_file_for_every_case_and_no_other():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == CASES


@pytest.mark.parametrize("case", CASES)
def test_output_matches_the_golden_file(case, generated):
    expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert transcript(cases(generated)[case]) == expected


def write_corpus() -> None:
    """Write every case file whose transcript changed, delete the files of
    cases no longer in the corpus, and print the name of each."""
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        generate_models(directory)
        corpus = cases(directory)
        for old in sorted(GOLDEN.glob("*.txt")):
            if old.stem not in corpus:
                old.unlink()
                print(f"deleted {old.name}")
        for case, argv in sorted(corpus.items()):
            path = GOLDEN / f"{case}.txt"
            text = transcript(argv)
            if not path.exists() or path.read_text(encoding="utf-8") != text:
                path.write_text(text, encoding="utf-8")
                print(f"wrote {path.name}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    write_corpus()
