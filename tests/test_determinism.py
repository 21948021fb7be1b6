"""Identical input and seed give byte-identical output, whatever string
hash seed the interpreter draws: no output may follow the iteration order
of a set or dict of strings."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from respgame import generate, serialize_explicit

SRC = Path(__file__).resolve().parent.parent / "src"
RUN_CLI = ("import sys; from respgame.cli import run_cli; "
           "sys.exit(run_cli(sys.argv[1:]))")

# name -> (generator family, size, command line after the model path)
CASES = {
    "refine-records": ("clouds", 300,
                       ["refine", "--format", "records", "--seed", "3"]),
    "refine-explain": ("frontier-stress-safety", 10,
                       ["refine", "--explain", "--seed", "2"]),
    "positivity": ("frontier-stress-safety", 10, ["positivity"]),
}


def _stdout(argv, hash_seed) -> bytes:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", RUN_CLI, *argv], env=env,
                          capture_output=True, check=True, timeout=120)
    return done.stdout


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_is_the_same_under_every_hash_seed(case, tmp_path):
    family, size, command = CASES[case]
    model = tmp_path / "model.json"
    model.write_text(serialize_explicit(generate(family, size)))
    argv = [command[0], str(model), *command[1:]]
    first, second = (_stdout(argv, seed) for seed in (0, 1))
    assert first
    assert first == second
