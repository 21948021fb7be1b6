"""What the benchmark (perfbench/) reads of the package.

The tracer wraps layer functions by module and name and reads the
successor lists of every arena `build_game` returns, and the workloads
import the functions that build their inputs; a function renamed or an
arena reshaped fails here rather than in a benchmark run.  The benchmark's
files are read from disk and left as they are.
"""

import ast
import importlib
import importlib.util
from collections.abc import Sequence
from pathlib import Path
from unittest import mock

from conftest import instances, reference_lists

from respgame import FORWARD, build_game, games

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_function_resolves_in_the_package():
    tracer = _tracer()
    assert tracer.TRACED
    for module, name, _payload in tracer.TRACED:
        found = getattr(importlib.import_module(f"respgame.{module}"), name,
                        None)
        assert callable(found), f"respgame.{module}.{name}"
    module, cls, method = tracer.GAMMA.split(".")
    assert callable(getattr(getattr(
        importlib.import_module(f"respgame.{module}"), cls), method))


def test_built_arenas_have_one_successor_sequence_per_state():
    tracer = _tracer()
    for ts, obj, run, mode in instances(61, 40):
        coalition = frozenset(range(0, len(ts), 2))
        game = build_game(ts, obj, run, coalition, mode)
        succ = game.arena.succ
        assert len(succ) == len(ts)
        assert all(isinstance(ts_, Sequence) and ts_ for ts_ in succ)
        assert tracer._arena_size((), game) == (len(ts),
                                                sum(map(len, succ)))


def test_build_game_engraves_once_per_engraved_arena():
    # games.engrave_s times these calls, and games.arena_edges_total counts
    # the edges of the engraved graph, not of the model
    tracer = _tracer()
    for ts, obj, run, mode in instances(67, 40):
        coalition = frozenset(range(1, len(ts), 2))
        with mock.patch.object(games, "engrave",
                               wraps=games.engrave) as spy:
            game = build_game(ts, obj, run, coalition, mode)
        assert spy.call_count == (0 if mode == FORWARD else 1)
        lists = reference_lists(ts, run, coalition, mode)
        assert tracer._arena_size((), game) == (len(lists),
                                                sum(map(len, lists)))


def test_every_name_the_workloads_import_resolves_in_the_package():
    # the benchmark builds its inputs with the package's own functions
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "respgame"
                for alias in node.names]
    assert ("respgame.explicit", "build_system") in imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), \
            f"{module}.{name}"
