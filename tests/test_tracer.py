"""What the benchmark's tracer (perfbench/tracer.py) reads of the package.

The tracer wraps layer functions by module and name and reads the
successor lists of every arena `build_game` returns; a function renamed or
an arena reshaped fails here rather than in a traced benchmark run.  The
tracer is loaded from its file and left as it is.
"""

import importlib
import importlib.util
from collections.abc import Sequence
from pathlib import Path

from conftest import instances

from respgame import build_game

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
