"""Which functions of the package no golden case calls.

The golden corpus (`test_golden.py`), model generation included, runs
under `sys.setprofile`, which sees every call of a Python function.
Every function defined in `src/respgame`, methods and nested functions
included, that no case calls must be listed in `UNREACHED` with the test
that covers it or the reason it stays.  So code that only tests reach
shows up in review.  An entry that a case now calls, or that names no
function, fails as well.
"""

import ast
import sys
import tempfile
from pathlib import Path

import respgame
from test_golden import cases, generate_models, transcript

PACKAGE = Path(respgame.__file__).resolve().parent

# function -> the test that covers it, or why it stays
UNREACHED = {
    "cli._Deadline.__init__": "test_cli.py::test_analyze_timeout_refusal",
    "cli._Deadline.__call__": "test_cli.py::test_analyze_timeout_refusal",
    "cli.main": "the console script of pyproject.toml; the corpus calls "
                "run_cli, which holds all of it but the exit",
    "explicit.ExplicitModelDoc.__eq__":
        "test_explicit.py::test_roundtrip_is_fixpoint",
    "explicit.load_explicit":
        "test_explicit.py::test_parse_shipped_recurrence_model; stays for "
        "the benchmark tracer's TRACED list",
    "model.LassoRun.__eq__":
        "test_model.py::test_find_violating_run_safety_example",
    "model.LassoRun.__hash__":
        "test_surface.py::test_formerly_frozen_records_compare_and_hash_"
        "by_value",
    "model.TransitionSystem.num_edges":
        "test_modlang.py::test_toggle_expands_to_four_states; the "
        "benchmark tracer counts expanded edges with it",
    "model.require_valid_run.fail": "test_cli.py::test_run_override_validated",
    "modlang.ModuleDef.__eq__":
        "test_parser.py::test_fuzzed_programs_parse_as_with_the_reference",
    "modlang._failing": "test_modlang.py::test_guard_error_text",
    "modlang._failing.fail": "test_modlang.py::test_guard_error_text",
    "modlang._last_value": "test_modlang.py::test_formula_macro_and_constants",
    "modlang._last_value.remembered":
        "test_modlang.py::test_formula_macro_and_constants",
    "modlang._needs": "test_modlang.py::test_guard_error_text",
    "modlang._too_deep": "test_cli.py::test_deep_nesting_is_an_input_error",
    "shapley.ResponsibilityReport.as_dict":
        "test_shapley.py::test_report_accessors; the README's library "
        "example and the benchmark's checks read it",
    "shapley.ResponsibilityReport.positivity":
        "test_shapley.py::test_report_accessors; the benchmark's checks "
        "read it",
}


def defined_functions():
    """(file, first line) -> `module.qualified.name` of every function and
    method in the package.  The first line is a decorator's when there is
    one, as in the function's code object."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                found[(path, first)] = f"{path.stem}.{name}"
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def called_functions():
    """(file, first line) of every Python function the corpus calls.

    CPython unsets a profiler whose callback raises, as it does when a
    case nests calls past the recursion limit, and every later call would
    go unrecorded.  So the profiler is set around each case and must
    still be set when the case ends."""
    called = set()

    def profile(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            called.add((code.co_filename, code.co_firstlineno))

    def recorded(name, run, *args):
        sys.setprofile(profile)
        try:
            run(*args)
            assert sys.getprofile() is profile, f"profiler unset in {name}"
        finally:
            sys.setprofile(None)

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        recorded("model generation", generate_models, directory)
        for name, argv in cases(directory).items():
            recorded(name, transcript, argv)
    return {(Path(name).resolve(), line) for name, line in called}


def test_every_function_no_golden_case_calls_is_listed():
    defined = defined_functions()
    called = called_functions()
    unreached = {name for key, name in defined.items() if key not in called}
    assert sorted(unreached - set(UNREACHED)) == [], "not listed"
    assert sorted(set(UNREACHED) - set(defined.values())) == [], "gone"
    assert sorted(set(UNREACHED) - unreached) == [], "now called"
