"""The package's public surface: what `respgame` exports, the README's
library example, what importing the CLI loads, the contracts of the
record classes, and that the checkout tracks no ignored artifact."""

import ast
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import own_arena
from respgame import (BUECHI, PARITY, SAFETY, ExplicitModelDoc,
                      HeuristicsConfig, InputError, LassoRun, Objective,
                      PlayerSet, ResponsibilityReport, cli, parse_program)
from respgame.games import Game
from respgame.grouping import BY_LABEL, EXPLICIT_LIST, GroupingSpec
from respgame.modlang import ModuleDef, Token, VarDecl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "respgame"


def _exports():
    """Exported name -> the submodule `__init__.py` imports it from."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {alias.name: node.module for node in tree.body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _uses(path):
    """(submodule, name) pairs a module imports by name, or reads as an
    attribute of a submodule it imports whole (`from . import exports`)."""
    tree = ast.parse(path.read_text())
    used, whole = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    whole[alias.asname or alias.name] = alias.name
                else:
                    used.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in whole):
            used.add((whole[node.value.id], node.attr))
    return used


def test_every_exported_name_is_used_by_another_module():
    uses = {path.stem: _uses(path) for path in SRC.glob("*.py")
            if path.stem != "__init__"}
    exports = _exports()
    assert "__version__" not in exports and len(exports) > 20
    unused = sorted(
        f"{module}.{name}" for name, module in exports.items()
        if not any((module, name) in used
                   for user, used in uses.items() if user != module))
    assert not unused, f"exported but used by no other module: {unused}"


def _code_names(nodes):
    """Identifiers the code in `nodes` names: variables, attributes and
    imported names."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.alias):
                names.add(sub.name)
    return names


def test_every_function_and_class_is_named_outside_its_definition():
    """Code that only tests reach is dead to every command: each
    module-level function and class must be named by the rest of its
    module, by another module (a re-export in `__init__.py` does not
    count), by the benchmark or by the README."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in SRC.glob("*.py")}
    elsewhere = set()
    for text in [(ROOT / "README.md").read_text()] + [
            path.read_text() for path in (ROOT / "perfbench").glob("*.py")]:
        elsewhere.update(re.findall(r"\w+", text))
    unnamed = []
    for module, tree in sorted(trees.items()):
        others = [t for m, t in trees.items()
                  if m not in (module, "__init__")]
        named = elsewhere | _code_names(others)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                rest = [n for n in tree.body if n is not node]
                if node.name not in named | _code_names(rest):
                    unnamed.append(f"{module}.{node.name}")
    assert not unnamed, f"named by no command, module or document: {unnamed}"


def test_readme_library_example(capsys, monkeypatch):
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"Library use mirrors the CLI:\n\n```python\n(.*?)```",
                     readme, re.S).group(1)
    monkeypatch.chdir(ROOT)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    expected = {"s0": Fraction(1, 6), "s1": Fraction(1, 6),
                "s2": Fraction(2, 3)}
    assert namespace["report"].as_dict() == expected
    assert capsys.readouterr().out == f"{expected!r}\n"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """`import dataclasses` pulls in `inspect`, `ast`, `dis` and
    `tokenize`, which every command would pay for at start-up."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import respgame.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-c", code, str(SRC.parent)],
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_no_module_imports_dataclasses():
    importers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [node.module.split(".")[0]]
            else:
                continue
            if "dataclasses" in roots:
                importers.add(path.name)
    assert not importers


def test_every_module_level_import_is_read():
    # a deletion can leave behind the last import of what it deleted
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    unread.append(f"{path.stem}: {bound}")
    assert not unread, f"imported but never read: {unread}"


def test_no_tracked_file_matches_the_ignore_rules():
    """Build and run artifacts are ignored, so none may be committed."""
    if not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    try:
        out = subprocess.run(["git", "ls-files", "-ci", "--exclude-standard"],
                             cwd=ROOT, capture_output=True, text=True,
                             check=True)
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("git cannot list this checkout")
    assert out.stdout == ""


def test_heuristics_config_checks_its_values_at_construction():
    for bad in (dict(initial_blocks=0), dict(select="widest"),
                dict(refine="frontier-last")):
        with pytest.raises(InputError):
            HeuristicsConfig(**bad)
    defaults = HeuristicsConfig()
    assert defaults == HeuristicsConfig(1, "random", "frontier-random", 0)
    flags = cli._OWN_FLAGS
    assert (flags["--initial-blocks"]["default"], flags["--select"]["default"],
            flags["--refine"]["default"], flags["--seed"]["default"]) == (
        defaults.initial_blocks, defaults.select, defaults.refine,
        defaults.rng_seed)


def test_objective_checks_its_payload_at_construction():
    for kind, payload, message in (
            ("liveness", dict(target=frozenset()), "unknown objective kind"),
            (SAFETY, dict(colours=(0,)), "take a target set only"),
            (BUECHI, {}, "take a target set only"),
            (PARITY, dict(colours=(0,), target=frozenset()),
             "take a colour map only"),
            (PARITY, dict(colours=(1, -1)), "must be non-negative")):
        with pytest.raises(InputError, match=message):
            Objective(kind, **payload)
    assert Objective(PARITY, None, (0, 2)).colours == (0, 2)


def test_player_set_rejects_duplicate_names_and_counts_players():
    with pytest.raises(ValueError):
        PlayerSet("blocks", ("a", "a"), (frozenset([0]), frozenset([1])))
    names = tuple("abcde")
    players = PlayerSet("states", names,
                        tuple(frozenset([i]) for i in range(5)))
    assert len(players) == 5
    assert len(PlayerSet("states", (), ())) == 0


def _frozen_records():
    """(maker, record) pairs: the maker builds a fresh record each call and
    `record` is of the same class but differs in one field; one pair or
    two per immutable record class."""
    arena = own_arena(0, ((0,),), ())
    target = frozenset([1])
    return [
        (lambda: Objective(SAFETY, target=target),
         Objective(BUECHI, target=target)),
        (lambda: Objective(PARITY, colours=(0, 1)),
         Objective(PARITY, colours=(1, 1))),
        (lambda: LassoRun((0,), (1, 2)), LassoRun((0, 1), (2,))),
        (lambda: PlayerSet("states", ("a",), (frozenset([0]),)),
         PlayerSet("blocks", ("a",), (frozenset([0]),))),
        (lambda: GroupingSpec(BY_LABEL, label_names=("x",)),
         GroupingSpec(BY_LABEL, label_names=("y",))),
        (lambda: HeuristicsConfig(rng_seed=3), HeuristicsConfig(rng_seed=4)),
        (lambda: Game(arena, Objective(SAFETY, target=target)),
         Game(arena, Objective(SAFETY, target=frozenset()))),
        (lambda: ResponsibilityReport("states", "optimistic", ("a",),
                                      (Fraction(1, 2),), 3, 1),
         ResponsibilityReport("states", "optimistic", ("a",),
                              (Fraction(1, 2),), 3, 2)),
        (lambda: Token("ident", "x", 1, 2), Token("ident", "x", 1, 3)),
        (lambda: VarDecl("x", "int", 0, 3, ("int", 0), "m"),
         VarDecl("x", "int", 0, 4, ("int", 0), "m")),
    ]


@pytest.mark.parametrize("make, other", _frozen_records(),
                         ids=[type(r).__name__ for _, r in _frozen_records()])
def test_formerly_frozen_records_compare_and_hash_by_value(make, other):
    first, second = make(), make()
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first != other
    assert len({first, second, other}) == 2


def test_grouping_spec_checks_its_mode_and_compares_blocks_by_value():
    spec = GroupingSpec(EXPLICIT_LIST, blocks={"b": ["a"]})
    assert spec == GroupingSpec(EXPLICIT_LIST, blocks={"b": ["a"]})
    with pytest.raises(InputError):
        GroupingSpec("by-colour")


def test_explicit_document_equality_ignores_the_built_system():
    def doc():
        return ExplicitModelDoc(["a", "b"], "a", [("a", "b"), ("b", "a")],
                                SAFETY, target=["b"])
    built, plain = doc(), doc()
    built.system = ("a system",)
    assert built == plain and plain.system is None
    # the fields stay assignable, and equality follows them
    plain.states = ["b", "a"]
    assert built != plain
    with pytest.raises(TypeError):
        hash(built)


def test_module_definitions_own_their_lists():
    first, second = ModuleDef("m"), ModuleDef("n")
    first.variables.append("x")
    first.commands.append("c")
    assert second.variables == [] and second.commands == []
    assert ModuleDef("n") == second != ModuleDef("m")
    prog = parse_program("module m x : [0..1] init 0; [] x=0 -> (x'=1); "
                         "endmodule module n y : bool init false; endmodule")
    assert [len(mod.commands) for mod in prog.modules] == [1, 0]


def test_lasso_run_builds_its_forced_map_once():
    run = LassoRun((0, 1), (2, 3))
    forced = run.forced
    assert forced == {0: (1,), 1: (2,), 2: (3,), 3: (2,)}
    assert run.forced is forced
    assert LassoRun((0, 1), (2, 3)).forced is not forced
