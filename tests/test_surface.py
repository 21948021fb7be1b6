"""The package's public surface: what `respgame` exports and the README's
library example."""

import ast
import re
from fractions import Fraction
from pathlib import Path

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
