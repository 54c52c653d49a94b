"""Source hygiene: every name a module imports is used in that module."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
# the package's __init__ imports names to re-export them
MODULES = (sorted(p for p in (ROOT / "src" / "poolkit").glob("*.py")
                  if p.name != "__init__.py")
           + sorted((ROOT / "tests").glob("*.py"))
           + sorted((ROOT / "scripts").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no other code refers to;
    ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a dotted use such as np.zeros refers to its root name
    used |= {node.value.id for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == \
        ["os (line 1)", "tau (line 2)"]
