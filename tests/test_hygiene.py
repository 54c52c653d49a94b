"""Source hygiene: every name a module imports is used in that module, and
every top-level name of the package is used somewhere."""

import ast
import importlib
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


PACKAGE = sorted(p for p in (ROOT / "src" / "poolkit").glob("*.py")
                 if p.name != "__init__.py")
# the code that may use a package name: a perfbench target names its
# function in a string
USERS = [p for folder in ("src/poolkit", "tests", "scripts", "perfbench")
         for p in sorted((ROOT / folder).rglob("*.py"))]


def top_level_names(source: str) -> dict[str, int]:
    """The functions, classes and constants a module defines at top level."""
    names = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node.lineno
    return names


def referenced_names(source: str) -> set[str]:
    """Every name the code reads, imports or spells as a whole string."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            found.add(node.value)
    return found


def unreferenced(defined: dict[str, dict[str, int]], users: list[str]) -> list[str]:
    """``module.name (line)`` for each defined name no user refers to."""
    used = set().union(*(referenced_names(source) for source in users))
    return sorted(f"{module}.{name} (line {line})"
                  for module, names in defined.items()
                  for name, line in names.items() if name not in used)


def test_every_package_name_is_referenced():
    defined = {p.stem: top_level_names(p.read_text()) for p in PACKAGE}
    assert unreferenced(defined, [p.read_text() for p in USERS]) == []


def test_detects_an_unreferenced_name():
    source = ("LIMIT = 3\n_SPARE = 4\nclass Box: pass\n"
              "def used(): return LIMIT\ndef _left_over(): return Box\n")
    assert unreferenced({"m": top_level_names(source)},
                        [source, "from m import used\n"]) == \
        ["m._SPARE (line 2)", "m._left_over (line 5)"]


def package_imports(source: str) -> list[str]:
    """The modules of the package that the source imports anywhere, also
    inside a function."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "poolkit"):
            found.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.split(".")[0] == "poolkit"]
    return found


def test_rank1_imports_nothing_of_the_package():
    # the geometry stands alone; models and solves of a box go through
    # relaxations.block_value
    assert package_imports((ROOT / "src" / "poolkit" / "rank1.py").read_text()) == []


def test_detects_a_package_import():
    source = ("import numpy\nimport poolkit.solver\n"
              "def f():\n    from .modelir import ModelIR\n    from . import bench\n")
    assert package_imports(source) == ["poolkit.solver", ".modelir", "."]


def callers(source: str, names: set[str]) -> list[str]:
    """The top-level functions and classes of the source that call one of
    ``names`` (a ``Session`` call constructs one), once per call."""
    found = []
    for node in ast.parse(source).body:
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and names & {
                    getattr(call.func, "id", None), getattr(call.func, "attr", None)}:
                found.append(getattr(node, "name", "<module>"))
    return found


def test_only_the_solver_and_the_sweep_construct_a_session():
    # one solve entry point: every other model goes through solver.solve
    makers = {f"{p.stem}.{name}" for p in PACKAGE
              for name in callers(p.read_text(), {"Session"})}
    assert {m for m in makers if not m.startswith("solver.")} == {"tightening.obbt"}


def test_only_formulations_checks_a_point():
    # one owner of the rule that a restriction value is an upper bound:
    # every other module asks formulations.accepts
    checkers = {p.stem for p in PACKAGE
                if callers(p.read_text(), {"check_solution", "rederive_proportions"})}
    assert checkers == {"formulations"}


def test_detects_a_session_maker():
    source = ("from poolkit import solver\n"
              "def sweep(cm):\n    return Session(cm).solve()\n"
              "class Probe:\n    def run(self, cm):\n        return solver.Session(cm)\n"
              "def plain(model):\n    return solve(model)\n")
    assert callers(source, {"Session"}) == ["sweep", "Probe"]


def span_targets(source: str) -> list[tuple[str, str]]:
    """(owner, attribute) of each ``Target(...)`` in the source's
    ``TARGETS`` tuple, read without importing it."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets
                                             if isinstance(t, ast.Name)] == ["TARGETS"]:
            return [(call.args[1].value, call.args[2].value) for call in node.value.elts]
    return []


def test_every_perfbench_span_target_resolves():
    # perfbench/run.py --trace 1 wraps each target and crashes on one that
    # is gone, so a rename in the package fails here first
    targets = span_targets((ROOT / "perfbench" / "spans.py").read_text())
    assert len(targets) > 20
    missing = []
    for owner, attr in targets:
        module_name, _, cls_name = owner.partition(":")
        obj = importlib.import_module(module_name)
        if cls_name:
            obj = getattr(obj, cls_name, None)
        if not hasattr(obj, attr):
            missing.append(f"{owner}.{attr}")
    assert missing == []


def test_detects_a_span_target():
    source = ("X = 1\nTARGETS = (\n    Target('a.b', 'poolkit.solver', 'milp', f),\n"
              "    Target(g, 'poolkit.rank1:ConicCut', 'violation'),\n)\n")
    assert span_targets(source) == [("poolkit.solver", "milp"),
                                    ("poolkit.rank1:ConicCut", "violation")]
