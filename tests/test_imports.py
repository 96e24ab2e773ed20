"""Every module-level import in the package is used or re-exported, and every
private module-level helper is referenced somewhere in the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bisweep"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by top-level imports that the module never references
    and does not list in ``__all__``."""
    tree = ast.parse(source)
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used and name not in exported)


def test_scanner_flags_unused_and_spares_used_exported_and_future():
    src = ("from __future__ import annotations\n"
           "import os, sys\n"
           "from math import pi as PI, tau\n"
           "from json import dumps\n"
           "__all__ = ['dumps']\n"
           "def f(x: 'int') -> None:\n"
           "    return os.sep, PI\n")
    assert unused_imports(src) == ["sys (line 2)", "tau (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_helpers(sources: dict) -> list:
    """Private module-level functions and classes (one leading underscore)
    that no module in ``sources`` references by name, attribute or import."""
    defined, used = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                defined[node.name] = f"{module}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(f"{name} ({where})" for name, where in defined.items() if name not in used)


def test_dead_helper_scanner_flags_unreferenced_private_defs():
    sources = {
        "a": ("def _dead(): pass\n"
              "def _called(): pass\n"
              "class _Model: pass\n"
              "def _by_attribute(): pass\n"
              "def __getattr__(name): pass\n"
              "def public(): return _called()\n"),
        "b": ("from a import _Model\n"
              "import a\n"
              "handle = a._by_attribute\n"),
    }
    assert dead_helpers(sources) == ["_dead (a:1)"]


def test_no_dead_private_helpers():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert dead_helpers(sources) == []
