"""Source hygiene: no module or test file imports a name it neither uses
nor exports, and every exported name exists."""

import ast
import importlib
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "orbitcert")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
TESTS = os.path.dirname(__file__)
TEST_FILES = sorted(f for f in os.listdir(TESTS) if f.endswith(".py"))


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    """Names bound by imports that the module never reads or exports."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - _exported(tree))


def test_detector_flags_unused_and_keeps_used():
    src = ("from __future__ import annotations\n"
           "from typing import List, Optional\n"
           "import json\n"
           "__all__ = ['json']\n"
           "def f(x: Optional[int]) -> int: return x\n")
    assert unused_imports(src) == ["List"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module)) as fh:
        assert unused_imports(fh.read()) == []


@pytest.mark.parametrize("name", TEST_FILES)
def test_no_unused_imports_in_tests(name):
    with open(os.path.join(TESTS, name)) as fh:
        assert unused_imports(fh.read()) == []


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_resolve(module):
    name = "orbitcert" if module == "__init__.py" else "orbitcert." + module[:-3]
    mod = importlib.import_module(name)
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []
