"""Source hygiene: no module or test file imports a name it neither uses
nor exports, every exported name exists, every method a class in the
package defines is read somewhere in the package or its benchmark,
every module-level function and class is read by the package itself,
only the two solvers call ``kernel``, and the package's parameters with
a default do not grow in number."""

import ast
import importlib
import os

import pytest

from orbitcert.forms import StandardModel

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "orbitcert")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
TESTS = os.path.dirname(__file__)
TEST_FILES = sorted(f for f in os.listdir(TESTS) if f.endswith(".py"))
BENCH = os.path.join(TESTS, os.pardir, "bench")


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


def _trees(folder: str) -> list:
    trees = []
    for name in sorted(os.listdir(folder)):
        if name.endswith(".py"):
            with open(os.path.join(folder, name)) as fh:
                trees.append(ast.parse(fh.read()))
    return trees


def unreferenced_methods(defining: list, reading: list,
                         by_name=()) -> list:
    """Methods other than dunders, defined on a class in the ``defining``
    trees, whose name no attribute access in the ``reading`` trees reads
    and ``by_name`` does not hold."""
    read = {n.attr for tree in reading for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)} | set(by_name)
    return sorted(
        "%s.%s" % (cls.name, f.name)
        for tree in defining for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) for f in cls.body
        if isinstance(f, ast.FunctionDef) and f.name not in read
        and not (f.name.startswith("__") and f.name.endswith("__")))


def test_method_detector_flags_unread_and_keeps_read():
    lib = ast.parse("class A:\n"
                    "    def __init__(self): pass\n"
                    "    def used(self): pass\n"
                    "    def dead(self): pass\n")
    user = ast.parse("A().used()\n")
    assert unreferenced_methods([lib], [lib, user]) == ["A.dead"]


def test_every_method_is_referenced():
    src = _trees(SRC)
    # from_info reaches each case's constructor by the name CASES holds;
    # ``complexify`` waits for the real-form comparison of ROADMAP item 10
    by_name = [case.constructor for case in StandardModel.CASES.values()]
    assert unreferenced_methods(src, src + _trees(BENCH),
                                by_name + ["complexify"]) == []


def unread_functions(trees: list, allowed=()) -> list:
    """Module-level functions and classes of the ``trees`` that no name in
    the same trees reads and ``allowed`` does not hold.  An attribute of
    the same name does not count: ``self._e`` reads no function ``_e``."""
    read = set(allowed) | {
        n.id for tree in trees for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(f.name for tree in trees for f in tree.body
                  if isinstance(f, (ast.FunctionDef, ast.ClassDef))
                  and f.name not in read)


def test_function_detector_flags_unread_and_keeps_read():
    lib = ast.parse("def used(): pass\n"
                    "def dead(): pass\n"
                    "def kept(): pass\n"
                    "class Used: pass\n"
                    "class Dead: pass\n"
                    "def shadowed(): pass\n"
                    "__all__ = ['dead', 'Dead']\n"
                    "x = used(), Used(), Used().shadowed\n")
    assert unread_functions([lib], ["kept"]) == ["Dead", "dead", "shadowed"]


def test_every_function_is_read_by_the_package():
    # ``derivations`` is the definitional g2 that the tests check
    # ``build_group(quadric7, "G2split")`` against and the benchmark traces
    assert unread_functions(_trees(SRC), ["derivations"]) == []


def callers(trees: list, name: str) -> list:
    """Functions and methods of the ``trees`` whose own body calls
    ``name`` (a call in a nested function counts for that one only)."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "id", None),
                    getattr(child.func, "attr", None)):
                found.add(owner)
            visit(child, owner)

    for tree in trees:
        visit(tree, "<module>")
    return sorted(found)


def test_caller_detector_names_the_innermost_function():
    lib = ast.parse("def outer():\n"
                    "    def inner(): return linalg.kernel(1)\n"
                    "    return inner\n"
                    "class A:\n"
                    "    def m(self): return kernel(2)\n"
                    "def refers(): return kernel\n"
                    "kernel(3)\n")
    assert callers([lib], "kernel") == ["<module>", "inner", "m"]


def test_only_the_two_solvers_call_kernel():
    # every other subspace meet goes through null_combinations
    assert callers(_trees(SRC), "kernel") == [
        "null_combinations", "solve_linear_constraints"]


# Lower this when a default goes; raise it only with the reason in
# CHANGES.md.
MAX_DEFAULTS = 17


def count_defaults(trees: list) -> int:
    """Positional and keyword parameter defaults of every function and
    lambda in the ``trees``."""
    return sum(len(f.args.defaults)
               + sum(d is not None for d in f.args.kw_defaults)
               for tree in trees for f in ast.walk(tree)
               if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)))


def test_default_counter_counts_positional_and_keyword_defaults():
    lib = ast.parse("def f(a, b=1, *c, d, e=2, **g): pass\n"
                    "h = lambda x=0: x\n"
                    "class A:\n"
                    "    def m(self, y=None): pass\n")
    assert count_defaults([lib]) == 4


def test_parameters_with_a_default_do_not_grow():
    count = count_defaults(_trees(SRC))
    assert count <= MAX_DEFAULTS, (
        "src has %d parameters with a default, more than %d: every default "
        "is an option some caller may set; lower MAX_DEFAULTS when a "
        "default goes, and raise it only with a reason in CHANGES.md"
        % (count, MAX_DEFAULTS))
