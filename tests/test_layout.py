"""Design invariants of the package source, checked on its syntax trees.

- `io` is the one module that reads or writes JSON;
- numpy is the one third-party import;
- the package directory holds Python modules only, no data files;
- every function parameter is read by its function;
- every module-level private function or class is read somewhere else in the package;
- every import sits at module level, none inside a function body.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mubtools"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_tops(tree: ast.Module) -> set[str]:
    """Top-level names of the absolute imports in a module."""
    tops = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            tops.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops.add(node.module.split(".")[0])
    return tops


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"__init__", "catalog", "cli", "io", "search"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_io_imports_json(path):
    assert ("json" in _imported_tops(_tree(path))) == (path.stem == "io")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_numpy_is_the_only_third_party_import(path):
    third_party = _imported_tops(_tree(path)) - set(sys.stdlib_module_names) - {"__future__"}
    assert third_party <= {"numpy"}


def test_package_holds_no_data_files():
    files = [p for p in PACKAGE.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    assert [str(p.relative_to(PACKAGE)) for p in files if p.suffix != ".py"] == []


def _unread_parameters(tree: ast.Module) -> list[str]:
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unread += [f"{name}({p.arg}) line {node.lineno}" for p in params if p.arg not in read | {"self", "cls"}]
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_parameter_is_read(path):
    assert _unread_parameters(_tree(path)) == []


def _names_loaded(node: ast.AST) -> set[str]:
    """Names a subtree reads, as a name or an attribute; an import alone is not a use."""
    loaded = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            loaded.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            loaded.add(n.attr)
    return loaded


def _unused_private_helpers(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level private functions and classes that no other top-level statement reads."""
    top_level = {(stem, i): node for stem, tree in trees.items() for i, node in enumerate(tree.body)}
    loaded = {key: _names_loaded(node) for key, node in top_level.items()}
    unused = []
    for key, node in top_level.items():
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_") or node.name.startswith("__"):
            continue
        if not any(node.name in names for other, names in loaded.items() if other != key):
            unused.append(f"{key[0]}.{node.name}")
    return unused


def test_every_private_helper_is_used():
    """A private function or class that nothing else in the package reads is dead code."""
    assert _unused_private_helpers({path.stem: _tree(path) for path in MODULES}) == []


def test_an_imported_but_unread_helper_counts_as_unused():
    trees = {
        "a": ast.parse("def _called(): pass\ndef _imported(): pass\ndef _recursive(): return _recursive()\n"),
        "b": ast.parse("from .a import _called, _imported\ndef f():\n    return _called()\n"),
    }
    assert _unused_private_helpers(trees) == ["a._imported", "a._recursive"]


def _imports_in_functions(tree: ast.Module) -> list[str]:
    """Import statements anywhere inside a function body, as "function line"."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [f"{node.name} line {n.lineno}" for stmt in node.body for n in ast.walk(stmt)
                      if isinstance(n, (ast.Import, ast.ImportFrom))]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_imports_sit_at_module_level(path):
    assert _imports_in_functions(_tree(path)) == []


def test_a_function_local_import_is_found():
    tree = ast.parse("import os\ndef f():\n    from .a import b\n    return b\n"
                     "class C:\n    def g(self):\n        if True:\n            import sys\n")
    assert _imports_in_functions(tree) == ["f line 3", "g line 8"]
