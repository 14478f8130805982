"""Design invariants of the package source, checked on its syntax trees.

- `io` is the one module that reads or writes JSON, and the one that opens a file or touches stdin or stdout;
- no module imports a private name of `io`;
- `cli` is the one module that reads the environment, so library margins enter only as arguments;
- numpy is the one third-party import;
- the package directory holds Python modules only, no data files;
- every function parameter is read by its function;
- every module-level private function or class is read somewhere else in the package;
- every import sits at module level, none inside a function body;
- only the search's `_UnitLoop` writes an attribute named `used`: it alone charges nodes to a budget.
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


_ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree: ast.Module) -> list[str]:
    """Reads of os.environ or os.getenv, as an attribute or an imported name, as "line N"."""
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr in _ENVIRONMENT_NAMES]
    lines += [n.lineno for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module == "os"
              and any(alias.name in _ENVIRONMENT_NAMES for alias in n.names)]
    return [f"line {line}" for line in sorted(lines)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_cli_reads_the_environment(path):
    assert path.stem == "cli" or _environment_reads(_tree(path)) == []


def test_an_environment_read_is_found():
    tree = ast.parse("import os\nfrom os import getenv\ndef f():\n    return os.environ.get('X'), os.getenv('Y')\n")
    assert _environment_reads(tree) == ["line 2", "line 4", "line 4"]


_FILE_NAMES = {"os": {"open", "write", "replace", "unlink", "close", "path"}, "sys": {"stdin", "stdout"}}
_FILE_MODULES = {"tempfile", "os.path"}


def _file_access(tree: ast.Module) -> list[str]:
    """Calls of the builtin open, uses of os.open/write/replace/unlink/close or os.path, imports of tempfile or
    os.path, and uses of sys.stdin or sys.stdout, as "name line N"; sys.stderr is not one of them."""
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "open":
            found.append(("open", n.lineno))
        elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
              and n.attr in _FILE_NAMES.get(n.value.id, ())):
            found.append((f"{n.value.id}.{n.attr}", n.lineno))
        elif isinstance(n, ast.Import):
            found += [(alias.name, n.lineno) for alias in n.names if alias.name in _FILE_MODULES]
        elif isinstance(n, ast.ImportFrom) and n.level == 0 and n.module in _FILE_MODULES | set(_FILE_NAMES):
            found += [(f"{n.module}.{alias.name}", n.lineno) for alias in n.names
                      if n.module in _FILE_MODULES or alias.name in _FILE_NAMES[n.module]]
    return [f"{name} line {line}" for name, line in sorted(found, key=lambda item: (item[1], item[0]))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_io_touches_files(path):
    assert path.stem == "io" or _file_access(_tree(path)) == []


def test_a_file_access_is_found():
    tree = ast.parse("import os, sys, tempfile\nfrom os import replace, environ\nfrom os.path import join\n"
                     "def f(p):\n    with open(p) as h:\n        os.write(1, h.read())\n"
                     "    print(p, file=sys.stderr)\n"
                     "    return sys.stdout, sys.stdin.read(), os.path.join(p), os.environ\n")
    assert _file_access(tree) == ["tempfile line 1", "os.replace line 2", "os.path.join line 3", "open line 5",
                                  "os.write line 6", "os.path line 8", "sys.stdin line 8", "sys.stdout line 8"]


def _private_io_imports(tree: ast.Module) -> list[str]:
    """Private names of the package's `io` imported from it (`from .io import _x`) or read through a name bound to
    it (`from . import io as mio` ... `mio._x`), as "name line N"."""
    bound = {alias.asname or alias.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level == 1
             and n.module is None for alias in n.names if alias.name == "io"}
    found = [(alias.name, n.lineno) for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level == 1
             and n.module == "io" for alias in n.names if alias.name.startswith("_")]
    found += [(f"{n.value.id}.{n.attr}", n.lineno) for n in ast.walk(tree) if isinstance(n, ast.Attribute)
              and isinstance(n.value, ast.Name) and n.value.id in bound and n.attr.startswith("_")]
    return [f"{name} line {line}" for name, line in sorted(found, key=lambda item: item[1])]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_a_private_io_name(path):
    assert _private_io_imports(_tree(path)) == []


def test_a_private_io_import_is_found():
    tree = ast.parse("from .io import FileFormatError, _header_int\nfrom . import io as mio, search\n"
                     "def f(p):\n    return mio._label(p, ''), mio.dumps(p), search._BLOCK\n")
    assert _private_io_imports(tree) == ["_header_int line 1", "mio._label line 4"]


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


def _used_writes_outside_the_unit_loop(tree: ast.Module) -> list[str]:
    """Writes to an attribute named `used` (assigned, augmented, unpacked into or deleted) outside any
    class `_UnitLoop`, as "line N"."""
    inside = {id(n) for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and node.name == "_UnitLoop"
              for n in ast.walk(node)}
    return [f"line {n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "used"
            and isinstance(n.ctx, (ast.Store, ast.Del)) and id(n) not in inside]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_only_the_unit_loop_charges_nodes(path):
    """A stage that added to a loop's node count from inside a unit would bypass the one charging rule."""
    assert _used_writes_outside_the_unit_loop(_tree(path)) == []


def test_a_used_write_outside_the_unit_loop_is_found():
    tree = ast.parse("class _UnitLoop:\n    def run(self):\n        self.used = 0\n        self.used += 1\n"
                     "def stage(loop):\n    loop.used += 3\n    a, loop.used = 1, 2\n    return loop.used\n"
                     "class Other:\n    def f(self):\n        del self.used\n")
    assert _used_writes_outside_the_unit_loop(tree) == ["line 6", "line 7", "line 11"]
