"""Every module-level import in the package is read by its module.  The one
exception is a name the benchmark's traced mode wraps at that module: the
callers it times look the name up there.  No module-level function keeps an
unbounded cache, and none imports a module that starts processes or
threads: certification runs in one process."""

import ast
import os
import sys
from pathlib import Path

import pytest

sys.path.append(os.path.join(os.path.dirname(__file__), os.pardir, "benchmark"))

import tracing  # noqa: E402

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gnfkit"
TRACED = {*tracing.WRAPPED, *tracing.WRAPPED_GENERATORS}


def _names_read(tree: ast.Module) -> set[str]:
    """Names the module reads, including those inside string annotations."""
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in filter(None, annotations):
        for s in ast.walk(ann):
            if isinstance(s, ast.Constant) and isinstance(s.value, str):
                inner = ast.parse(s.value, mode="eval")
                read |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return read


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = _names_read(tree)
    return [name for name in imported if name not in read]


def private_definitions(tree: ast.Module) -> list[str]:
    """Module-level ``_name`` functions, classes and assigned constants."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in out if n.startswith("_") and not n.startswith("__")]


def names_loaded(tree: ast.Module) -> set[str]:
    """Names a module reads: loaded names (string annotations included),
    attribute names, and names it imports from other modules."""
    names = [n for n in ast.walk(tree) if isinstance(n, ast.Name)]
    loaded = {n.id for n in names if isinstance(n.ctx, ast.Load)}
    loaded |= _names_read(tree) - {n.id for n in names}  # only in string annotations
    loaded |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    loaded |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    return loaded


def unread_private_names(paths: list[Path]) -> list[str]:
    """Module-level private names that no module among the paths reads; a
    second copy of a helper left behind unreferenced shows up here."""
    trees = {p.stem: ast.parse(p.read_text()) for p in paths}
    loaded = set().union(*map(names_loaded, trees.values()))
    return [f"{stem}.{name}" for stem, tree in trees.items()
            for name in private_definitions(tree) if name not in loaded]


def test_the_scan_flags_an_unread_private_name(tmp_path):
    (tmp_path / "a.py").write_text("_USED = 1\n_UNUSED: int = 2\n"
                                   "def _helper():\n    return _USED\n"
                                   "class _Kept:\n    pass\n")
    (tmp_path / "b.py").write_text("from .a import _Kept\n")
    assert unread_private_names(sorted(tmp_path.glob("*.py"))) == ["a._UNUSED", "a._helper"]


def test_package_reads_its_private_names():
    assert unread_private_names(sorted(PACKAGE.glob("*.py"))) == []


def test_the_scan_flags_an_unread_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from typing import Iterable, Optional\n"
                      "import os.path\n"
                      "def f(x: 'Optional[int]') -> None:\n"
                      "    return None\n")
    assert unused_imports(module) == ["Iterable", "os"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_module_reads_its_imports(path):
    module = f"gnfkit.{path.stem}"
    assert [n for n in unused_imports(path) if (module, n) not in TRACED] == []


def _unbounded_cache(decorator: ast.expr) -> bool:
    """``functools.cache``, or ``lru_cache`` with a ``maxsize`` of None."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    if name == "cache":
        return True
    if name != "lru_cache" or not isinstance(decorator, ast.Call):
        return False  # a bare lru_cache keeps 128 entries
    sizes = decorator.args[:1] + [k.value for k in decorator.keywords if k.arg == "maxsize"]
    return any(isinstance(s, ast.Constant) and s.value is None for s in sizes)


def unbounded_caches(path: Path) -> list[str]:
    """Module-level functions whose cache lives as long as the process and
    grows with every new argument; a cache local to a call is freed with it."""
    tree = ast.parse(path.read_text())
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(map(_unbounded_cache, node.decorator_list))]


def test_the_scan_flags_an_unbounded_cache(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import functools\n"
                      "from functools import cache, lru_cache\n"
                      "@functools.cache\ndef a(): pass\n"
                      "@cache\ndef b(): pass\n"
                      "@lru_cache(maxsize=None)\ndef c(): pass\n"
                      "@functools.lru_cache(None)\ndef d(): pass\n"
                      "@lru_cache\ndef e(): pass\n"
                      "@lru_cache(maxsize=64)\ndef f(): pass\n"
                      "def g():\n    @cache\n    def h(): pass\n")
    assert unbounded_caches(module) == ["a", "b", "c", "d"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_module_keeps_no_unbounded_cache(path):
    assert unbounded_caches(path) == []


CONCURRENCY = {"concurrent", "multiprocessing", "threading"}


def concurrency_imports(path: Path) -> list[str]:
    """Modules of ``CONCURRENCY`` that the file imports anywhere, at module
    level or inside a function."""
    tree = ast.parse(path.read_text())
    names = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    names += [n.module for n in ast.walk(tree)
              if isinstance(n, ast.ImportFrom) and n.module and not n.level]
    return [m for m in names if m.split(".")[0] in CONCURRENCY]


def test_the_scan_flags_a_concurrency_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os, threading\n"
                      "from . import multiprocessing\n"
                      "def f():\n"
                      "    from concurrent.futures import ProcessPoolExecutor\n"
                      "    import multiprocessing.pool\n")
    assert concurrency_imports(module) == ["threading", "multiprocessing.pool",
                                           "concurrent.futures"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_module_imports_no_concurrency(path):
    assert concurrency_imports(path) == []
