"""Leftovers in the package's source: every module-level import is used or
exported, every private module-level name is read somewhere in the package,
and every local a function binds is read in it."""

import ast
import textwrap
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "qhistories"


def _unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no code reads and
    ``__all__`` does not list, in order of appearance."""
    tree = ast.parse(source)
    bound, exported = [], set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read and name not in exported]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_module_imports_are_used(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_guard_flags_a_leftover():
    source = textwrap.dedent("""
        from __future__ import annotations
        import os.path
        import numpy as np
        from typing import Sequence
        from .linalg import max_abs, adjoint as dagger, DEFAULT_TOL
        __all__ = ["DEFAULT_TOL"]

        def f(xs: Sequence) -> float:
            return max_abs(np.asarray(xs))
    """)
    assert _unused_imports(source) == ["os", "dagger"]


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each single-underscore name a module binds at top
    level that no module of ``sources`` (by module name) reads, imports or
    takes as an attribute, in order of appearance."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(module, n) for n in names if n.startswith("_") and not n.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [f"{module}.{name}" for module, name in defined if name not in read]


def _unread_locals(source: str) -> list[str]:
    """``function.name`` for each name a function binds (parameters aside) that
    no code inside it reads, ``_`` and global or nonlocal names aside."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound, read, ignored = {}, set(), {"_"}
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    bound.setdefault(node.id, node.lineno)
                else:
                    read.add(node.id)
            elif node is not fn and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                      ast.ClassDef)):
                bound.setdefault(node.name, node.lineno)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.setdefault(node.name, node.lineno)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for a in node.names:
                    bound.setdefault(a.asname or a.name.partition(".")[0], node.lineno)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                ignored.update(node.names)
        found += [f"{fn.name}.{name}" for name in sorted(bound, key=bound.get)
                  if name not in read and name not in ignored]
    return found


def test_private_module_names_are_read():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _unread_private_names(sources) == []


def test_unread_private_name_guard_flags_a_leftover():
    sources = {
        "a": textwrap.dedent("""
            _LIMIT = 4
            _OLD, _NEW = 1, 2
            __all__ = ["f"]

            def _helper(x):
                return x

            def _unused_helper(x):
                return _helper(x)

            class _Gone:
                pass
        """),
        "b": textwrap.dedent("""
            from .a import _LIMIT
            from . import a

            def f():
                return a._NEW
        """),
    }
    assert _unread_private_names(sources) == ["a._OLD", "a._unused_helper", "a._Gone"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_function_locals_are_read(path):
    assert _unread_locals(path.read_text()) == []


def test_unread_local_guard_flags_a_leftover():
    source = textwrap.dedent("""
        import numpy as np
        COUNT = 0

        def f(xs, unused_parameter):
            global COUNT
            COUNT = len(xs)
            spec, herm, _ = np.split(np.asarray(xs), 3)
            pmax = {}
            total = 0
            for x in xs:
                total += x
            try:
                import math
            except ImportError as exc:
                pass

            def g():
                nonlocal herm
                herm = herm * 2
                return herm

            return g()
    """)
    assert _unread_locals(source) == ["f.spec", "f.pmax", "f.total", "f.math", "f.exc"]
