"""Every module-level import in the package is used or exported."""

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
