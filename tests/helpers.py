"""Shared generators for randomized tests.

Everything takes an explicit ``numpy.random.Generator`` so each test
controls its own seed and stays reproducible.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import qhistories
from qhistories import (
    BranchingFamily,
    ConstantHamiltonian,
    PiecewiseUnitary,
    TrivialEvolution,
    from_product,
    new_family,
)

PROVIDER_KINDS = ("trivial", "hamiltonian", "unitary_table")


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / 2.0


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_decomposition(dim: int, parts: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Split the columns of a Haar unitary into ``parts`` nonempty blocks."""
    assert 1 <= parts <= dim
    u = haar_unitary(dim, rng)
    if parts > 1:
        cuts = sorted(rng.choice(np.arange(1, dim), size=parts - 1, replace=False))
    else:
        cuts = []
    projectors = []
    start = 0
    for cut in [*cuts, dim]:
        block = u[:, start:cut]
        projectors.append(block @ block.conj().T)
        start = cut
    return projectors


def random_provider(dim: int, rng: np.random.Generator, kind: str,
                    grid: list[float] | None = None):
    if kind == "trivial":
        return TrivialEvolution(dim)
    if kind == "hamiltonian":
        return ConstantHamiltonian(random_hermitian(dim, rng))
    if kind == "unitary_table":
        assert grid is not None and len(grid) >= 2
        unitaries = [haar_unitary(dim, rng) for _ in range(len(grid) - 1)]
        return PiecewiseUnitary(grid, unitaries)
    raise AssertionError(f"unknown provider kind {kind}")


def random_family(rng: np.random.Generator, dim: int | None = None,
                  max_depth: int = 4, kind: str | None = None,
                  stop_probability: float = 0.25) -> BranchingFamily:
    """A valid random branching family.

    Dimensions 2..4, depth at most ``max_depth``, branching factor at
    most the dimension, decompositions read off Haar-random unitaries.
    The piecewise provider pins node times to a shared grid (its
    breakpoints must cover every interior time); the other providers get
    branch-dependent times.
    """
    if dim is None:
        dim = int(rng.integers(2, 5))
    if kind is None:
        kind = PROVIDER_KINDS[int(rng.integers(len(PROVIDER_KINDS)))]
    if kind == "unitary_table":
        increments = rng.uniform(0.2, 1.0, size=max_depth + 1)
        grid = [0.0, *np.cumsum(increments).tolist()]
        provider = random_provider(dim, rng, kind, grid=grid)

        def child_time(depth: int, parent_time: float) -> float:
            return grid[depth]
    else:
        provider = random_provider(dim, rng, kind)

        def child_time(depth: int, parent_time: float) -> float:
            return parent_time + float(rng.uniform(0.1, 1.0))

    fam = new_family(dim, 0.0, random_density(dim, rng), provider)
    frontier = [(0, 0)]
    while frontier:
        node_id, depth = frontier.pop()
        if depth >= max_depth or rng.random() < stop_probability:
            continue
        parts = int(rng.integers(1, dim + 1))
        decomposition = random_decomposition(dim, parts, rng)
        parent_time = fam.moment(node_id).time
        times = [child_time(depth + 1, parent_time) for _ in decomposition]
        known = {m.id for m in fam.moments}
        fam = fam.extend(node_id, decomposition, times)
        frontier.extend(
            (m.id, depth + 1) for m in fam.moments if m.id not in known)
    return fam


def engineered_product_family(rng: np.random.Generator,
                              dim: int | None = None,
                              steps: int | None = None) -> BranchingFamily:
    """A product family with genuinely interfering histories.

    Rank-1 decompositions at two or three times, a random Hamiltonian
    between them and a random initial state give decoherence matrices
    with sizable off-diagonal entries.
    """
    if dim is None:
        dim = int(rng.integers(2, 4))
    if steps is None:
        steps = int(rng.integers(2, 4))
    decompositions = [random_decomposition(dim, dim, rng) for _ in range(steps)]
    times = np.cumsum(rng.uniform(0.3, 1.0, size=steps)).tolist()
    provider = ConstantHamiltonian(random_hermitian(dim, rng, scale=2.0))
    return from_product(dim, times, decompositions,
                        random_density(dim, rng), provider)


def families_equal(f1: BranchingFamily, f2: BranchingFamily) -> bool:
    """Structural equality with bit-exact matrices (used for round trips)."""
    if f1.dim != f2.dim or len(f1.moments) != len(f2.moments):
        return False
    for a, b in zip(f1.moments, f2.moments):
        if (a.id, a.parent, a.time) != (b.id, b.parent, b.time):
            return False
        if (a.projector is None) != (b.projector is None):
            return False
        if a.projector is not None and not np.array_equal(a.projector, b.projector):
            return False
    if not np.array_equal(f1.initial_state, f2.initial_state):
        return False
    e1, e2 = f1.evolution, f2.evolution
    if type(e1) is not type(e2) or e1.dim != e2.dim:
        return False
    if isinstance(e1, ConstantHamiltonian):
        return np.array_equal(e1.hamiltonian, e2.hamiltonian)
    if isinstance(e1, PiecewiseUnitary):
        return (e1.breakpoints == e2.breakpoints
                and all(np.array_equal(u, v)
                        for u, v in zip(e1.unitaries, e2.unitaries)))
    return True


# A JSON integer beyond the float range.
OUT_OF_RANGE = 10 ** 400


def _root_document(initial_state="maximally_mixed", time="0.0") -> str:
    text = json.dumps({"dim": 2, "initial_state": initial_state,
                       "dynamics": {"kind": "trivial"},
                       "nodes": [{"id": 0, "time": "TIME"}]})
    return text.replace('"TIME"', time)


# Documents on which float(), int() or the JSON decoder itself gives up:
# name -> (text, field of the ParseError load_document must raise).
HOSTILE_DOCUMENTS = {
    "matrix-overflow": (
        _root_document([[[1, 0], [0, 0]], [[0, 0], [OUT_OF_RANGE, 0]]]),
        "initial_state[1][1][0]"),
    "time-overflow": (_root_document(time=str(OUT_OF_RANGE)), "nodes[0].time"),
    # An integer literal past Python's 4300-digit conversion limit.
    "too-many-digits": (_root_document(time="1" + "0" * 5000), "$"),
    "deep-nesting": ("[" * 100000, "$"),
}


def run_capped(code: str, limit: int = 1 << 30, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter whose address space is capped at ``limit`` bytes.

    The child imports this checkout's ``qhistories`` and runs BLAS on one
    thread; its stdout and stderr come back as text.
    """
    prelude = ("import resource\n"
               f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n")
    src = str(Path(qhistories.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", prelude + textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=timeout)
