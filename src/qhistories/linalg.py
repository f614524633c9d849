"""Dense complex-matrix primitives for operators on finite Hilbert spaces.

All functions work on plain ``numpy.ndarray`` values coerced to
``complex128``.  Closeness is always judged in the max-entry norm, with
``DEFAULT_TOL`` as the tolerance when none is given.  Matrices are small
(a handful of qubits at most), so nothing here tries to be clever about
sparsity or memory.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "adjoint",
    "as_operator",
    "hs_inner",
    "is_decomposition",
    "is_density_matrix",
    "is_hermitian",
    "is_projector",
    "is_unitary",
    "kron",
    "kron_all",
    "max_abs",
    "maximally_mixed",
    "projector_onto",
    "require_decomposition",
    "require_density_matrix",
    "require_projector",
]

DEFAULT_TOL = 1e-9


def as_operator(m) -> np.ndarray:
    """Coerce ``m`` to a square 2-D complex array."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {arr.shape}")
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def max_abs(m) -> float:
    """Largest entry magnitude, the norm used by every check in the package."""
    arr = np.asarray(m)
    if arr.size == 0:
        return 0.0
    return float(np.max(np.abs(arr)))


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m, dtype=complex).conj().T


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``m`` equals its adjoint within ``tol``."""
    arr = as_operator(m)
    return max_abs(arr - arr.conj().T) <= tol


def is_projector(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``m`` is Hermitian and idempotent within ``tol``.

    Raises ``ValueError`` for non-square input; a zero matrix counts as a
    projector (onto the trivial subspace).
    """
    arr = as_operator(m)
    if max_abs(arr - arr.conj().T) > tol:
        return False
    return max_abs(arr @ arr - arr) <= tol


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``m`` adjoint-times-``m`` is the identity within ``tol``."""
    arr = as_operator(m)
    eye = np.eye(arr.shape[0])
    return max_abs(arr.conj().T @ arr - eye) <= tol and max_abs(arr @ arr.conj().T - eye) <= tol


def is_density_matrix(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``m`` is Hermitian, positive semidefinite and unit trace within ``tol``."""
    arr = as_operator(m)
    if max_abs(arr - arr.conj().T) > tol:
        return False
    if abs(np.trace(arr) - 1.0) > tol:
        return False
    eigenvalues = np.linalg.eigvalsh((arr + arr.conj().T) / 2.0)
    return bool(eigenvalues.min() >= -tol)


def is_decomposition(projectors: Sequence, tol: float = DEFAULT_TOL,
                     allow_zero: bool = False) -> bool:
    """True iff ``projectors`` are mutually orthogonal projectors summing to the identity.

    Parameters
    ----------
    projectors : sequence of matrices
        The candidate decomposition, all of one dimension.
    tol : float
        Max-entry tolerance for every sub-check.
    allow_zero : bool
        Zero members are rejected by default; pass True to permit them.

    Raises ``ValueError`` on an empty sequence or mixed dimensions.
    """
    mats = [as_operator(p) for p in projectors]
    if not mats:
        raise ValueError("a decomposition needs at least one projector")
    dim = mats[0].shape[0]
    if any(p.shape[0] != dim for p in mats):
        raise ValueError("decomposition members have mixed dimensions")
    for p in mats:
        if not is_projector(p, tol):
            return False
        if not allow_zero and max_abs(p) <= tol:
            return False
    clashes, complete = decomposition_defects(mats, tol)
    return not clashes and complete


def decomposition_defects(mats: Sequence[np.ndarray],
                          tol: float) -> tuple[list[tuple[int, int]], bool]:
    """Non-orthogonal index pairs of ``mats`` and whether they sum to the identity.

    ``mats`` are square and of one shape.  The pairs ``(i, j)``, ``i < j``,
    come in lexicographic order; ``tol`` bounds every max-entry norm.
    """
    clashes = [
        (i, j)
        for i in range(len(mats))
        for j in range(i + 1, len(mats))
        if max_abs(mats[i] @ mats[j]) > tol
    ]
    total = sum(mats[1:], start=mats[0])
    return clashes, max_abs(total - np.eye(total.shape[0])) <= tol


def require_projector(m, tol: float = DEFAULT_TOL, what: str = "projector") -> np.ndarray:
    """Coerce and return ``m``, raising ``ValueError`` if it is not a projector."""
    arr = as_operator(m)
    if not is_projector(arr, tol):
        raise ValueError(f"{what} is not a projector within tol={tol}")
    return arr


def require_decomposition(projectors: Sequence, dim: int | None = None,
                          tol: float = DEFAULT_TOL,
                          allow_zero: bool = False) -> list[np.ndarray]:
    """Coerce and return a decomposition of the identity, raising on failure."""
    mats = [as_operator(p) for p in projectors]
    if mats and dim is not None and mats[0].shape[0] != dim:
        raise ValueError(
            f"decomposition dimension {mats[0].shape[0]} does not match expected {dim}"
        )
    if not is_decomposition(mats, tol, allow_zero=allow_zero):
        raise ValueError(
            "projectors do not form a decomposition of the identity "
            f"within tol={tol}"
        )
    return mats


def require_density_matrix(m, dim: int | None = None,
                           tol: float = DEFAULT_TOL) -> np.ndarray:
    """Coerce and return ``m``, raising ``ValueError`` if it is not a density matrix."""
    arr = as_operator(m)
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"state dimension {arr.shape[0]} does not match expected {dim}")
    if not is_density_matrix(arr, tol):
        raise ValueError(f"matrix is not a density matrix within tol={tol}")
    return arr


def hs_inner(rho, k1, k2) -> complex:
    """State-weighted operator inner product Tr[rho k1^dag k2].

    With ``k1 == k2`` this is the weight of the history whose chain
    operator is ``k1``; for two different chain operators it is the
    corresponding decoherence-matrix entry.
    """
    r = as_operator(rho)
    a = as_operator(k1)
    b = as_operator(k2)
    if not (r.shape == a.shape == b.shape):
        raise ValueError(
            f"dimension mismatch: rho {r.shape}, k1 {a.shape}, k2 {b.shape}"
        )
    return complex(np.trace(r @ a.conj().T @ b))


def kron(a, b) -> np.ndarray:
    """Kronecker product of two matrices."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_all(mats: Iterable) -> np.ndarray:
    """Left-associated Kronecker product of a sequence of matrices.

    The fixed evaluation order makes repeated calls bit-identical.
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    if not mats:
        raise ValueError("kron_all needs at least one matrix")
    return reduce(np.kron, mats)


def projector_onto(vec) -> np.ndarray:
    """Rank-1 projector onto the ray spanned by ``vec`` (normalized internally)."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("cannot project onto the zero vector")
    v = v / norm
    return np.outer(v, v.conj())


def maximally_mixed(dim: int) -> np.ndarray:
    """The state I/dim."""
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    return np.eye(dim, dtype=complex) / dim

