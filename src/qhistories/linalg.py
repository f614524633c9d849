"""Dense complex-matrix primitives for operators on finite Hilbert spaces.

All functions work on plain ``numpy.ndarray`` values coerced to
``complex128``.  Closeness is always judged in the max-entry norm, with
``DEFAULT_TOL`` as the tolerance when none is given; a check passes iff
its norm is at most the tolerance, so a NaN entry fails it.  Projectors
and decompositions are checked in bulk, on (n, d, d) stacks.
"""

from __future__ import annotations

from functools import cache, reduce
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "adjoint",
    "as_operator",
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

# Bytes of pair products or summed rows per batch in decomposition_defects;
# 64 MiB batches validated a dim-32, 1057-node family half as fast.
_CHUNK_BYTES = 4 << 20
# is_decomposition checks a group whose k(k + 1)/2 pair products take at
# most this many bytes with one batched product, at about half the cost of
# decomposition_defects on small groups.  Past it the batched product was
# slower in a fresh process (d = 32, k = 4: 160 KiB of products, 1.2-1.5x),
# so larger groups go through decomposition_defects.
_GROUP_BYTES = 96 << 10


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
    if not (is_hermitian(arr, tol) and abs(np.trace(arr) - 1.0) <= tol):
        return False
    eigenvalues = np.linalg.eigvalsh((arr + arr.conj().T) / 2.0)
    return bool(eigenvalues.min() >= -tol)


def is_decomposition(projectors: Sequence, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``projectors`` are mutually orthogonal nonzero projectors
    summing to the identity, every check within the max-entry ``tol``.

    Raises ``ValueError`` on an empty sequence or mixed dimensions.
    """
    mats = [as_operator(p) for p in projectors]
    if not mats:
        raise ValueError("a decomposition needs at least one projector")
    if any(p.shape != mats[0].shape for p in mats):
        raise ValueError("decomposition members have mixed dimensions")
    stack = np.stack(mats)
    k, d = stack.shape[:2]
    if k * (k + 1) * 8 * d * d > _GROUP_BYTES:  # k(k + 1)/2 products of 16 d^2 bytes
        size, _, herm, idem = _projector_norms(stack)
        clashes, complete = decomposition_defects(stack, [0, k], tol)
        return bool(np.all((herm <= tol) & (idem <= tol) & ~(size <= tol))
                    and not len(clashes) and complete[0])
    i, j, same = _upper_pairs(k)
    products = stack[i] @ stack[j]
    products[same] -= stack  # P_i P_i - P_i; the pairs i < j are P_i P_j
    total = stack.sum(axis=0)
    total.flat[::d + 1] -= 1
    return bool(max_abs(products) <= tol and max_abs(total) <= tol
                and max_abs(stack - stack.conj().transpose(0, 2, 1)) <= tol
                and not (np.abs(stack).max(axis=(1, 2)) <= tol).any())


@cache
def _upper_pairs(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows ``i`` and ``j`` of the pairs i <= j of k members, row by row,
    and the positions of the pairs i == j among them; ``_GROUP_BYTES``
    keeps k below 111."""
    i, j = np.triu_indices(k)
    return i, j, np.flatnonzero(i == j)


def _projector_norms(stack: np.ndarray) -> np.ndarray:
    """Max-entry norms of P, P @ P, P^dag - P and P @ P - P: shape (4, n) for (n, d, d)."""
    square = stack @ stack
    return np.abs(np.stack([stack, square, stack.conj().transpose(0, 2, 1) - stack,
                            square - stack])).max(axis=(2, 3))


def decomposition_defects(stack: np.ndarray, bounds: Sequence[int],
                          tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Non-orthogonal pairs, and completeness, of groups of rows of a stack.

    ``stack`` is an (n, d, d) array.  Group g is rows ``bounds[g]:bounds[g + 1]``,
    not empty; rows from ``bounds[-1]`` on are in no group.  Returns the (k, 2) array
    of pairs i < j in one group with max|P_i P_j| > tol, in lexicographic
    order, and for each group whether max|sum - I| <= tol.  Products and
    partial sums are formed at most ``_CHUNK_BYTES`` at a time.
    """
    bounds = np.asarray(bounds, dtype=np.intp)
    if bounds[-1] == 0:
        return np.empty((0, 2), dtype=np.intp), np.ones(0, dtype=bool)
    d = stack.shape[1]
    chunk = max(1, _CHUNK_BYTES // (16 * d * d))
    group = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))

    # Row i pairs with the later rows of its group: pairs first[i] onwards.
    later = bounds[1:][group] - np.arange(len(group)) - 1
    first, pairs = np.cumsum(later) - later, int(later.sum())
    clashes = [np.empty((0, 2), dtype=np.intp)]
    for k0 in range(0, pairs, chunk):
        k = np.arange(k0, min(k0 + chunk, pairs))
        i = np.searchsorted(first, k, side="right") - 1
        j = i + 1 + k - first[i]
        bad = np.abs(stack[i] @ stack[j]).max(axis=(1, 2)) > tol
        clashes.append(np.stack([i[bad], j[bad]], axis=1))

    sums = np.zeros((len(bounds) - 1, d, d), dtype=complex)
    for r0 in range(0, len(group), chunk):
        g = group[r0:r0 + chunk]
        starts = np.flatnonzero(np.diff(g, prepend=-1))
        sums[g[0]:g[-1] + 1] += np.add.reduceat(stack[r0:r0 + len(g)], starts, axis=0)
    sums -= np.eye(d)
    return np.concatenate(clashes), np.abs(sums).max(axis=(1, 2)) <= tol


def require_projector(m, tol: float = DEFAULT_TOL, what: str = "projector") -> np.ndarray:
    """Coerce and return ``m``, raising ``ValueError`` if it is not a projector."""
    arr = as_operator(m)
    if not is_projector(arr, tol):
        raise ValueError(f"{what} is not a projector within tol={tol}")
    return arr


def require_decomposition(projectors: Sequence, dim: int | None = None,
                          tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Coerce and return a decomposition of the identity, raising on failure."""
    mats = [as_operator(p) for p in projectors]
    if mats and dim is not None and mats[0].shape[0] != dim:
        raise ValueError(
            f"decomposition dimension {mats[0].shape[0]} does not match expected {dim}"
        )
    if not is_decomposition(mats, tol):
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

