"""Dense complex-matrix primitives for operators on finite Hilbert spaces.

All functions work on plain ``numpy.ndarray`` values coerced to
``complex128``.  Closeness is always judged in the max-entry norm, with
``DEFAULT_TOL`` as the tolerance when none is given; a check passes iff
its norm is at most the tolerance, so a NaN entry fails it.  Projectors
and decompositions are checked in bulk, on (n, d, d) stacks.

Exclusive from exhaustive: projectors Q_i summing to I are pairwise orthogonal,
as Q_i + Q_j <= I and lambda_max(Q_i + Q_j) = 1 + ||Q_i Q_j||_2.  For a group
of k computed d x d members P_i with max-entry sizes s_i, Hermiticity and
idempotence defects h_i and a_i and residual c = max|sum P - I|, let
e_i = d h_i / 2, alpha_i = d a_i + (2 d s_i + 1) e_i + e_i^2 < 1/4 and
delta_i = e_i + 2 alpha_i: P_i is within delta_i of an exact projector, and
max|P_i P_j| <= d c + sum delta + d s_j delta_i + delta_j.
:func:`decomposition_defects` adds 4(d + k + 2) machine epsilons of slack for
rounding and forms pair products only in the groups left above tol.
"""

from __future__ import annotations

from functools import reduce
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

# Bytes of pair products per batch in decomposition_defects;
# 64 MiB batches validated a dim-32, 1057-node family half as fast.
_CHUNK_BYTES = 4 << 20


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
    return _first_defect([as_operator(p) for p in projectors], tol) is None


def _projector_norms(stack: np.ndarray) -> np.ndarray:
    """Max-entry norms of P, P @ P, P^dag - P and P @ P - P: shape (4, n) for (n, d, d)."""
    n, d = stack.shape[:2]
    square = stack @ stack
    return np.abs(np.concatenate([stack, square, stack.conj().transpose(0, 2, 1) - stack,
                                  square - stack]).reshape(4, n, d * d)).max(axis=2)


def decomposition_defects(stack: np.ndarray, norms: np.ndarray, bounds: Sequence[int],
                          tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Non-orthogonal pairs, and completeness, of groups of rows of a stack.

    ``stack`` is an (n, d, d) array and ``norms`` its :func:`_projector_norms`.
    Group g is rows ``bounds[g]:bounds[g + 1]``, not empty; rows from
    ``bounds[-1]`` on are in no group.  Returns the (k, 2) array of pairs
    i < j in one group with max|P_i P_j| > tol, in lexicographic order, and
    for each group whether max|sum - I| <= tol.  Only the groups that
    :func:`_exclusive` leaves open form pair products, ``_CHUNK_BYTES`` at a time.
    """
    bounds = np.asarray(bounds, dtype=np.intp)
    n = int(bounds[-1])
    if n == 0:
        return np.empty((0, 2), dtype=np.intp), np.ones(0, dtype=bool)
    d, starts, sizes = stack.shape[1], bounds[:-1], bounds[1:] - bounds[:-1]
    sums = np.add.reduceat(stack[:n], starts, axis=0)
    sums.reshape(len(sizes), -1)[:, ::d + 1] -= 1
    residual = np.abs(sums).max(axis=(1, 2))
    stats, counts = [residual, *np.maximum.reduceat(norms[:, :n], starts, axis=1)], sizes
    if len(sizes) == 1:  # a one-element array costs 15 times a float per operation
        stats, counts = [x.item() for x in stats], n
    with np.errstate(all="ignore"):  # overflows and inf * 0 leave a bound open
        exclusive = np.asarray(_exclusive(d, counts, *stats, tol))
    if exclusive.all():
        return np.empty((0, 2), dtype=np.intp), residual <= tol

    # Row i of an open group pairs with the later rows of its group: pairs first[i] onwards.
    later = np.where(np.repeat(exclusive, sizes), 0,
                     np.repeat(bounds[1:], sizes) - np.arange(n) - 1)
    first, pairs = np.cumsum(later) - later, int(later.sum())
    chunk = max(1, _CHUNK_BYTES // (16 * d * d))
    clashes = [np.empty((0, 2), dtype=np.intp)]
    for k0 in range(0, pairs, chunk):
        k = np.arange(k0, min(k0 + chunk, pairs))
        i = np.searchsorted(first, k, side="right") - 1
        j = i + 1 + k - first[i]
        bad = np.abs(stack[i] @ stack[j]).max(axis=(1, 2)) > tol
        clashes.append(np.stack([i[bad], j[bad]], axis=1))
    return np.concatenate(clashes), residual <= tol


def _exclusive(d: int, k, c, s, _, h, a, tol: float):
    """Whether the module docstring's bound puts every pair of a group within
    ``tol`` of orthogonal, from its size k, residual c and its members' largest
    norms s, h and a: floats for one group, arrays over groups."""
    rho = (d + k + 2) * 2.0 ** -50  # four machine epsilons per term
    s = s * (1 + rho)
    c = c * (1 + rho) + rho * (k * s + 1)
    a = a * (1 + rho) + rho * d * s * s
    e = d * h * (1 + rho) / 2
    alpha = d * a + (2 * d * s + 1) * e + e * e
    delta = e + 2 * alpha
    bound = (d * c + (k + d * s + 1) * delta + rho * d * s * s) * (1 + rho)
    return (bound <= tol) & (alpha < 0.25)


def require_projector(m, tol: float = DEFAULT_TOL, what: str = "projector") -> np.ndarray:
    """Coerce and return ``m``, raising ``ValueError`` if it is not a projector."""
    arr = as_operator(m)
    if not is_projector(arr, tol):
        raise ValueError(f"{what} is not a projector within tol={tol}")
    return arr


def require_decomposition(projectors: Sequence, dim: int | None = None,
                          tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Coerce and return a decomposition of the identity, raising on failure.

    The message names the first failing check: a zero member, a member
    that is no projector, a non-orthogonal pair, or an incomplete sum.
    """
    mats = [as_operator(p) for p in projectors]
    if mats and dim is not None and mats[0].shape[0] != dim:
        raise ValueError(
            f"decomposition dimension {mats[0].shape[0]} does not match expected {dim}"
        )
    defect = _first_defect(mats, tol)
    if defect is not None:
        raise ValueError(
            f"projectors do not form a decomposition of the identity within tol={tol}: {defect}")
    return mats


def _first_defect(mats: list[np.ndarray], tol: float) -> str | None:
    """The first check of :func:`is_decomposition` that the matrices ``mats`` fail, or None."""
    if not mats:
        raise ValueError("a decomposition needs at least one projector")
    if any(p.shape != mats[0].shape for p in mats):
        raise ValueError("decomposition members have mixed dimensions")
    stack = np.array(mats)
    size, _, herm, idem = norms = _projector_norms(stack)
    zero = size <= tol
    if zero.any():
        return f"zero member {zero.argmax()}"
    projector = (herm <= tol) & (idem <= tol)
    if not projector.all():
        return f"member {projector.argmin()} not a projector"
    clashes, complete = decomposition_defects(stack, norms, [0, len(stack)], tol)
    if len(clashes):
        return f"members {clashes[0, 0]} and {clashes[0, 1]} not orthogonal"
    return None if complete[0] else "sum not the identity"


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

