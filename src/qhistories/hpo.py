"""History projectors: histories as genuine projection operators.

A length-n history over a d-dimensional space embeds as the n-fold
Kronecker product of its step projectors, a projector on the d^n
dimensional history space.  On that space the histories of one family
become an exhaustive set of mutually orthogonal projectors, sums of
histories are literal operator sums, and the question "is this summed
object itself a product history?" becomes a tensor factorization test.

Members built by :func:`embed` are *factored*: they keep their step
projectors as ``factors`` and build the dense d^n x d^n ``matrix`` only
when it is asked for, anew on each access.  Members built from a dense
matrix, :func:`sum_hpo` results among them, have ``factors = None``.
For factored members

- the projector check at construction bounds the max-entry hermiticity
  and idempotence defects of the Kronecker product from per-slot norms
  (a telescoped sum, exact in its use of max|A (x) B| = max|A| max|B|);
  only when that bound exceeds the tolerance is the dense matrix built
  and checked, so the verdict is always the dense check's;
- :func:`is_homogeneous` is True without a test;
- :func:`is_hpo_family` decides orthogonality slot by slot, from
  (x)P (x)Q = (x)(PQ), and completeness from one dense total.

Every dense d^n x d^n allocation is checked first against a budget of
256 MiB (one 4096 x 4096 complex matrix); a larger one raises
``ValueError`` naming its byte count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import weight
from .dynamics import TrivialEvolution
from .errors import EmbeddingError
from .linalg import (
    DEFAULT_TOL,
    as_operator,
    decomposition_defects,
    is_projector,
    kron_all,
    max_abs,
)
from .structure import BranchingFamily, HistorySequence

__all__ = [
    "HistoryProjector",
    "HPOFamily",
    "embed",
    "embed_family",
    "is_hpo_family",
    "sum_hpo",
    "is_homogeneous",
    "extended_weight",
    "isham_histories",
    "isham_counterexample",
]

# Refuse history spaces beyond 2^20 dimensions; dense matrices past that
# point are no longer a desk-scale object.
_MAX_HISTORY_BITS = 20.0

# Largest dense array this module allocates: 256 MiB, one 4096 x 4096
# complex matrix.
_MAX_DENSE_BYTES = 256 << 20

# Relative cutoff for the rank-1 factorization test: the second singular
# value must not exceed this multiple of the first.
RANK1_CUTOFF = 1e-7


def _check_dense(dim: int) -> None:
    """Refuse a dense ``dim`` x ``dim`` complex matrix over the byte budget."""
    nbytes = 16 * dim * dim
    if nbytes > _MAX_DENSE_BYTES:
        raise ValueError(
            f"a dense {dim} x {dim} history-space matrix needs {nbytes} bytes, "
            f"over the {_MAX_DENSE_BYTES}-byte budget")


def _telescoped(x: list[float], e: list[float], y: list[float]) -> float:
    """Bound on max|(x)X_s - (x)Y_s| from per-slot max-entry norms.

    With x_s = max|X_s|, y_s = max|Y_s| and e_s = max|X_s - Y_s|, the
    telescoped difference sum_k (x)_{s<k} X_s (x) (X_k - Y_k) (x)_{s>k} Y_s
    gives sum_k prod_{s<k} x_s * e_k * prod_{s>k} y_s.
    """
    return sum(math.prod(x[:k]) * e[k] * math.prod(y[k + 1:]) for k in range(len(e)))


def _factors_certified(stack: np.ndarray, tol: float) -> bool:
    """True if the Kronecker product of ``stack`` is surely a projector within ``tol``.

    False only means the bound exceeds ``tol``; the dense check decides.
    """
    square = stack @ stack
    norms = np.abs(np.stack([stack, square, stack.conj().transpose(0, 2, 1) - stack,
                             square - stack])).max(axis=(2, 3))
    p, p2, herm, idem = norms.tolist()
    return _telescoped(p, herm, p) <= tol and _telescoped(p2, idem, p) <= tol


@dataclass(frozen=True, eq=False, init=False)
class HistoryProjector:
    """A projector on the n-slot history space of a d-dimensional system.

    ``matrix`` has shape (d^n, d^n) with ``d = base_dim`` and
    ``n = slots``; ``slot_times`` records the physical time of each slot.
    A projector made by :func:`embed` is factored: ``factors`` holds its
    n read-only (d, d) step projectors and ``matrix`` is their Kronecker
    product, built on every access and never kept.  One made from a
    dense matrix has ``factors = None``.
    """

    slots: int
    slot_times: tuple[float, ...]
    base_dim: int
    _matrix: np.ndarray | None
    _stack: np.ndarray | None

    def __init__(self, matrix, slots: int, slot_times: Sequence[float], base_dim: int):
        times = _slot_times(slots, slot_times, base_dim)
        expected = base_dim ** slots
        _check_dense(expected)
        mat = as_operator(matrix)
        if mat.shape != (expected, expected):
            raise ValueError(
                f"matrix shape {mat.shape} does not match "
                f"base_dim^slots = {expected}")
        if not is_projector(mat, DEFAULT_TOL):
            raise ValueError("matrix is not a projector on the history space")
        self._init(mat, None, slots, times, base_dim)

    @classmethod
    def _factored(cls, stack: np.ndarray, slot_times: Sequence[float]) -> "HistoryProjector":
        """The projector whose factors are the (slots, d, d) ``stack``, which it takes over."""
        slots, base_dim = stack.shape[0], stack.shape[1]
        times = _slot_times(slots, slot_times, base_dim)
        self = cls.__new__(cls)
        self._init(None, stack, slots, times, base_dim)
        if not (_factors_certified(stack, DEFAULT_TOL)
                or is_projector(self.matrix, DEFAULT_TOL)):
            raise ValueError("matrix is not a projector on the history space")
        return self

    def _init(self, matrix, stack, slots, times, base_dim) -> None:
        for name, value in (("_matrix", matrix), ("_stack", stack), ("slots", slots),
                            ("slot_times", times), ("base_dim", base_dim)):
            object.__setattr__(self, name, value)

    @property
    def factors(self) -> tuple[np.ndarray, ...] | None:
        """The step projectors of a factored projector, as read-only views, else None."""
        if self._stack is None:
            return None
        views = tuple(self._stack)
        for v in views:
            v.flags.writeable = False
        return views

    @property
    def matrix(self) -> np.ndarray:
        """The dense (d^n, d^n) matrix; built anew for a factored projector."""
        if self._stack is None:
            return self._matrix
        _check_dense(self.dim)
        return kron_all(self._stack)

    @property
    def dim(self) -> int:
        """Dimension of the history space."""
        return self.base_dim ** self.slots

    def __repr__(self) -> str:
        return (f"HistoryProjector(slots={self.slots}, base_dim={self.base_dim}, "
                f"times={list(self.slot_times)})")


def _slot_times(slots: int, slot_times: Sequence[float], base_dim: int) -> tuple[float, ...]:
    """Check the slot structure of a history projector; return its times as floats."""
    if slots < 1:
        raise ValueError("a history projector needs at least one slot")
    if base_dim < 1:
        raise ValueError(f"base dimension must be positive, got {base_dim}")
    times = tuple(float(t) for t in slot_times)
    if len(times) != slots:
        raise ValueError(
            f"{slots} slots need {slots} slot times, got {len(times)}")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError(f"slot times must be strictly increasing, got {times}")
    return times


def _check_space(base_dim: int, slots: int) -> None:
    if slots * math.log2(base_dim) > _MAX_HISTORY_BITS + 1e-9:
        raise ValueError(
            f"history space of {slots} slots over dimension {base_dim} exceeds "
            f"the 2^{int(_MAX_HISTORY_BITS)} limit")


def embed(seq: HistorySequence) -> HistoryProjector:
    """Embed a history as the Kronecker product of its step projectors.

    The result is factored: it holds the step projectors, not the product.
    """
    if len(seq) == 0:
        raise ValueError("cannot embed the empty history")
    _check_space(seq.dim, len(seq))
    return HistoryProjector._factored(np.stack(seq.projectors), seq.times)


@dataclass(frozen=True, eq=False)
class HPOFamily:
    """A set of history projectors sharing slot count, times and base dimension."""

    members: tuple[HistoryProjector, ...]

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("a history-projector family needs at least one member")
        first = members[0]
        for k, m in enumerate(members[1:], start=1):
            if m.slots != first.slots:
                raise ValueError(
                    f"member {k} has {m.slots} slots, expected {first.slots}")
            if m.base_dim != first.base_dim:
                raise ValueError(
                    f"member {k} has base dimension {m.base_dim}, "
                    f"expected {first.base_dim}")
            if m.slot_times != first.slot_times:
                raise ValueError(
                    f"member {k} has slot times {m.slot_times}, "
                    f"expected {first.slot_times}")
        object.__setattr__(self, "members", members)

    @property
    def slots(self) -> int:
        return self.members[0].slots

    @property
    def base_dim(self) -> int:
        return self.members[0].base_dim

    @property
    def slot_times(self) -> tuple[float, ...]:
        return self.members[0].slot_times

    @property
    def dim(self) -> int:
        return self.members[0].dim

    def __len__(self) -> int:
        return len(self.members)


def embed_family(family: BranchingFamily, tol: float = DEFAULT_TOL) -> HPOFamily:
    """Embed every history of a branching family at once.

    Possible only when all histories share the same step times, which for
    branch-dependent timings is not the case; then an
    :class:`EmbeddingError` explains what differs.
    """
    histories = family.histories(tol)
    if any(len(h) == 0 for h in histories):
        raise EmbeddingError("family contains the empty history (bare root)")
    times = {h.times for h in histories}
    if len(times) > 1:
        raise EmbeddingError(
            f"histories do not share one time grid: found {sorted(times)}")
    return HPOFamily(tuple(embed(h) for h in histories))


def is_hpo_family(members, tol: float = DEFAULT_TOL) -> bool:
    """True iff the projectors are pairwise orthogonal and sum to the identity.

    ``members`` may be an :class:`HPOFamily` or a plain sequence of
    :class:`HistoryProjector` values; mismatched slot structure is an
    error rather than False.  Orthogonality of factored members is
    decided from their factors; a family with a dense member is checked
    on dense matrices throughout.
    """
    if not isinstance(members, HPOFamily):
        members = HPOFamily(tuple(members))
    if any(m._stack is None for m in members.members):
        clashes, complete = decomposition_defects([m.matrix for m in members.members], tol)
        return not clashes and complete
    if _factors_clash(np.stack([m._stack for m in members.members]), tol):
        return False
    total = _dense_sum(members.members, members.dim)
    total.flat[::members.dim + 1] -= 1.0
    return max_abs(total) <= tol


def _factors_clash(stacks: np.ndarray, tol: float) -> bool:
    """True iff two factored members are not orthogonal within ``tol``.

    ``stacks`` holds each member's factors, shape (n, slots, d, d).  As
    (x)P (x)Q = (x)(PQ) and max|(x)A_s| = prod_s max|A_s|, the product of
    members i and j has max-entry norm prod_s max|P_i^s P_j^s|.  That
    (n, n) product is built one slot at a time, from one GEMM of the
    members' factors against all members' factors, over blocks of rows
    whose GEMM result takes at most a quarter of the dense budget.
    """
    n, slots, d, _ = stacks.shape
    # Column j * n + b of slot s holds column j of member b's factor, so
    # that each (d, d) product's entries lie along the middle axis below.
    right = stacks.transpose(1, 2, 3, 0).reshape(slots, d, d * n)
    rows = max(1, _MAX_DENSE_BYTES // (64 * d * d * n))
    for a0 in range(0, n, rows):
        left = stacks[a0:a0 + rows]
        norms = np.ones((len(left), n))
        for s in range(slots):
            products = np.abs(left[:, s].reshape(-1, d) @ right[s])
            norms *= products.reshape(len(left), d * d, n).max(axis=1)
        # Pairs (i, j) with i < j, as the dense check takes them.
        if np.triu(norms > tol, a0 + 1).any():
            return True
    return False


def _dense_sum(members: Sequence[HistoryProjector], dim: int) -> np.ndarray:
    """Sum of the members' dense matrices, accumulated in one budget-checked total.

    No factored member's dense matrix is formed on its own.
    """
    _check_dense(dim)
    total = np.zeros((dim, dim), dtype=complex)
    stacks = [m._stack for m in members if m._stack is not None]
    if stacks:
        _add_kron_sum(total, stacks)
    for m in members:
        if m._stack is None:
            total += m._matrix
    return total


def _add_kron_sum(out: np.ndarray, stacks: list[np.ndarray]) -> None:
    """Add the Kronecker products of equally shaped (slots, d, d) stacks to ``out``.

    Stacks sharing their first factor P add P (x) (the sum over their
    remaining factors), so a product family's total takes a few dense
    products per level of its tree instead of one per member.
    """
    if len(stacks[0]) == 1:
        for st in stacks:
            out += st[0]
        return
    groups: dict[bytes, list[np.ndarray]] = {}
    for st in stacks:
        groups.setdefault(st[0].tobytes(), []).append(st)
    d, e = stacks[0].shape[1], len(out) // stacks[0].shape[1]
    blocks = out.reshape(d, e, d, e)
    for group in groups.values():
        rest = np.zeros((e, e), dtype=complex)
        _add_kron_sum(rest, [st[1:] for st in group])
        first = group[0][0]
        # One entry of the first factor at a time, so that no temporary
        # as large as the total is made.
        for i, j in np.ndindex(d, d):
            blocks[i, :, j, :] += first[i, j] * rest


def _selector_indices(selector: Sequence, size: int) -> list[int]:
    sel = list(selector)
    if len(sel) != size:
        raise ValueError(f"selector length {len(sel)} does not match {size} members")
    picked = []
    for i, flag in enumerate(sel):
        if flag not in (0, 1, False, True):
            raise ValueError(f"selector entries must be 0 or 1, got {sel[i]!r}")
        if flag:
            picked.append(i)
    return picked


def sum_hpo(family: HPOFamily, selector: Sequence) -> HistoryProjector:
    """Operator sum of the selected members.

    Orthogonality of the members makes the sum a projector again; the
    all-zeros selector gives the zero projector and the all-ones selector
    the identity on the history space.
    """
    picked = _selector_indices(selector, len(family))
    total = _dense_sum([family.members[i] for i in picked], family.dim)
    return HistoryProjector(total, family.slots, family.slot_times, family.base_dim)


def _schmidt_rank_one(matrix: np.ndarray, d: int, slots: int, cutoff: float) -> bool:
    """Recursive rank-1 test across the (first slot | rest) bipartition."""
    if slots == 1:
        return True
    e = d ** (slots - 1)
    realigned = (matrix.reshape(d, e, d, e)
                 .transpose(0, 2, 1, 3)
                 .reshape(d * d, e * e))
    _, s, vh = np.linalg.svd(realigned, full_matrices=False)
    if s[0] <= 1e-300:
        return True  # zero operator factorizes trivially
    if len(s) > 1 and s[1] > cutoff * s[0]:
        return False
    remainder = vh[0].reshape(e, e)
    return _schmidt_rank_one(remainder, d, slots - 1, cutoff)


def is_homogeneous(y: HistoryProjector, tol: float = RANK1_CUTOFF) -> bool:
    """True iff ``y`` factors slot by slot into a product of projectors.

    Decided by a sequence of operator-Schmidt rank tests: realign the
    matrix across the bipartition (first slot | remaining slots) and ask
    for a single dominant singular value, with ``tol`` the admissible
    ratio of the second to the first; then recurse on the remainder.
    Sums of distinct histories typically fail, but a sum can collapse
    back to a product (for instance when two summands differ in one slot
    by projectors that complete each other).  A factored projector is a
    product by construction, and the answer is True without a test.
    """
    if y._stack is not None:
        return True
    return _schmidt_rank_one(y.matrix, y.base_dim, y.slots, tol)


def extended_weight(d, selector: Sequence, tol: float = DEFAULT_TOL) -> float:
    """Weight of a summed history as a quadratic form on the decoherence matrix.

    For a selected subset S this is sum over (a, b) in S x S of D[a, b],
    which by linearity of chain operators equals the weight of the summed
    history whenever that sum exists.  The result must be real within
    ``tol``.
    """
    dmat = np.asarray(d, dtype=complex)
    if dmat.ndim != 2 or dmat.shape[0] != dmat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {dmat.shape}")
    s = np.zeros(dmat.shape[0])
    s[_selector_indices(selector, dmat.shape[0])] = 1.0
    total = complex(s @ dmat @ s)
    if abs(total.imag) > tol:
        raise ValueError(f"extended weight has imaginary part {total.imag}")
    return float(total.real)


def isham_histories() -> tuple[HistorySequence, ...]:
    """The four two-step histories of the standard inhomogeneity example.

    With phi = |0>, psi = |1> and chi, chi' the Hadamard pair, the
    histories (at times 0 and 1) are

        h1 = chi  then psi
        h2 = chi' then psi
        h3 = phi  then phi
        h4 = psi  then phi

    They form a valid history-projector family, yet no branching family:
    the first-step projectors are drawn from two incompatible
    decompositions.
    """
    p_phi = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    p_psi = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    p_chi = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    p_chi_prime = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    t1, t2 = 0.0, 1.0
    return (
        HistorySequence(((t1, p_chi), (t2, p_psi))),
        HistorySequence(((t1, p_chi_prime), (t2, p_psi))),
        HistorySequence(((t1, p_phi), (t2, p_phi))),
        HistorySequence(((t1, p_psi), (t2, p_phi))),
    )


def isham_counterexample() -> tuple[HPOFamily, np.ndarray]:
    """History-projector family whose weights do not sum to one.

    Returns the embedded family of :func:`isham_histories` together with
    its weights against the pure state |0><0| under trivial dynamics.
    The weights come out (0.25, 0.25, 1.0, 0.0): a valid exhaustive,
    exclusive family of history projectors whose total weight is 1.5,
    which is exactly why weight sums certify branching structure and not
    mere exclusivity.
    """
    histories = isham_histories()
    evolution = TrivialEvolution(2)
    rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    weights = np.array([weight(h, evolution, rho) for h in histories])
    family = HPOFamily(tuple(embed(h) for h in histories))
    return family, weights
