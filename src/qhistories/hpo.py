"""History projectors: histories as genuine projection operators.

A length-n history over a d-dimensional space embeds as the n-fold
Kronecker product of its step projectors, a projector on the d^n
dimensional history space.  On that space the histories of one family
become an exhaustive set of mutually orthogonal projectors, sums of
histories are literal operator sums, and the question "is this summed
object itself a product history?" becomes a tensor factorization test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import weight
from .dynamics import TrivialEvolution
from .errors import EmbeddingError
from .linalg import DEFAULT_TOL, as_operator, decomposition_defects, is_projector, kron_all
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

# Relative cutoff for the rank-1 factorization test: the second singular
# value must not exceed this multiple of the first.
RANK1_CUTOFF = 1e-7


@dataclass(frozen=True, eq=False)
class HistoryProjector:
    """A projector on the n-slot history space of a d-dimensional system.

    ``matrix`` has shape (d^n, d^n) with ``d = base_dim`` and
    ``n = slots``; ``slot_times`` records the physical time of each slot.
    """

    matrix: np.ndarray
    slots: int
    slot_times: tuple[float, ...]
    base_dim: int

    def __post_init__(self):
        if self.slots < 1:
            raise ValueError("a history projector needs at least one slot")
        if self.base_dim < 1:
            raise ValueError(f"base dimension must be positive, got {self.base_dim}")
        times = tuple(float(t) for t in self.slot_times)
        if len(times) != self.slots:
            raise ValueError(
                f"{self.slots} slots need {self.slots} slot times, got {len(times)}")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(f"slot times must be strictly increasing, got {times}")
        mat = as_operator(self.matrix)
        expected = self.base_dim ** self.slots
        if mat.shape != (expected, expected):
            raise ValueError(
                f"matrix shape {mat.shape} does not match "
                f"base_dim^slots = {expected}")
        if not is_projector(mat, DEFAULT_TOL):
            raise ValueError("matrix is not a projector on the history space")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "slot_times", times)

    @property
    def dim(self) -> int:
        """Dimension of the history space."""
        return self.base_dim ** self.slots

    def __repr__(self) -> str:
        return (f"HistoryProjector(slots={self.slots}, base_dim={self.base_dim}, "
                f"times={list(self.slot_times)})")


def _check_space(base_dim: int, slots: int) -> None:
    if slots * math.log2(base_dim) > _MAX_HISTORY_BITS + 1e-9:
        raise ValueError(
            f"history space of {slots} slots over dimension {base_dim} exceeds "
            f"the 2^{int(_MAX_HISTORY_BITS)} limit")


def embed(seq: HistorySequence) -> HistoryProjector:
    """Embed a history as the Kronecker product of its step projectors."""
    if len(seq) == 0:
        raise ValueError("cannot embed the empty history")
    d = seq.dim
    _check_space(d, len(seq))
    matrix = kron_all(seq.projectors)
    return HistoryProjector(matrix, len(seq), seq.times, d)


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
    error rather than False.
    """
    if not isinstance(members, HPOFamily):
        members = HPOFamily(tuple(members))
    clashes, complete = decomposition_defects([m.matrix for m in members.members], tol)
    return not clashes and complete


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
    total = np.zeros((family.dim, family.dim), dtype=complex)
    for i in picked:
        total = total + family.members[i].matrix
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
    by projectors that complete each other).
    """
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
