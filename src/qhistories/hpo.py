"""History projectors: histories as genuine projection operators.

A length-n history over a d-dimensional space embeds as the n-fold
Kronecker product of its step projectors, a projector on the d^n
dimensional history space.  On that space the histories of one family
become an exhaustive set of mutually orthogonal projectors, sums of
histories are literal operator sums, and the question "is this summed
object itself a product history?" becomes a tensor factorization test.

Members built by :func:`embed` are *factored*: they keep their step
projectors as ``factors`` and build the dense d^n x d^n ``matrix`` only
when it is asked for, anew on each access.  A :func:`sum_hpo` of
factored members that are exactly the rows of a product of per-slot
factor sets F_s is factored too, as (x)_s sum_{f in F_s} P_f.  Any other
sum of factored members is *summed*: it keeps the picked rows of its
family's factor table as their tree (below) and builds its ``matrix`` on
each access, from that tree.  Summed projectors, and those built from a
dense matrix, have ``factors = None``.  For factored members

- the projector check at construction bounds the max-entry hermiticity
  and idempotence defects of the Kronecker product from per-slot norms
  (a telescoped sum, exact in its use of max|A (x) B| = max|A| max|B|);
  only when that bound exceeds the tolerance (:func:`embed_family`'s
  ``tol``, which its :class:`HPOFamily` keeps, else ``DEFAULT_TOL``) is
  the dense matrix built and checked, so the verdict is always the dense
  check's.  :func:`embed_family` takes the norms once per tree node and
  the bound for all members at once, and builds the members in bulk;
- :func:`is_homogeneous` is True without a test;
- :func:`is_hpo_family` works on the tree of shared leading factors.
  Members sharing their factors before slot s form a node; its children
  a carry the slot-s factors P_a, and below each child sit the remaining
  factors of its members, summing to S_a.  Identical subfamilies are
  handled once.

Completeness is certified bottom up.  With E_a = S_a - I and
||E_a||_2 <= b_a, the node's sum less the identity is

    sum_a P_a (x) S_a - I = (sum_a P_a - I) (x) I + M,  M = sum_a P_a (x) E_a,

and ||M||_2^2 = ||M^dag M||_2 <= B^2 (G + X), from the diagonal terms
sum_a P_a^dag P_a (x) E_a^dag E_a <= B^2 (sum_a P_a^dag P_a) (x) I and
the triangle inequality on the rest, where B = max_a b_a,
G = ||sum_a P_a^dag P_a||_2 and X = sum_{a != b} ||P_a^dag P_b||_2.  So

    max|sum_i M_i - I| <= ||sum_i M_i - I||_2
                       <= ||sum_a P_a - I||_2 + B sqrt(G + X),

with 0 or |count - 1| at the leaves (count members with one row of
factors).  Spectral norms are bounded above by sqrt(||A||_1 ||A||_inf)
and ||A||_F.  A bound <= tol certifies; otherwise the dense total
decides, and over the byte budget the check raises ``ValueError``.

Sums are certified projectors by the same inequality: telescoped along
the family's tree, ||S^dag - S||_2, ||S S - S||_2 <= a and ||S||_2 <= N
are bounded for the sum S of any nonempty subset of its members at once
(:func:`_bounds`).  Where a bound on a sum exceeds the family's ``tol``,
the dense total is built and checked, and the sum is kept dense.

Exclusivity follows from those bounds, as P + Q is a projector only if
PQ = 0.  For members M_i and M_j (i != j), with A = M M - M and
E = M_i M_j + M_j M_i, the pair sum S = M_i + M_j has
S S - S = A_i + A_j + E, so ||E||_2 <= 3a, the singletons' bounds
included.  With M_i M_i = M_i + A_i,

    2 M_i M_j = E + M_i E - E M_i - A_i M_j + M_j A_i,

so max|M_i M_j| <= ||M_i M_j||_2 <= a (3 + 8N) / 2.  Where that bound
exceeds tol, the exact slot-by-slot product of :func:`_factors_clash`
decides, from (x)P (x)Q = (x)(PQ).

An :class:`HPOFamily` of factored members finds its distinct factors
once, on first use (from the member stack :func:`embed_family` gathered,
where it did), and builds the tree over their ids and its bounds, whose
norms :func:`_bounds` takes in one batched pass, its sibling pairs by
:func:`linalg._pair_products`; a :func:`sum_hpo` builds the picked
members' tree from the same ids.
Dense totals of factored members (summed matrices and the fallbacks)
are built by :func:`_kron_sum` on the tree, each distinct subfamily
once, with siblings over equal subfamilies merged into
(sum_a P_a) (x) R.  A summed projector is decided by
:func:`is_homogeneous` from Gram matrices: at the first cut of its tree
with more than one distinct subfamily below it, the singular values of
the realigned sum are those of a k x k problem built from the per-slot
factor traces Tr(P_f^dag P_g), recursed over pairs of distinct
subfamilies and all read from one product of the leading factors'
entries at that cut (:func:`_cut_grams`).  Where sigma_1/sigma_0 there
exceeds the caller's ``tol`` by the rounding margin of :func:`_splits`,
the answer is False with no dense matrix; otherwise the dense
operator-Schmidt recursion decides, so the verdict is always the dense
one and never True from the Gram matrices.

Every dense d^n x d^n allocation is checked first against a budget of
256 MiB (one 4096 x 4096 complex matrix); a larger one raises
``ValueError`` naming its byte count.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, product
from operator import mul
from typing import NamedTuple, Sequence

import numpy as np

from .chain import weight
from .dynamics import TrivialEvolution, _finite_times
from .errors import EmbeddingError
from .linalg import (
    _CHUNK_BYTES,
    DEFAULT_TOL,
    _pair_products,
    _projector_norms,
    as_operator,
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


def _fits_dense(dim: int) -> bool:
    """Whether a dense ``dim`` x ``dim`` complex matrix is within the byte budget."""
    return 16 * dim * dim <= _MAX_DENSE_BYTES


def _check_dense(dim: int) -> None:
    """Refuse a dense ``dim`` x ``dim`` complex matrix over the byte budget."""
    if not _fits_dense(dim):
        raise ValueError(
            f"a dense {dim} x {dim} history-space matrix needs {16 * dim * dim} bytes, "
            f"over the {_MAX_DENSE_BYTES}-byte budget")


def _telescoped(x: np.ndarray, e: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bounds on max|(x)X_s - (x)Y_s| from per-slot max-entry norms, one per row.

    With x_s = max|X_s|, y_s = max|Y_s| and e_s = max|X_s - Y_s| along the
    last axis, the telescoped difference
    sum_k (x)_{s<k} X_s (x) (X_k - Y_k) (x)_{s>k} Y_s gives
    sum_k prod_{s<k} x_s * e_k * prod_{s>k} y_s, here from cumulative
    products.
    """
    terms = e.copy()
    terms[..., 1:] *= np.cumprod(x, axis=-1)[..., :-1]
    terms[..., :-1] *= np.cumprod(y[..., ::-1], axis=-1)[..., -2::-1]
    return terms.sum(axis=-1)


def _certified(norms: np.ndarray, tol: float) -> np.ndarray:
    """Which Kronecker products are surely projectors within ``tol``.

    ``norms`` is :func:`linalg._projector_norms` of each product's factors,
    shape (4, n, slots): the hermiticity defect is bounded with x = y = max|P|,
    the idempotence defect with x = max|P P| and y = max|P|.  Each bound has
    ``slots`` terms, at most the largest defect times the largest norm to
    the power slots - 1; where that is within half of ``tol``, leaving room
    for rounding, every product is certified at once.  False only means a
    bound exceeds ``tol``; the dense check decides.
    """
    n, slots = norms.shape[1:]
    # The largest of max|P| and max|P P|, and of the two defects; a NaN stays NaN.
    norm, defect = np.maximum.reduce(norms.reshape(2, -1), axis=1).tolist()
    if slots * defect * norm ** (slots - 1) <= tol / 2:
        return np.ones(n, dtype=bool)
    return (_telescoped(norms[:2], norms[2:], norms[0]) <= tol).all(axis=0)


@dataclass(frozen=True, eq=False, init=False)
class HistoryProjector:
    """A projector on the n-slot history space of a d-dimensional system.

    ``matrix`` has shape (d^n, d^n) with ``d = base_dim`` and
    ``n = slots``; ``slot_times`` records the physical time of each slot.
    A projector made by :func:`embed` is factored: ``factors`` holds its
    n read-only (d, d) step projectors and ``matrix`` is their Kronecker
    product, built on every access and never kept.  A :func:`sum_hpo`
    that is no product keeps its members as rows of their family's
    factor table, and builds ``matrix`` on every access too.  Those and
    projectors made from a dense matrix have ``factors = None``.
    """

    slots: int
    slot_times: tuple[float, ...]
    base_dim: int
    _matrix: np.ndarray | None
    _stack: np.ndarray | None
    _summed: tuple[np.ndarray, list, int] | None

    def __init__(self, matrix, slots: int, slot_times: Sequence[float], base_dim: int):
        times = _slot_times(slots, slot_times, base_dim)
        expected = base_dim ** slots
        _check_dense(expected)
        mat = as_operator(matrix)
        if mat.shape != (expected, expected):
            raise ValueError(
                f"matrix shape {mat.shape} does not match "
                f"base_dim^slots = {expected}")
        _require_projector(mat, DEFAULT_TOL)
        self._init(slots, times, base_dim, matrix=mat)

    @classmethod
    def _factored(cls, stack: np.ndarray, times: tuple[float, ...],
                  certified: bool | None = None, tol: float = DEFAULT_TOL) -> "HistoryProjector":
        """The projector whose factors are the (slots, d, d) ``stack``, which it takes over.

        ``times`` must have passed :func:`_slot_times`.  Unless the factors'
        bound is ``certified`` within ``tol`` (computed here when None), the
        dense matrix must pass the projector check at ``tol``.
        """
        if certified is None:
            certified = bool(_certified(_projector_norms(stack)[:, None], tol)[0])
        self = cls._trusted(stack.shape[0], times, stack.shape[1], stack=stack)
        if not certified:
            _require_projector(self.matrix, tol)
        return self

    @classmethod
    def _trusted(cls, slots: int, times: tuple[float, ...], base_dim: int, *,
                 matrix=None, stack=None, summed=None) -> "HistoryProjector":
        """The projector held as one of a dense ``matrix``, a ``stack`` of factors or
        a ``summed`` tree (factors, subfamilies and root of :func:`_id_tree`), unchecked."""
        self = cls.__new__(cls)
        self._init(slots, times, base_dim, matrix, stack, summed)
        return self

    def _init(self, slots, times, base_dim, matrix=None, stack=None, summed=None) -> None:
        put = object.__setattr__
        put(self, "_matrix", matrix)
        put(self, "_stack", stack)
        put(self, "_summed", summed)
        put(self, "slots", slots)
        put(self, "slot_times", times)
        put(self, "base_dim", base_dim)

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
        """The dense (d^n, d^n) matrix; built anew unless the projector was given dense."""
        if self._matrix is not None:
            return self._matrix
        if self._stack is None:
            return _kron_sum(*self._summed, self.dim)
        _check_dense(self.dim)
        return kron_all(self._stack)

    @property
    def dim(self) -> int:
        """Dimension of the history space."""
        return self.base_dim ** self.slots

    def __repr__(self) -> str:
        return (f"HistoryProjector(slots={self.slots}, base_dim={self.base_dim}, "
                f"times={list(self.slot_times)})")


def _require_projector(matrix: np.ndarray, tol: float) -> None:
    if not is_projector(matrix, tol):
        raise ValueError("matrix is not a projector on the history space")


def _slot_times(slots: int, slot_times: Sequence[float], base_dim: int) -> tuple[float, ...]:
    """Check the slot structure of a history projector; return its times as floats."""
    if slots < 1:
        raise ValueError("a history projector needs at least one slot")
    if base_dim < 1:
        raise ValueError(f"base dimension must be positive, got {base_dim}")
    times = tuple(_finite_times(slot_times, "slot time"))
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
    stack = np.stack(seq.projectors)
    times = _slot_times(len(seq), seq.times, seq.dim)
    return HistoryProjector._factored(stack, times)


@dataclass(frozen=True, eq=False)
class HPOFamily:
    """A set of history projectors sharing slot count, times and base dimension.

    ``tol`` is the tolerance of the family's checks: :func:`embed_family`
    records the one it embedded at, and :func:`sum_hpo` and
    :func:`is_hpo_family` check at it unless given another.
    """

    members: tuple[HistoryProjector, ...]
    tol: float = DEFAULT_TOL
    # The members' factors, shape (n, slots, d, d), when embed_family gathered them.
    _stacks = None

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

    @classmethod
    def _embedded(cls, stacks: np.ndarray, times: tuple[float, ...], tol: float) -> "HPOFamily":
        """The family of factored members whose factors are the (slots, d, d) rows of
        ``stacks``, each a view of its row, built in bulk and unchecked."""
        slots, base_dim = stacks.shape[1:3]
        new, init = HistoryProjector.__new__, HistoryProjector._init
        members = []
        for stack in stacks:
            member = new(HistoryProjector)
            init(member, slots, times, base_dim, None, stack)
            members.append(member)
        self = cls.__new__(cls)
        for name, value in (("members", tuple(members)), ("tol", tol), ("_stacks", stacks)):
            object.__setattr__(self, name, value)
        return self

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

    @cached_property
    def _tree(self) -> "_Tree | None":
        """The members' factor table, tree and bounds, or None if a member is not factored."""
        stacks = self._stacks
        if stacks is None:
            if any(m._stack is None for m in self.members):
                return None
            stacks = np.array([m._stack for m in self.members])
        factors, ids = _factor_table(stacks)
        subfamilies, root = _id_tree(ids)
        return _Tree(factors, ids, subfamilies, root, *_bounds(factors, subfamilies, root))


class _Tree(NamedTuple):
    """An all-factored family: :func:`_factor_table`, :func:`_id_tree` over it
    and the four bounds of :func:`_bounds` on that tree."""

    factors: np.ndarray
    ids: np.ndarray
    subfamilies: list
    root: int
    complete: float
    herm: float
    idem: float
    norm: float

    @property
    def clash(self) -> float:
        """The bound idem (3 + 8 norm) / 2 on max|M_i M_j| over pairs of members
        (the module docstring's lemma)."""
        return self.idem * (3 + 8 * self.norm) / 2


def embed_family(family: BranchingFamily, tol: float = DEFAULT_TOL) -> HPOFamily:
    """Embed every history of a branching family at once.

    Possible only when all histories share the same step times, which for
    branch-dependent timings is not the case; then an
    :class:`EmbeddingError` explains what differs.

    Each member's factors are gathered by row from the family's projector
    stack, whose norms are taken once per node, and the projector bound is
    evaluated for all members at once; a member whose bound fails takes
    the dense check.  The members are views of the gathered stack, which
    the returned family keeps for its tree.
    """
    family.ensure_valid(tol)
    nodes, tree = family._nodes, family._tree
    leaves = tree.leaves
    depths = tree.depth[leaves]
    slots = len(tree.levels) - 1
    if slots == 0:
        raise EmbeddingError("family contains the empty history (bare root)")
    # index[i, s]: row of leaf i's ancestor at depth s + 1; a shorter path
    # is padded in front with the root, which ``up`` makes its own parent.
    up = nodes.parent.copy()
    up[tree.levels[0]] = tree.levels[0]
    index = np.empty((len(leaves), slots), dtype=np.intp)
    index[:, -1] = leaves
    for s in range(slots - 1, 0, -1):
        index[:, s - 1] = up[index[:, s]]
    # Rows are equal only if no path is padded: a padded row repeats the root's time.
    times = nodes.time[up[index]].tolist()
    if times.count(times[0]) < len(times):
        grids = {tuple(g[slots - k:]) for g, k in zip(times, depths.tolist())}
        raise EmbeddingError(
            f"histories do not share one time grid: found {sorted(grids)}")
    _check_space(family.dim, slots)
    grid = _slot_times(slots, times[0], family.dim)
    embedded = HPOFamily._embedded(nodes.projectors[index], grid, tol)
    for i in np.flatnonzero(~_certified(family._norms[:, index], tol)).tolist():
        _require_projector(embedded.members[i].matrix, tol)
    return embedded


def is_hpo_family(members, tol: float | None = None) -> bool:
    """True iff the projectors are pairwise orthogonal and sum to the identity.

    ``members`` may be an :class:`HPOFamily` or a plain sequence of
    :class:`HistoryProjector` values; mismatched slot structure is an
    error rather than False.  ``tol`` defaults to the family's, which for
    a plain sequence is ``DEFAULT_TOL``.  Factored members are decided on
    the tree of their shared leading factors (see the module docstring),
    with the exact factor products or the dense total where a bound
    exceeds ``tol``; a dense total over the byte budget raises
    ``ValueError``.  A family with a member that is not factored takes the
    dense total for completeness, the exact factor products for the pairs
    of factored members and dense products for the other pairs (see
    :func:`_mixed_verdict`).
    """
    if not isinstance(members, HPOFamily):
        members = HPOFamily(tuple(members))
    if tol is None:
        tol = members.tol
    if members._tree is None:
        return _mixed_verdict(members.members, members.dim, tol)
    verdict, _ = _tree_verdict(members, tol)
    if verdict is None:
        _check_dense(members.dim)  # raises: the total is over budget
    return verdict


def _mixed_verdict(members: Sequence[HistoryProjector], dim: int, tol: float) -> bool:
    """HPO verdict on members of which some are not factored.

    Pairs of factored members are decided by :func:`_factors_clash`.  The
    dense total and the pairs with a member that is not factored take
    dense products, in one pass that builds each factored member's matrix
    once; a pair i < j is multiplied as M_i M_j, as the dense check takes it.
    """
    _check_dense(dim)
    stacks = [m._stack for m in members if m._stack is not None]
    if len(stacks) > 1 and _factors_clash(np.array(stacks), tol):
        return False
    dense = [(j, m) for j, m in enumerate(members) if m._stack is None]
    total = np.zeros((dim, dim), dtype=complex)
    for i, m in enumerate(members):
        mat = m.matrix
        total += mat
        if m._stack is not None and any(
                max_abs(mat @ other.matrix if i < j else other.matrix @ mat) > tol
                for j, other in dense):
            return False
    for k, (_, m) in enumerate(dense):
        left = m.matrix
        if any(max_abs(left @ other.matrix) > tol for _, other in dense[k + 1:]):
            return False
    total.flat[::dim + 1] -= 1.0
    return max_abs(total) <= tol


def _tree_verdict(family: HPOFamily, tol: float) -> tuple[bool | None, float]:
    """HPO verdict on an all-factored family, and its completeness bound.

    Orthogonality is certified by the family's bound a (3 + 8N) / 2 on
    max|M_i M_j|, derived from its subset bounds (module docstring), and
    decided by :func:`_factors_clash` where that exceeds ``tol``.  The
    verdict is None when the completeness bound exceeds ``tol`` and the
    dense total that would decide is over the byte budget.
    """
    tree = family._tree
    if tree.clash > tol and _factors_clash(tree.factors[tree.ids], tol):
        return False, tree.complete
    if tree.complete <= tol:
        return True, tree.complete
    if not _fits_dense(family.dim):
        return None, tree.complete
    total = _kron_sum(tree.factors, tree.subfamilies, tree.root, family.dim)
    total.flat[::family.dim + 1] -= 1.0
    return max_abs(total) <= tol, tree.complete


def _factor_table(stacks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct factors of factored members, and which one each member has per slot.

    ``stacks`` holds each member's factors, shape (n, slots, d, d).  Factors
    are told apart by the bytes of ``stacks + 0.0``, in which a -0.0 entry
    reads as 0.0.  Returns the (k, d, d) distinct factors, in order of
    first appearance, and the (n, slots) array of their ids.
    """
    n, slots, d, _ = stacks.shape
    raw = (stacks + 0.0).reshape(n * slots, -1).view(f"V{16 * d * d}").ravel().tolist()
    table = {key: i for i, key in enumerate(dict.fromkeys(raw))}
    ids = np.array(list(map(table.__getitem__, raw)), dtype=np.intp).reshape(n, slots)
    return np.frombuffer(b"".join(table), dtype=complex).reshape(-1, d, d), ids


def _id_tree(ids: np.ndarray) -> tuple[list, int]:
    """The tree of factored members, one entry per distinct subfamily.

    ``ids`` holds each member's factor ids (:func:`_factor_table`), shape
    (n, slots) with n > 0.  Members sharing their factors before slot s
    form a node of the tree at depth s; its children are its members
    grouped by their slot-s factor.  A node's subfamily is its members'
    factors from slot s on.  Returns the distinct subfamilies, children
    before parents, each the number of members with one row of factors
    (at depth ``slots``) or the tuple of its children's (factor, subfamily)
    indices; and the index of the whole family's subfamily.
    """
    memo: dict = {}
    # Each prefix of factor ids at the current depth, and its subfamily.
    rows = list(map(tuple, ids.tolist()))
    level = dict.fromkeys(rows, 0)
    if len(level) == len(rows):  # every row once
        memo[1] = 0
    else:
        level = {row: memo.setdefault(c, len(memo)) for row, c in Counter(rows).items()}
    for s in reversed(range(ids.shape[1])):
        kids: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for prefix, sub in level.items():
            kids.setdefault(prefix[:s], []).append((prefix[s], sub))
        level = {prefix: memo.setdefault(tuple(ch), len(memo)) for prefix, ch in kids.items()}
    return list(memo), level[()]


def _first_cut(subfamilies: list, root: int) -> tuple[list[list[int]], tuple | int]:
    """The factor ids F_s of each slot above the tree's first cut with more than one
    distinct subfamily below it, and its node there, else the member count at the
    leaves.  A count of 1 means the members are exactly the rows of F_0 x ... x
    F_(slots-1), each once, and their sum is (x)_s sum_{f in F_s} P_f.
    """
    slots, sub = [], subfamilies[root]
    while isinstance(sub, tuple) and len({c for _, c in sub}) == 1:
        slots.append([f for f, _ in sub])
        sub = subfamilies[sub[0][1]]
    return slots, sub


def _bounds(factors: np.ndarray, subfamilies: list,
            root: int) -> tuple[float, float, float, float]:
    """Bounds on factored members and on every sum S of some of them, from their tree.

    Bottom up, once per distinct subfamily of :func:`_id_tree` over the
    ``factors`` of :func:`_factor_table`, whose children a carry the
    factors P_a, this computes

    - ``complete``: a bound on the spectral norm of its members' sum less
      the identity, ||sum_a P_a - I||_2 + max_a complete_a * sqrt(G + X),
      with G = ||sum_a P_a^dag P_a||_2 and X = sum_{a != b} ||P_a^dag P_b||_F;
    - ``herm``, ``idem`` and ``norm``: bounds on ||S^dag - S||_2,
      ||S S - S||_2 and ||S||_2 for S the sum of any nonempty subset of
      its members,

          herm = sum_a ||P_a^dag - P_a||_2 N_a + sqrt(G + X) max_a herm_a,
          idem = sum_a ||P_a P_a - P_a||_2 N_a^2 + sqrt(G + X) max_a idem_a
                 + sum_{a != b} ||P_a P_b||_F N_a N_b,
          N = sqrt(G + X) max_a N_a,

      telescoped along the tree from S = sum_a P_a (x) S_a, where
      S^dag - S = sum_a (P_a^dag - P_a) (x) S_a^dag + P_a (x) (S_a^dag - S_a),
      S S - S = sum_a (P_a P_a - P_a) (x) S_a S_a + P_a (x) (S_a S_a - S_a)
      + sum_{a != b} P_a P_b (x) S_a S_b, and the module docstring's
      ||sum_a P_a (x) E_a||_2 <= max_a ||E_a||_2 sqrt(G + X).  A subset
      keeps some children and subsets below them, and its G, X and sums
      over children are at most the whole node's, so one bound serves
      every subset.  A count c at the leaves gives herm 0, idem |c^2 - c|
      and N c, largest at the whole count.

    Returns ``complete``, ``herm``, ``idem`` and ``norm`` for the whole
    tree.  The norms come from one batched pass: each factor's P^dag P over
    P P as one product, the node sums gathered from those, and the ordered
    pairs of distinct siblings by :func:`linalg._pair_products`, node by node.
    """
    k, d = factors.shape[:2]
    nodes = [sub for sub in subfamilies if isinstance(sub, tuple)]
    rows = [f for sub in nodes for f, _ in sub]
    starts = list(accumulate([len(sub) for sub in nodes[:-1]], initial=0))
    left = [f for sub in nodes for f, _ in sub for g, _ in sub if g != f]
    right = [g for sub in nodes for f, _ in sub for g, _ in sub if g != f]

    # P^dag over P for each factor, and times P: P^dag P over P P.
    stacked = np.concatenate([factors.conj().transpose(0, 2, 1), factors], axis=1)
    own = stacked @ factors
    # Per factor P^dag - P and P P - P; per node sum_a P_a - I and sum_a P_a^dag P_a.
    defects = np.concatenate([stacked[:, :d], own[:, d:]], axis=1).reshape(k, 2, d, d)
    sums = np.add.reduceat(np.concatenate([factors, own[:, :d]], axis=1)[rows], starts)
    sums.reshape(len(nodes), -1)[:, :d * d:d + 1] -= 1.0
    spectral = _spectral_bounds(np.concatenate([
        (defects - factors[:, None]).reshape(-1, d, d), sums.reshape(-1, d, d)])).tolist()
    herm_f, idem_f = spectral[:2 * k:2], spectral[1:2 * k:2]
    excess, overlap = spectral[2 * k::2], spectral[2 * k + 1::2]
    hfro, pfro = [], []
    for products in _pair_products(stacked, factors, left, right):
        # ||.||_F of P_f^dag P_g and P_f P_g, as np.linalg.norm takes it.
        fro = np.sqrt(np.add.reduce((products.conj() * products).real
                                    .reshape(-1, 2, d * d), axis=2)).tolist()
        hfro += [h for h, _ in fro]
        pfro += [p for _, p in fro]

    complete, herm, idem, norm = [], [], [], []
    j = p0 = 0
    for sub in subfamilies:
        if not isinstance(sub, tuple):  # member count
            complete.append(abs(sub - 1.0))
            herm.append(0.0)
            idem.append(float(sub * sub - sub))
            norm.append(float(sub))
            continue
        fs, kids = zip(*sub)
        ns = [norm[c] for c in kids]
        p1 = p0 + len(sub) * (len(sub) - 1)
        grow = math.sqrt(overlap[j] + sum(hfro[p0:p1]))
        cross = [(x, y) for a, x in enumerate(ns) for b, y in enumerate(ns) if a != b]
        complete.append(excess[j] + grow * max([complete[c] for c in kids]))
        herm.append(sum([herm_f[f] * n for f, n in zip(fs, ns)])
                    + grow * max([herm[c] for c in kids]))
        idem.append(sum([idem_f[f] * n * n for f, n in zip(fs, ns)])
                    + grow * max([idem[c] for c in kids])
                    + sum([p * x * y for p, (x, y) in zip(pfro[p0:p1], cross)]))
        norm.append(grow * max(ns))
        j, p0 = j + 1, p1
    return complete[root], herm[root], idem[root], norm[root]


def _spectral_bounds(stack: np.ndarray) -> np.ndarray:
    """Upper bounds on the spectral norms of an (n, d, d) stack: sqrt(||A||_1 ||A||_inf)."""
    a = np.abs(stack)
    return np.sqrt(a.sum(axis=1).max(axis=1) * a.sum(axis=2).max(axis=1))


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


def _kron_sum(factors: np.ndarray, subfamilies: list, root: int, dim: int) -> np.ndarray:
    """The dense ``dim`` x ``dim`` sum of factored members' Kronecker products, from their tree.

    ``factors`` and the tree are those of :func:`_factor_table` and
    :func:`_id_tree`; a total over the byte budget is refused before any
    allocation.  A node of the tree sums P (x) R over its children, R the
    sum over the child's remaining factors; children with the same
    subfamily add (sum of their P) (x) R together, so a product family's
    total takes one dense product per level of its tree.  A subfamily's
    R is computed once; one that several nodes need is kept.
    """
    _check_dense(dim)
    uses = Counter(c for sub in subfamilies if isinstance(sub, tuple) for c in {c for _, c in sub})
    kept: dict[int, np.ndarray] = {}
    d = factors.shape[1]

    def total(node: tuple[tuple[int, int], ...], size: int) -> np.ndarray:
        firsts: dict[int, np.ndarray] = {}
        for f, c in node:
            firsts[c] = firsts.get(c, 0) + factors[f]
        e = size // d
        if e == 1:  # children are member counts
            return sum(subfamilies[c] * first for c, first in firsts.items())
        out = np.zeros((size, size), dtype=complex)
        blocks = out.reshape(d, e, d, e)
        for c, first in firsts.items():
            rest = kept.get(c)
            if rest is None:
                rest = total(subfamilies[c], e)
                if uses[c] > 1:
                    kept[c] = rest
            # A slice of R's rows at a time, so that no temporary is much
            # larger than _CHUNK_BYTES.
            step = max(1, _CHUNK_BYTES // (16 * d * d * e))
            for x in range(0, e, step):
                blocks[:, x:x + step] += first[:, None, :, None] * rest[None, x:x + step, None, :]
        return out

    return total(subfamilies[root], dim)


def _selector_indices(selector: Sequence, size: int) -> list[int]:
    sel = list(selector)
    if len(sel) != size:
        raise ValueError(f"selector length {len(sel)} does not match {size} members")
    if sel.count(0) + sel.count(1) < size:
        bad = next(flag for flag in sel if flag not in (0, 1))
        raise ValueError(f"selector entries must be 0 or 1, got {bad!r}")
    return [i for i, flag in enumerate(sel) if flag]


def sum_hpo(family: HPOFamily, selector: Sequence) -> HistoryProjector:
    """Operator sum of the selected members, a projector within the family's ``tol``.

    Orthogonality of the members makes the sum a projector again; the
    all-zeros selector gives the zero projector and the all-ones selector
    the identity on the history space.  For a family of factored members:

    - when the selected ones are exactly the rows of a product of per-slot
      factor sets F_s, the sum is the factored projector
      (x)_s sum_{f in F_s} P_f.  It is certified by the family's bounds
      below where they certify every sum, and otherwise checked as
      :func:`embed` checks its members;
    - any other sum keeps the picked rows of the family's factor table as
      the tree of :func:`_id_tree`, and builds its dense matrix only when
      ``matrix`` is read.  It is certified a projector by the family's
      Hermiticity and idempotence bounds (:func:`_bounds`), which hold for
      every sum of its members and are taken once per family; where one
      exceeds ``tol``, the dense total is built and checked instead, and a
      sum that passes is kept dense.

    A family with a member given dense sums densely.  Every sum that is
    not a projector within ``tol`` raises ``ValueError``, and a history
    space whose dense matrix is over the byte budget is refused either way.
    """
    picked = _selector_indices(selector, len(family))
    _check_dense(family.dim)
    tree, times = family._tree, family.slot_times
    if tree is None or not picked:
        total = np.zeros((family.dim, family.dim), dtype=complex)
        for i in picked:
            total += family.members[i].matrix
    else:
        subfamilies, root = _id_tree(tree.ids[picked])
        slots, cut = _first_cut(subfamilies, root)
        certified = tree.herm <= family.tol and tree.idem <= family.tol
        if cut == 1:
            starts = list(accumulate([len(fs) for fs in slots[:-1]], initial=0))
            stack = np.add.reduceat(tree.factors[[f for fs in slots for f in fs]], starts)
            return HistoryProjector._factored(stack, times, certified or None, family.tol)
        if certified:
            return HistoryProjector._trusted(family.slots, times, family.base_dim,
                                             summed=(tree.factors, subfamilies, root))
        total = _kron_sum(tree.factors, subfamilies, root, family.dim)
    _require_projector(total, family.tol)
    return HistoryProjector._trusted(family.slots, times, family.base_dim, matrix=total)


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


def _splits(y: HistoryProjector, tol: float) -> bool:
    """True iff the Gram matrices of a summed projector's tree show that the
    dense Schmidt recursion of :func:`is_homogeneous` answers False at ``tol``.

    Cuts at whose depth all nodes of the tree are one subfamily are rank
    one by structure.  At the first cut with k > 1 distinct subfamilies
    S_c below it, the sum is A (x) sum_c B_c (x) S_c, with B_c the sum of
    the factors leading to S_c, and the squared singular values of that
    cut are the eigenvalues of L^dag conj(G_S) L, where G_B = L L^dag and
    G_S hold Tr(B_c^dag B_e) and Tr(S_c^dag S_e) (:func:`_cut_grams`).
    Rounding moves them by at most slack = 2^-50 (d^2 slots + p + k)
    tr(G_B) tr(G_S), four units of 2^-53 for each of the d^2 terms of a
    trace at each slot, the p factor pairs traced and the k rows, so
    sigma_1/sigma_0 is resolved only down to about sqrt(slack) / sigma_0,
    1e-7 to 1e-6 on small trees.  The answer is True only when the
    smallest sigma_1^2 and the largest sigma_0^2 within the slack put
    sigma_1/sigma_0 above ``tol`` plus dim * slots units of 2^-50 for the
    dense recursion's own rounding.  False means undecided, as do a tree
    with no such cut, one needing more than eight pairs of subfamilies per
    distinct subfamily, and Gram matrices the eigensolver refuses.
    """
    factors, subfamilies, root = y._summed
    _, sub = _first_cut(subfamilies, root)
    if not isinstance(sub, tuple):
        return False
    below: dict[int, list[int]] = {}
    for f, c in sub:
        below.setdefault(c, []).append(f)
    grams = _cut_grams(factors, subfamilies, below)
    if grams is None:
        return False
    gram_b, gram_s, traced = grams
    try:
        # L = V sqrt(lambda) from G_B's eigenpairs takes a singular G_B, as Cholesky may not.
        lam, vec = np.linalg.eigh(gram_b)
        low = vec * np.sqrt(np.maximum(lam, 0.0))
        sigma2 = np.linalg.eigvalsh(low.conj().T @ gram_s.conj() @ low)
    except np.linalg.LinAlgError:
        return False
    slack = (2.0 ** -50 * (y.base_dim ** 2 * y.slots + traced + len(below))
             * sum(gram_b.diagonal().real.tolist()) * sum(gram_s.diagonal().real.tolist()))
    cut = tol + 2.0 ** -50 * y.dim * y.slots
    return bool(sigma2[-2] - slack > cut * cut * (sigma2[-1] + slack))


def _cut_grams(factors: np.ndarray, subfamilies: list,
               below: dict[int, list[int]]) -> tuple[np.ndarray, np.ndarray, int] | None:
    """The Gram matrices Tr(B_c^dag B_e) and Tr(S_c^dag S_e) of one cut.

    ``below`` maps each subfamily c below the cut to the factors f whose
    sum B_c leads to it.  With S_c = sum_{(f, a) in c} P_f (x) S_a, each
    entry of the second is sum_{(f, a) in c, (g, b) in e} Tr(P_f^dag P_g)
    Tr(S_a^dag S_b), taken once per ordered pair of distinct subfamilies
    at each depth, and the product c e of member counts at the leaves.
    Each trace Tr(P_f^dag P_g) = sum_ij conj(P_f)_ij (P_g)_ij is read from one
    product of the leading factors' entries.  Returns both matrices and the
    number of pairs of leading factors at one depth, or None when that
    would take more than eight pairs of subfamilies per distinct subfamily
    of the tree.
    """
    # The distinct subfamilies at each depth below the cut, whose pairs are
    # every pair the recursion takes there, and the factors leading to them.
    levels, leading = [list(below)], [[f for fs in below.values() for f in fs]]
    count = 0
    while isinstance(subfamilies[levels[-1][0]], tuple):
        count += len(levels[-1]) ** 2
        if count > 8 * len(subfamilies):
            return None
        children = [fc for c in levels[-1] for fc in subfamilies[c]]
        leading.append(list(dict.fromkeys(f for f, _ in children)))
        levels.append(list(dict.fromkeys(c for _, c in children)))
    # Row and column a of the traces belong to the a-th distinct leading factor.
    at = {f: a for a, f in enumerate(dict.fromkeys(f for fs in leading for f in fs))}
    entries = factors[list(at)].reshape(len(at), -1)
    traces = (entries.conj() @ entries.T).tolist()
    kids = {c: ([at[f] for f, _ in subfamilies[c]], [a for _, a in subfamilies[c]])
            for level in levels[:-1] for c in level}
    value = {(c, e): float(subfamilies[c] * subfamilies[e])
             for c, e in product(levels[-1], levels[-1])}
    for level in reversed(levels[:-1]):
        for c, e in product(level, level):
            value[c, e] = sum(map(mul, (traces[a][b] for a, b in product(kids[c][0], kids[e][0])),
                                  map(value.__getitem__, product(kids[c][1], kids[e][1]))))
    tops = [[at[f] for f in below[c]] for c in levels[0]]
    gram_b = np.array([[sum(traces[a][b] for a, b in product(fs, gs)) for gs in tops]
                       for fs in tops])
    gram_s = np.array([[value[c, e] for e in levels[0]] for c in levels[0]], dtype=complex)
    return gram_b, gram_s, len({fg for fs in leading for fg in product(fs, fs)})


def is_homogeneous(y: HistoryProjector, tol: float = RANK1_CUTOFF) -> bool:
    """True iff ``y`` factors slot by slot into a product of projectors.

    Decided by a sequence of operator-Schmidt rank tests: realign the
    matrix across the bipartition (first slot | remaining slots) and ask
    for a single dominant singular value, with ``tol`` the admissible
    ratio of the second to the first; then recurse on the remainder.
    Sums of distinct histories typically fail, but a sum can collapse
    back to a product (for instance when two summands differ in one slot
    by projectors that complete each other).  A factored projector is a
    product by construction, and the answer is True without a test.  A
    :func:`sum_hpo` kept as a tree is False without a dense matrix where
    the Gram matrices of its factors put sigma_1/sigma_0 of its first cut
    that is not rank one by structure clearly above ``tol`` (see
    :func:`_splits` for the rounding margin); otherwise, and never True
    from the Gram matrices, the dense recursion decides.
    """
    if y._stack is not None:
        return True
    if y._summed is not None and _splits(y, tol):
        return False
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
