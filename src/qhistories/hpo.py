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
factor sets F_s is factored too, as (x)_s sum_{f in F_s} P_f; other
sums, and members built from a dense matrix, have ``factors = None``.
For factored members

- the projector check at construction bounds the max-entry hermiticity
  and idempotence defects of the Kronecker product from per-slot norms
  (a telescoped sum, exact in its use of max|A (x) B| = max|A| max|B|);
  only when that bound exceeds the tolerance is the dense matrix built
  and checked, so the verdict is always the dense check's.
  :func:`embed_family` takes the norms once per tree node and the bound
  for all members at once;
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

Orthogonality uses max|(P (x) X)(P (x) Y)| = max|P P| max|X Y| inside a
child and max|X Y| <= ||X||_2 ||Y||_2 across siblings, where
||(x)_s A_s||_2 = prod_s ||A_s||_2; a bound above tol hands the decision
to the exact slot-by-slot product of :func:`_factors_clash`, from
(x)P (x)Q = (x)(PQ).  An :class:`HPOFamily` of factored members finds
its distinct factors once, on first use, and builds the tree over their
ids; a :func:`sum_hpo` builds the picked members' tree from the same
ids.  Dense totals (non-product sums and the fallback) are summed on
the tree, each distinct subfamily once, with siblings over equal
subfamilies merged into (sum_a P_a) (x) R.

Every dense d^n x d^n allocation is checked first against a budget of
256 MiB (one 4096 x 4096 complex matrix); a larger one raises
``ValueError`` naming its byte count.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .chain import weight
from .dynamics import TrivialEvolution, _finite_times
from .errors import EmbeddingError
from .linalg import (
    _CHUNK_BYTES,
    DEFAULT_TOL,
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


def _check_dense(dim: int) -> None:
    """Refuse a dense ``dim`` x ``dim`` complex matrix over the byte budget."""
    nbytes = 16 * dim * dim
    if nbytes > _MAX_DENSE_BYTES:
        raise ValueError(
            f"a dense {dim} x {dim} history-space matrix needs {nbytes} bytes, "
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
    the idempotence defect with x = max|P P| and y = max|P|.  False only
    means a bound exceeds ``tol``; the dense check decides.
    """
    return (_telescoped(norms[:2], norms[2:], norms[0]) <= tol).all(axis=0)


def _factors_certified(stack: np.ndarray, tol: float) -> bool:
    """True if the Kronecker product of ``stack`` is surely a projector within ``tol``."""
    return bool(_certified(_projector_norms(stack)[:, None], tol)[0])


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
    def _factored(cls, stack: np.ndarray, times: tuple[float, ...],
                  certified: bool) -> "HistoryProjector":
        """The projector whose factors are the (slots, d, d) ``stack``, which it takes over.

        ``times`` must have passed :func:`_slot_times`.  Unless the factors'
        bound is ``certified``, the dense matrix must pass the projector check.
        """
        self = cls.__new__(cls)
        self._init(None, stack, stack.shape[0], times, stack.shape[1])
        if not (certified or is_projector(self.matrix, DEFAULT_TOL)):
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
    return HistoryProjector._factored(stack, times, _factors_certified(stack, DEFAULT_TOL))


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

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray] | None:
        """:func:`_factor_table` of the members' factors, or None if a member is dense."""
        if any(m._stack is None for m in self.members):
            return None
        return _factor_table(np.array([m._stack for m in self.members]))


def embed_family(family: BranchingFamily, tol: float = DEFAULT_TOL) -> HPOFamily:
    """Embed every history of a branching family at once.

    Possible only when all histories share the same step times, which for
    branch-dependent timings is not the case; then an
    :class:`EmbeddingError` explains what differs.

    Each member's factors are gathered by row from the family's projector
    stack, whose norms are taken once per node, and the projector bound is
    evaluated for all members at once; a member whose bound fails takes
    the dense check.
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
    grids = {tuple(g[slots - k:]) for g, k in
             zip(nodes.time[up[index]].tolist(), depths.tolist())}
    if len(grids) > 1:
        raise EmbeddingError(
            f"histories do not share one time grid: found {sorted(grids)}")
    _check_space(family.dim, slots)
    certified = _certified(family._norms[:, index], DEFAULT_TOL).tolist()
    stacks = nodes.projectors[index]
    grid = _slot_times(slots, grids.pop(), family.dim)
    return HPOFamily(tuple(HistoryProjector._factored(st, grid, ok)
                           for st, ok in zip(stacks, certified)))


def is_hpo_family(members, tol: float = DEFAULT_TOL) -> bool:
    """True iff the projectors are pairwise orthogonal and sum to the identity.

    ``members`` may be an :class:`HPOFamily` or a plain sequence of
    :class:`HistoryProjector` values; mismatched slot structure is an
    error rather than False.  Factored members are decided on the tree of
    their shared leading factors (see the module docstring), with the
    exact factor products or the dense total where a bound exceeds
    ``tol``; a dense total over the byte budget raises ``ValueError``.  A
    family with a dense member takes the dense total for completeness and
    the dense products pair by pair for orthogonality.
    """
    if not isinstance(members, HPOFamily):
        members = HPOFamily(tuple(members))
    ms = members.members
    if any(m._stack is None for m in ms):
        total = _dense_sum(ms, members.dim)
        total.flat[::members.dim + 1] -= 1.0
        if not max_abs(total) <= tol:
            return False
        for i, m in enumerate(ms[:-1]):
            left = m.matrix
            if any(max_abs(left @ other.matrix) > tol for other in ms[i + 1:]):
                return False
        return True
    verdict, _ = _tree_verdict(members, tol)
    if verdict is None:
        _check_dense(members.dim)  # raises: the total is over budget
    return verdict


def _tree_verdict(family: HPOFamily, tol: float) -> tuple[bool | None, float]:
    """HPO verdict on an all-factored family, and its completeness bound.

    The verdict is None when the bound exceeds ``tol`` and the dense total
    that would decide is over the byte budget.
    """
    factors, ids = family._table
    tree = _id_tree(ids)
    clash_bound, bound = _bounds(factors, *tree)
    if clash_bound > tol and _factors_clash(factors[ids], tol):
        return False, bound
    if bound <= tol:
        return True, bound
    if 16 * family.dim ** 2 > _MAX_DENSE_BYTES:
        return None, bound
    total = np.zeros((family.dim, family.dim), dtype=complex)
    _add_kron_sum(total, factors, *tree)
    total.flat[::family.dim + 1] -= 1.0
    return max_abs(total) <= tol, bound


def _factor_table(stacks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct factors of factored members, and which one each member has per slot.

    ``stacks`` holds each member's factors, shape (n, slots, d, d).  Factors
    are told apart by the bytes of ``stacks + 0.0``, in which a -0.0 entry
    reads as 0.0.  Returns the (k, d, d) distinct factors, in order of
    first appearance, and the (n, slots) array of their ids.
    """
    n, slots, d, _ = stacks.shape
    raw, size = (stacks + 0.0).tobytes(), 16 * d * d
    table: dict[bytes, int] = {}
    ids = [table.setdefault(raw[k:k + size], len(table)) for k in range(0, len(raw), size)]
    factors = np.frombuffer(b"".join(table), dtype=complex).reshape(-1, d, d)
    return factors, np.array(ids, dtype=np.intp).reshape(n, slots)


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
    level = {row: memo.setdefault(c, len(memo))
             for row, c in Counter(map(tuple, ids.tolist())).items()}
    for s in reversed(range(ids.shape[1])):
        kids: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for prefix, sub in level.items():
            kids.setdefault(prefix[:s], []).append((prefix[s], sub))
        level = {prefix: memo.setdefault(tuple(ch), len(memo)) for prefix, ch in kids.items()}
    return list(memo), level[()]


def _product_slots(subfamilies: list, root: int) -> list[list[int]] | None:
    """Per slot, the factor ids F_s whose product is the tree's members, or None.

    The members are exactly the rows of F_0 x ... x F_(slots-1), each once,
    when every node's children share one subfamily and the leaf counts one
    member; their sum is then (x)_s sum_{f in F_s} P_f.
    """
    slots, sub = [], subfamilies[root]
    while isinstance(sub, tuple):
        if len({c for _, c in sub}) > 1:
            return None
        slots.append([f for f, _ in sub])
        sub = subfamilies[sub[0][1]]
    return slots if sub == 1 else None


def _bounds(factors: np.ndarray, subfamilies: list, root: int) -> tuple[float, float]:
    """Orthogonality and completeness bounds of factored members, from their tree.

    Bottom up, once per distinct subfamily of :func:`_id_tree` over the
    ``factors`` of :func:`_factor_table`, whose children a carry the
    factors P_a, this computes

    - ``clash``: a bound on max|M_i M_j| over its pairs of members,
      max(max_a max|P_a P_a| clash_a, max_{a != b} max|P_a P_b| R_a R_b),
      where R_a bounds the spectral norm of child a's members;
    - ``complete``: a bound on the spectral norm of its members' sum less
      the identity, ||sum_a P_a - I||_2 + max_a complete_a * sqrt(G + X),
      with G = ||sum_a P_a^dag P_a||_2 and X = sum_{a != b} ||P_a^dag P_b||_F.

    Returns both bounds for the whole family.
    """
    d = factors.shape[1]

    # The norms the bounds take: per factor, per pair of sibling factors
    # and per distinct node.
    nodes = [[f for f, _ in sub] for sub in subfamilies if isinstance(sub, tuple)]
    rows = [f for fs in nodes for f in fs]
    starts = np.cumsum([0] + [len(fs) for fs in nodes[:-1]])
    gram = factors.conj().transpose(0, 2, 1) @ factors
    spec = _spectral_bounds(np.concatenate([
        factors,
        np.add.reduceat(factors[rows], starts, axis=0) - np.eye(d),
        np.add.reduceat(gram[rows], starts, axis=0)]))
    spec, excess, overlap = np.split(spec, [len(factors), len(factors) + len(nodes)])
    pmax, hfro = _pair_norms(factors, sorted({(f, g) for fs in nodes for f in fs for g in fs}))

    clash, complete, spread = [], [], []
    j = 0
    for sub in subfamilies:
        if not isinstance(sub, tuple):  # member count
            clash.append(1.0 if sub > 1 else 0.0)
            complete.append(abs(sub - 1.0))
            spread.append(1.0)
            continue
        cross = [(pmax[f, g], spread[a], spread[b], hfro[f, g])
                 for f, a in sub for g, b in sub if f != g]
        clash.append(max([pmax[f, f] * clash[c] for f, c in sub]
                         + [p * ra * rb for p, ra, rb, _ in cross]))
        x = sum(h for *_, h in cross)
        complete.append(float(excess[j])
                        + max(complete[c] for _, c in sub) * math.sqrt(overlap[j] + x))
        spread.append(max(spec[f] * spread[c] for f, c in sub))
        j += 1
    return clash[root], complete[root]


def _spectral_bounds(stack: np.ndarray) -> np.ndarray:
    """Upper bounds on the spectral norms of an (n, d, d) stack: sqrt(||A||_1 ||A||_inf)."""
    a = np.abs(stack)
    return np.sqrt(a.sum(axis=1).max(axis=1) * a.sum(axis=2).max(axis=1))


def _pair_norms(factors: np.ndarray, pairs: list[tuple[int, int]]) -> tuple[dict, dict]:
    """max|P_f P_g| and ||P_f^dag P_g||_F, by (f, g), for the given pairs of factors."""
    d = factors.shape[1]
    chunk = max(1, _CHUNK_BYTES // (32 * d * d))
    pmax, hfro = {}, {}
    for k0 in range(0, len(pairs), chunk):
        part = pairs[k0:k0 + chunk]
        f, g = np.array(part).T
        left, right = factors[f], factors[g]
        left = np.concatenate([left, left.conj().transpose(0, 2, 1)])
        products = left @ np.concatenate([right, right])
        pmax.update(zip(part, np.abs(products[:len(part)]).max(axis=(1, 2)).tolist()))
        hfro.update(zip(part, np.linalg.norm(products[len(part):], axis=(1, 2)).tolist()))
    return pmax, hfro


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
        factors, ids = _factor_table(np.stack(stacks))
        _add_kron_sum(total, factors, *_id_tree(ids))
    for m in members:
        if m._stack is None:
            total += m._matrix
    return total


def _add_kron_sum(out: np.ndarray, factors: np.ndarray, subfamilies: list, root: int) -> None:
    """Add the Kronecker products of factored members to ``out``, from their tree.

    ``factors`` and the tree are those of :func:`_factor_table` and
    :func:`_id_tree`.  A node of the tree adds P (x) R for
    each child, R the sum over the child's remaining factors; children
    with the same subfamily add (sum of their P) (x) R together, so a
    product family's total takes one dense product per level of its tree.
    A subfamily's R is computed once; one that several nodes need is kept.
    """
    uses = Counter(c for sub in subfamilies if isinstance(sub, tuple) for c in {c for _, c in sub})
    kept: dict[int, np.ndarray] = {}
    d = factors.shape[1]

    def add(out: np.ndarray, node: tuple[tuple[int, int], ...]) -> None:
        firsts: dict[int, np.ndarray] = {}
        for f, c in node:
            firsts[c] = firsts.get(c, 0) + factors[f]
        e = len(out) // d
        if e == 1:  # children are member counts
            out += sum(subfamilies[c] * first for c, first in firsts.items())
            return
        blocks = out.reshape(d, e, d, e)
        for c, first in firsts.items():
            rest = kept.get(c)
            if rest is None:
                rest = np.zeros((e, e), dtype=complex)
                add(rest, subfamilies[c])
                if uses[c] > 1:
                    kept[c] = rest
            # A slice of R's rows at a time, so that no temporary is much
            # larger than _CHUNK_BYTES.
            step = max(1, _CHUNK_BYTES // (16 * d * d * e))
            for x in range(0, e, step):
                blocks[:, x:x + step] += first[:, None, :, None] * rest[None, x:x + step, None, :]

    add(out, subfamilies[root])


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
    the identity on the history space.  When the family's members are
    factored and the selected ones are exactly the rows of a product of
    per-slot factor sets F_s, the sum is the factored projector
    (x)_s sum_{f in F_s} P_f; any other sum is dense.  A history space
    whose dense matrix is over the byte budget is refused either way.
    """
    picked = _selector_indices(selector, len(family))
    _check_dense(family.dim)
    table = family._table
    if table is None or not picked:
        total = _dense_sum([family.members[i] for i in picked], family.dim)
    else:
        factors, ids = table
        tree = _id_tree(ids[picked])
        slots = _product_slots(*tree)
        if slots is not None:
            stack = np.stack([factors[fs].sum(axis=0) for fs in slots])
            return HistoryProjector._factored(stack, family.slot_times,
                                              _factors_certified(stack, DEFAULT_TOL))
        total = np.zeros((family.dim, family.dim), dtype=complex)
        _add_kron_sum(total, factors, *tree)
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
