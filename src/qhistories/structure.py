"""Branching families: trees of moments carrying projective decompositions.

A family is a finite tree.  Each node (a :class:`Moment`) has a time, and
every non-root node carries a projector describing the system *at its
parent's time*; the children of any node carry a decomposition of the
identity.  A root-to-leaf path therefore reads off a history: the leaf's
own time is never paired with a projector and is pure metadata.

Families are persistent values: :meth:`BranchingFamily.extend` returns a
new family and never mutates the receiver.  Families built through the
constructors in this module are valid by construction; families assembled
by hand or read from a document must pass :meth:`BranchingFamily.validate`
before any chain computation will accept them.

A family holds its nodes in one store, built once at construction and in
insertion order: the ids, a map from id to row, each node's parent row,
the times as floats and one read-only stack of the node projectors.  The
depth-first structure of the tree (depths, levels, child counts, leaves)
is a set of index arrays into those rows, built on first use, and so is
the stack of a valid family's leaf chain operators.
Validation, all histories or one leaf's, the product-shape check, the chain
operators, the history-space embedding and the document writer all read
the store; :class:`Moment` objects are built only when a caller asks for one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .dynamics import EvolutionProvider, PiecewiseUnitary, TrivialEvolution, _finite_times
from .errors import InvalidFamilyError
from .linalg import (
    DEFAULT_TOL,
    _projector_norms,
    as_operator,
    decomposition_defects,
    is_density_matrix,
    maximally_mixed,
    require_decomposition,
    require_density_matrix,
)

__all__ = [
    "ROOT_ID",
    "Moment",
    "HistorySequence",
    "ValidationIssue",
    "ValidationReport",
    "BranchingFamily",
    "new_family",
    "from_product",
]

# Node id handed to the root by the constructors in this module.
ROOT_ID = 0


@dataclass(frozen=True, eq=False)
class Moment:
    """One node of a branching family.

    ``projector`` is None exactly for the root; for any other node it
    describes the system at the parent's time.
    """

    id: int
    parent: int | None
    time: float
    projector: np.ndarray | None

    def __repr__(self) -> str:
        head = f"Moment(id={self.id}, parent={self.parent}, time={self.time}"
        if self.projector is None:
            return head + ")"
        return head + f", projector {self._projector_kind()})"

    def _projector_kind(self) -> str:
        """The projector's shape, or its type when it is not an array."""
        p = self.projector
        return f"shape {p.shape}" if isinstance(p, np.ndarray) else f"of type {type(p).__name__}"

    def _carries(self, shape: tuple[int, int]) -> bool:
        """True iff the node carries a projector array of ``shape``."""
        return isinstance(self.projector, np.ndarray) and self.projector.shape == shape


@dataclass(frozen=True, eq=False)
class HistorySequence:
    """A time-ordered chain of projectors, one per step.

    ``steps`` is a tuple of ``(time, projector)`` pairs with strictly
    increasing times and square matrices of one shared dimension.  The
    empty sequence is allowed and represents the trivial history.
    """

    steps: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        normalized = []
        for k, step in enumerate(self.steps):
            try:
                t, p = step
            except (TypeError, ValueError):
                raise ValueError(f"step {k}: expected a (time, projector) pair")
            normalized.append((_finite_times([t], "step time")[0], as_operator(p)))
        times = [t for t, _ in normalized]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError(f"step times must be strictly increasing, got {times}")
        dims = {p.shape[0] for _, p in normalized}
        if len(dims) > 1:
            raise ValueError(f"projectors have mixed dimensions {sorted(dims)}")
        object.__setattr__(self, "steps", tuple(normalized))

    @classmethod
    def _trusted(cls, steps: tuple[tuple[float, np.ndarray], ...]) -> "HistorySequence":
        """The sequence of ``steps`` as given: float times, checked (d, d) complex arrays."""
        self = cls.__new__(cls)
        object.__setattr__(self, "steps", steps)
        return self

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.steps)

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        return tuple(p for _, p in self.steps)

    @property
    def dim(self) -> int | None:
        """Hilbert-space dimension, or None for the empty sequence."""
        return self.steps[0][1].shape[0] if self.steps else None

    def __len__(self) -> int:
        return len(self.steps)

    def __repr__(self) -> str:
        return f"HistorySequence(len={len(self.steps)}, times={list(self.times)})"


@dataclass(frozen=True)
class ValidationIssue:
    """One violated invariant, naming the offending nodes."""

    kind: str
    nodes: tuple[int, ...]
    message: str

    def __str__(self) -> str:
        where = f" at nodes {list(self.nodes)}" if self.nodes else ""
        return f"{self.kind}{where}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        if self.ok:
            return "OK"
        return "\n".join(str(issue) for issue in self.issues)


class _Nodes(NamedTuple):
    """A family's nodes as arrays, one row per node in insertion order.

    ``parent`` holds parent rows: -1 for a root, -2 for a parent id that
    ``missing`` keeps, as it is not in the family.  ``projectors`` is zero
    where a node carries no (d, d) array; ``misfits`` keeps the hand-built
    moments whose projector it does not stand for: a root's, or a child's
    that is None or not a (d, d) array.
    """

    ids: tuple
    row: dict
    parent: np.ndarray
    time: np.ndarray
    projectors: np.ndarray
    missing: dict
    misfits: dict

    @classmethod
    def of(cls, ids: tuple, parents: Sequence, time: np.ndarray, projectors: np.ndarray,
           misfits: dict | None = None) -> "_Nodes":
        """The nodes given by id, parent id (None for a root), float time and
        projector row; raises ValueError naming the first repeated id."""
        row: dict = {}
        for r, node_id in enumerate(ids):
            if row.setdefault(node_id, r) != r:
                raise ValueError(f"duplicate node id {node_id}")
        parent = np.array([-1 if p is None else row.get(p, -2) for p in parents], dtype=np.intp)
        missing = {r: parents[r] for r in np.flatnonzero(parent == -2).tolist()}
        return cls(ids, row, parent, time, projectors, missing, misfits or {})

    def parent_id(self, r: int, p: int):
        """The parent id of row ``r``, whose parent row is ``p``; None for a root."""
        return self.ids[p] if p >= 0 else self.missing.get(r)


class _Tree(NamedTuple):
    """Index arrays into a family's rows: ``depth`` (-1 where a walk from a
    single root does not reach), ``levels[k]`` (the rows of depth k, depth
    first), ``children`` (counts), ``kids`` (the rows with a parent in the
    family, grouped by parent row) and ``leaves`` (depth first)."""

    depth: np.ndarray
    levels: list[np.ndarray]
    children: np.ndarray
    kids: np.ndarray
    leaves: np.ndarray


class BranchingFamily:
    """An immutable branching family over a ``dim``-dimensional space.

    Parameters
    ----------
    dim : int
        Hilbert-space dimension.
    moments : iterable of Moment
        Tree nodes in insertion order.  Child order within one parent is
        the order of appearance here, and it fixes the deterministic
        depth-first leaf ordering used by weight tables.  Ids must be
        distinct and times finite.
    initial_state : matrix
        Density matrix the weights are taken against.
    evolution : EvolutionProvider
        Dynamics connecting the moment times.
    """

    def __init__(self, dim: int, moments: Iterable[Moment], initial_state,
                 evolution: EvolutionProvider):
        self.dim = int(dim)
        moments = tuple(moments)
        self.initial_state = as_operator(initial_state)
        if not isinstance(evolution, EvolutionProvider):
            raise ValueError("evolution must be an EvolutionProvider")
        self.evolution = evolution
        shape = (self.dim, self.dim)
        stack = np.array([m.projector if m._carries(shape) else np.zeros(shape) for m in moments],
                         dtype=complex).reshape(-1, *shape)
        stack.flags.writeable = False
        times = np.array(_finite_times([m.time for m in moments], "node time"))
        self._nodes = _Nodes.of(
            tuple(m.id for m in moments), [m.parent for m in moments], times, stack,
            {r: m for r, m in enumerate(moments)
             if (m.projector is not None if m.parent is None else not m._carries(shape))})
        # The tolerance of the latest passing validation, if any.
        self._valid_tol: float | None = None

    @classmethod
    def _trusted(cls, dim: int, nodes: _Nodes, initial_state: np.ndarray,
                 evolution: EvolutionProvider) -> "BranchingFamily":
        """The family of ``nodes`` as given, with finite times, a (dim, dim)
        complex state and a provider."""
        self = cls.__new__(cls)
        nodes.projectors.flags.writeable = False
        self.dim, self._nodes = dim, nodes
        self.initial_state, self.evolution = initial_state, evolution
        self._valid_tol = None
        return self

    # -- queries ---------------------------------------------------------

    @property
    def moments(self) -> tuple[Moment, ...]:
        """Every node in insertion order, as :class:`Moment` views built on each access."""
        return self._views(range(len(self)))

    def _views(self, rows) -> tuple[Moment, ...]:
        """:class:`Moment` views of ``rows``; their projectors are rows of the stack."""
        nodes, misfits = self._nodes, self._nodes.misfits
        rows = np.asarray(rows, dtype=np.intp)
        views = []
        for r, p, t in zip(rows.tolist(), nodes.parent[rows].tolist(), nodes.time[rows].tolist()):
            projector = (misfits[r].projector if r in misfits
                         else None if p == -1 else nodes.projectors[r])
            views.append(Moment(nodes.ids[r], nodes.parent_id(r, p), t, projector))
        return tuple(views)

    def _row(self, node_id: int) -> int:
        try:
            return self._nodes.row[node_id]
        except KeyError:
            raise ValueError(f"no node with id {node_id}") from None

    def moment(self, node_id: int) -> Moment:
        return self._views([self._row(node_id)])[0]

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes.row

    def root(self) -> Moment:
        roots = np.flatnonzero(self._nodes.parent == -1)
        if len(roots) != 1:
            raise ValueError(f"family has {len(roots)} roots, expected exactly 1")
        return self._views(roots)[0]

    def children_of(self, node_id: int) -> tuple[Moment, ...]:
        return self._views(np.flatnonzero(self._nodes.parent == self._row(node_id)))

    def is_leaf(self, node_id: int) -> bool:
        return not (self._nodes.parent == self._row(node_id)).any()

    @cached_property
    def _tree(self) -> _Tree:
        """The family's :class:`_Tree`, built on first use."""
        parent = self._nodes.parent
        kids = np.flatnonzero(parent >= 0)
        kids = kids[np.argsort(parent[kids], kind="stable")]
        children = np.bincount(parent[kids], minlength=len(parent))
        # Row r's children are below[ends[r] - count[r]:ends[r]].
        below, count, ends = kids.tolist(), children.tolist(), np.cumsum(children).tolist()
        up = parent.tolist()
        depth = [-1] * (len(up) + 1)  # depth[-1], past the last row, stands for a root's parent
        roots = np.flatnonzero(parent == -1).tolist()
        order, stack = [], roots if len(roots) == 1 else []
        while stack:
            r = stack.pop()
            depth[r] = depth[up[r]] + 1
            order.append(r)
            stack += below[ends[r] - count[r]:ends[r]][::-1]
        depth, order = np.array(depth[:-1], dtype=np.intp), np.array(order, dtype=np.intp)
        by_depth = order[np.argsort(depth[order], kind="stable")]
        levels = np.split(by_depth, np.cumsum(np.bincount(depth[order]))[:-1])
        return _Tree(depth, levels, children, kids, order[children[order] == 0])

    @cached_property
    def _chains(self) -> np.ndarray:
        """The leaves' chain operators (``chain._leaf_chains``) as one
        read-only (n, d, d) stack in leaf order, for a valid family only.

        Computed on first use and kept, as the family never changes.  There
        are at most as many leaves as nodes, so the stack at most doubles
        what the family holds in its projector stack.
        """
        from .chain import _leaf_chains  # chain imports this module
        chains = _leaf_chains(self)
        chains.flags.writeable = False
        return chains

    @cached_property
    def _norms(self) -> np.ndarray:
        """:func:`linalg._projector_norms` of the projector stack, one column per row."""
        return _projector_norms(self._nodes.projectors)

    def leaves(self) -> tuple[Moment, ...]:
        """Leaves in depth-first order; this order indexes weight tables."""
        return self._views(self._tree.leaves)

    def __len__(self) -> int:
        return len(self._nodes.ids)

    def __repr__(self) -> str:
        return (f"BranchingFamily(dim={self.dim}, nodes={len(self)}, "
                f"evolution={self.evolution!r})")

    # -- validation ------------------------------------------------------

    def validate(self, tol: float = DEFAULT_TOL) -> ValidationReport:
        """Check every family invariant and report all violations found.

        Checks, in order: tree shape (single root, known parents, no
        unreachable nodes), projector placement, shape and size (a zero
        projector is an issue), strict time growth along edges, the
        decomposition property of every sibling group (one stacked check
        for all), the initial state, and agreement between the family and
        its evolution provider.  A passing run marks the family valid at
        ``tol``: the zero check tightens as ``tol`` grows, the others loosen,
        so the mark says nothing about any other tolerance.
        """
        nodes, tree = self._nodes, self._tree
        ids, parent, times, misfits = nodes.ids, nodes.parent, nodes.time.tolist(), nodes.misfits
        issues: list[ValidationIssue] = []

        roots = np.flatnonzero(parent == -1).tolist()
        if len(roots) != 1:
            issues.append(ValidationIssue(
                "tree", tuple(ids[r] for r in roots),
                f"expected exactly one root, found {len(roots)}"))
        for r, p in nodes.missing.items():
            issues.append(ValidationIssue("tree", (ids[r],), f"parent {p} does not exist"))
        unreachable = np.flatnonzero(tree.depth < 0).tolist()
        if len(roots) == 1 and unreachable:
            issues.append(ValidationIssue(
                "tree", tuple(ids[r] for r in unreachable),
                "nodes are not reachable from the root"))

        size, _, herm, idem = norms = self._norms
        above = parent >= 0
        flagged = (parent != -1) & ~((herm <= tol) & (idem <= tol) & ~(size <= tol))
        flagged[above] |= ~(nodes.time[above] > nodes.time[parent[above]])
        for r in sorted(set(np.flatnonzero(flagged).tolist()).union(misfits)):
            p = int(parent[r])
            if p == -1:
                issues.append(ValidationIssue(
                    "projector", (ids[r],), "root must not carry a projector"))
                continue
            if r in misfits and misfits[r].projector is None:
                issues.append(ValidationIssue(
                    "projector", (ids[r],), "non-root node carries no projector"))
            elif r in misfits:
                issues.append(ValidationIssue(
                    "dimension", (ids[r],),
                    f"projector {misfits[r]._projector_kind()} does not match dim {self.dim}"))
            elif not (herm[r] <= tol and idem[r] <= tol):
                issues.append(ValidationIssue(
                    "projector", (ids[r],), "matrix is not a projector within tol"))
            elif size[r] <= tol:
                issues.append(ValidationIssue(
                    "zero-projector", (ids[r],), "projector is the zero matrix"))
            if p >= 0 and not (times[r] > times[p]):
                issues.append(ValidationIssue(
                    "time-order", (ids[p], ids[r]),
                    f"child time {times[r]} is not after parent time {times[p]}"))

        # Sibling groups of placed projectors only, in parent order.
        heads = np.flatnonzero(tree.children)
        group = np.repeat(np.arange(len(heads)), tree.children[heads])  # of each row of kids
        misplaced = np.isin(tree.kids, list(misfits))
        whole = np.bincount(group[misplaced], minlength=len(heads)) == 0
        grouped, heads = tree.kids[whole[group]], heads[whole]
        bounds = np.concatenate(([0], np.cumsum(tree.children[heads])))
        clashes, complete = decomposition_defects(nodes.projectors[grouped], norms[:, grouped],
                                                  bounds, tol)
        cut = np.searchsorted(clashes[:, 0], bounds)  # group g: clashes[cut[g]:cut[g + 1]]
        for g in np.flatnonzero(~complete | (np.diff(cut) > 0)).tolist():
            for i, j in clashes[cut[g]:cut[g + 1]].tolist():
                issues.append(ValidationIssue(
                    "orthogonality", (ids[grouped[i]], ids[grouped[j]]),
                    "sibling projectors are not orthogonal"))
            if not complete[g]:
                members = grouped[bounds[g]:bounds[g + 1]].tolist()
                issues.append(ValidationIssue(
                    "completeness", (ids[heads[g]],) + tuple(ids[c] for c in members),
                    "children projectors do not sum to the identity"))

        state = self.initial_state
        if state.shape != (self.dim, self.dim):
            issues.append(ValidationIssue(
                "initial-state", (),
                f"state shape {state.shape} does not match dim {self.dim}"))
        elif not is_density_matrix(state, tol):
            issues.append(ValidationIssue(
                "initial-state", (), "initial state is not a density matrix"))

        if self.evolution.dim != self.dim:
            issues.append(ValidationIssue(
                "dynamics", (),
                f"evolution dimension {self.evolution.dim} does not match "
                f"family dimension {self.dim}"))
        branching = np.flatnonzero(tree.children)
        uncovered = self._uncovered(nodes.time[branching].tolist())
        for r in branching[np.isin(nodes.time[branching], uncovered)].tolist():
            issues.append(ValidationIssue(
                "dynamics", (ids[r],),
                f"time {times[r]} does not align with any breakpoint of the unitary table"))

        report = ValidationReport(tuple(issues))
        if report.ok:
            self._valid_tol = tol
        return report

    def ensure_valid(self, tol: float = DEFAULT_TOL) -> None:
        """Raise :class:`InvalidFamilyError` unless the family validates at ``tol``;
        a family marked valid at exactly ``tol`` is not checked again."""
        if tol == self._valid_tol:
            return
        report = self.validate(tol)
        if not report.ok:
            raise InvalidFamilyError(report)

    # -- construction ----------------------------------------------------

    def _uncovered(self, times: list[float]) -> list[float]:
        """The distinct ``times`` the dynamics cannot branch at, each checked
        once: a unitary table propagates only from its breakpoints."""
        if not isinstance(self.evolution, PiecewiseUnitary):
            return []
        return [t for t in set(times) if not self.evolution.covers(t)]

    def _grown(self, leaves: Sequence[int], stack: np.ndarray, times: Sequence[float],
               tol: float) -> "BranchingFamily":
        """This family with the decomposition ``stack``, shape (k, d, d), below each
        of ``leaves``, the new nodes at ``times`` with ids from one above the largest.

        The decomposition must have been checked at ``tol``.  The validity
        mark carries over only if this family is marked valid at that same
        ``tol`` and the dynamics can branch at every leaf's time.
        """
        nodes, first, k = self._nodes, self._next_id, len(leaves) * len(stack)
        ids = tuple(range(first, first + k))
        row = nodes.row.copy()
        row.update(zip(ids, range(len(nodes.ids), len(nodes.ids) + k)))
        grown = nodes._replace(
            ids=nodes.ids + ids, row=row, time=np.concatenate([nodes.time, times]),
            parent=np.concatenate([nodes.parent, np.repeat(leaves, len(stack))]),
            projectors=np.concatenate([nodes.projectors, *[stack] * len(leaves)]))
        fam = BranchingFamily._trusted(self.dim, grown, self.initial_state, self.evolution)
        fam._next_id = first + k
        if tol == self._valid_tol and not self._uncovered(nodes.time[leaves].tolist()):
            fam._valid_tol = tol
        return fam

    @cached_property
    def _next_id(self) -> int:
        """The first id :meth:`_grown` hands out: one above the largest."""
        return max(self._nodes.ids) + 1

    def extend(self, leaf_id: int, projectors: Sequence,
               child_times: Sequence[float], tol: float = DEFAULT_TOL) -> "BranchingFamily":
        """Return a new family with a decomposition attached below a leaf.

        ``projectors`` must form a decomposition of the identity and each
        time in ``child_times`` (one per projector) must lie strictly
        after the leaf's own time.  The new children carry consecutive
        ids starting just above the current maximum, in the order given,
        and they describe the system at the time of ``leaf_id``.
        """
        leaf = self._row(leaf_id)
        if not self.is_leaf(leaf_id):
            raise ValueError(f"node {leaf_id} is not a leaf")
        stack = require_decomposition(projectors, dim=self.dim, tol=tol)
        times = _finite_times(child_times, "child time")
        if len(times) != len(stack):
            raise ValueError(
                f"{len(stack)} projectors need {len(stack)} child times, "
                f"got {len(times)}")
        leaf_time = float(self._nodes.time[leaf])
        for t in times:
            if not (t > leaf_time):
                raise ValueError(
                    f"child time {t} is not after the leaf time {leaf_time}")
        return self._grown([leaf], stack, times, tol)

    # -- histories -------------------------------------------------------

    def histories(self, tol: float = DEFAULT_TOL) -> list[HistorySequence]:
        """All root-to-leaf histories in depth-first leaf order.

        The path ``m_0 < m_1 < ... < m_k`` becomes the sequence
        ``[(time(m_0), P(m_1)), ..., (time(m_{k-1}), P(m_k))]``: each
        projector is paired with the time of the node above it, and leaf
        times do not appear.  A bare root yields the empty sequence.
        Each node's steps extend its parent's, and the projectors are
        read-only rows of the family's projector stack.
        """
        self.ensure_valid(tol)
        nodes, tree = self._nodes, self._tree
        times, up = nodes.time.tolist(), nodes.parent.tolist()
        steps: list[tuple[tuple[float, np.ndarray], ...]] = [()] * len(up)
        for rows in tree.levels[1:]:
            for r in rows.tolist():
                steps[r] = steps[up[r]] + ((times[up[r]], nodes.projectors[r]),)
        return [HistorySequence._trusted(steps[r]) for r in tree.leaves.tolist()]

    def history_of_leaf(self, leaf_id: int, tol: float = DEFAULT_TOL) -> HistorySequence:
        """The history ending at one particular leaf, read up the parent rows."""
        self.ensure_valid(tol)
        rows, nodes = [self._row(leaf_id)], self._nodes
        if self._tree.children[rows[0]]:
            raise ValueError(f"node {leaf_id} is not a leaf")
        while nodes.parent[rows[-1]] >= 0:
            rows.append(nodes.parent[rows[-1]])
        rows.reverse()
        return HistorySequence._trusted(tuple(
            zip(nodes.time[rows[:-1]].tolist(), [nodes.projectors[r] for r in rows[1:]])))

    def is_product_shaped(self, tol: float = DEFAULT_TOL) -> bool:
        """True iff the family could have come from a product construction.

        Checks that all nodes of equal depth have equally many children,
        that those with children share one time, and that their child
        decompositions agree member by member, which is exactly branch
        independence.  Leaf times enter no history and are not compared.
        """
        self.ensure_valid(tol)
        nodes, tree = self._nodes, self._tree
        # Every level above the last has children; the last has none.
        for level, below in zip(tree.levels, tree.levels[1:]):
            counts, times = tree.children[level], nodes.time[level]
            if counts.min() != counts.max():
                return False
            if times.max() - times.min() > tol:
                return False
            stack = nodes.projectors[below].reshape(len(level), -1, self.dim, self.dim)
            if np.abs(stack[1:] - stack[:1]).max(initial=0.0) > tol:
                return False
        return True


def new_family(dim: int, root_time: float, initial_state="maximally_mixed",
               evolution: EvolutionProvider | None = None,
               tol: float = DEFAULT_TOL) -> BranchingFamily:
    """Create a single-root family.

    ``initial_state`` may be the literal string ``"maximally_mixed"`` or an
    explicit density matrix.  When ``evolution`` is omitted the trivial
    provider is used.
    """
    if dim < 1:
        raise ValueError(f"dimension must be positive, got {dim}")
    if isinstance(initial_state, str):
        if initial_state != "maximally_mixed":
            raise ValueError(f"unknown initial state {initial_state!r}")
        initial_state = maximally_mixed(dim)  # its trace may miss 1 by an ulp
    state = require_density_matrix(initial_state, dim=dim, tol=tol)
    if evolution is None:
        evolution = TrivialEvolution(dim)
    if evolution.dim != dim:
        raise ValueError(
            f"evolution dimension {evolution.dim} does not match family dim {dim}")
    root = _Nodes.of((ROOT_ID,), [None], np.array(_finite_times([root_time], "root time")),
                     np.zeros((1, dim, dim), dtype=complex))
    fam = BranchingFamily._trusted(int(dim), root, state, evolution)
    fam._valid_tol = tol
    return fam


def from_product(dim: int, times: Sequence[float], decompositions: Sequence[Sequence],
                 initial_state="maximally_mixed",
                 evolution: EvolutionProvider | None = None,
                 tol: float = DEFAULT_TOL) -> BranchingFamily:
    """Build the branching family of a product history family.

    ``decompositions[i]`` is applied at ``times[i]`` independently of the
    branch, so the histories are exactly the cartesian product of the
    decompositions, enumerated in lexicographic order (first decomposition
    slowest).  Leaves receive the synthetic time ``times[-1] + 1``, which
    never enters any chain computation; it must exceed ``times[-1]``.
    """
    ts = _finite_times(times, "time")
    if len(ts) != len(decompositions):
        raise ValueError(
            f"{len(decompositions)} decompositions need {len(decompositions)} "
            f"times, got {len(ts)}")
    if not ts:
        raise ValueError("a product family needs at least one step")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError(f"times must be strictly increasing, got {ts}")
    if not ts[-1] + 1.0 > ts[-1]:
        raise ValueError(f"leaf time {ts[-1]} + 1 is not after the last time {ts[-1]}")
    fam = new_family(dim, ts[0], initial_state, evolution, tol=tol)
    levels = [require_decomposition(d, dim=dim, tol=tol) for d in decompositions]
    # Each level grows below all of the last, whose rows end the store, so
    # ids run level by level, as leaf-by-leaf ``extend`` calls number them.
    width = 1
    for stack, t_next in zip(levels, ts[1:] + [ts[-1] + 1.0]):
        fam = fam._grown(range(len(fam) - width, len(fam)), stack,
                         [t_next] * (width * len(stack)), tol)
        width *= len(stack)
    return fam
