"""Branching families: trees of moments carrying projective decompositions.

A family is a finite tree.  Each node (a :class:`Moment`) has a time, and
every non-root node carries a projector describing the system *at its
parent's time*; the children of any node carry a decomposition of the
identity.  A root-to-leaf path therefore reads off a history: the leaf's
own time is never paired with a projector and is pure metadata.

Families are persistent values: :meth:`BranchingFamily.extend` returns a
new family and never mutates the receiver.  Families built through the
constructors in this module are valid by construction; families assembled
by hand (for instance by the document parser) must pass
:meth:`BranchingFamily.validate` before any chain computation will accept
them.

Each family builds one array layout of its tree on first use: its nodes
depth first, with each node's parent row, depth and time, and one stack of
the node projectors.  Validation, histories, the product-shape check, the
chain operators and the history-space embedding all read that layout.
"""

from __future__ import annotations

import itertools
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
            normalized.append((float(t), as_operator(p)))
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


class _Layout(NamedTuple):
    """A family's nodes as arrays, one row per node.

    Rows run depth first from a single root, siblings in insertion order,
    then over the nodes that walk does not reach (only an invalid family
    has them) in insertion order.  ``parent`` holds the row of each node's
    parent, with the root and the unreached nodes their own parents;
    ``depth`` is -1 for the unreached nodes, and ``levels[k]`` holds the
    rows of depth k, which are that tree level in breadth-first order.
    ``projectors`` is the read-only stack of the node projectors, zero
    where a node carries no (d, d) projector.  The leaf rows come in leaf
    order.
    """

    nodes: tuple[Moment, ...]
    parent: np.ndarray
    depth: np.ndarray
    levels: list[np.ndarray]
    time: np.ndarray
    children: np.ndarray
    projectors: np.ndarray


class BranchingFamily:
    """An immutable branching family over a ``dim``-dimensional space.

    Parameters
    ----------
    dim : int
        Hilbert-space dimension.
    moments : iterable of Moment
        Tree nodes in insertion order.  Child order within one parent is
        the order of appearance here, and it fixes the deterministic
        depth-first leaf ordering used by weight tables.
    initial_state : matrix
        Density matrix the weights are taken against.
    evolution : EvolutionProvider
        Dynamics connecting the moment times.
    """

    def __init__(self, dim: int, moments: Iterable[Moment], initial_state,
                 evolution: EvolutionProvider):
        self.dim = int(dim)
        self.moments = tuple(moments)
        self.initial_state = as_operator(initial_state)
        if not isinstance(evolution, EvolutionProvider):
            raise ValueError("evolution must be an EvolutionProvider")
        self.evolution = evolution

        self._by_id: dict[int, Moment] = {}
        for m in self.moments:
            if m.id in self._by_id:
                raise ValueError(f"duplicate node id {m.id}")
            self._by_id[m.id] = m
        self._children: dict[int, list[Moment]] = {m.id: [] for m in self.moments}
        for m in self.moments:
            if m.parent is not None and m.parent in self._children:
                self._children[m.parent].append(m)
        # Smallest tolerance this family is known to validate at, if any.
        self._valid_tol: float | None = None

    # -- queries ---------------------------------------------------------

    def moment(self, node_id: int) -> Moment:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise ValueError(f"no node with id {node_id}") from None

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._by_id

    def root(self) -> Moment:
        roots = [m for m in self.moments if m.parent is None]
        if len(roots) != 1:
            raise ValueError(f"family has {len(roots)} roots, expected exactly 1")
        return roots[0]

    def children_of(self, node_id: int) -> tuple[Moment, ...]:
        self.moment(node_id)
        return tuple(self._children[node_id])

    def is_leaf(self, node_id: int) -> bool:
        return not self.children_of(node_id)

    def path(self, node_id: int) -> list[Moment]:
        """Moments from the root down to ``node_id`` inclusive."""
        out = [self.moment(node_id)]
        seen = {node_id}
        while out[-1].parent is not None:
            parent = out[-1].parent
            if parent not in self._by_id or parent in seen:
                raise ValueError(f"broken parent chain above node {node_id}")
            seen.add(parent)
            out.append(self._by_id[parent])
        return list(reversed(out))

    @cached_property
    def _layout(self) -> _Layout:
        """The family's :class:`_Layout`, built on first use from one walk."""
        roots = [m for m in self.moments if m.parent is None]
        nodes: list[Moment] = []
        depths: list[int] = []
        levels: list[list[int]] = []
        stack = [(roots[0], 0)] if len(roots) == 1 else []
        while stack:
            m, k = stack.pop()
            if k == len(levels):
                levels.append([])
            levels[k].append(len(nodes))
            nodes.append(m)
            depths.append(k)
            stack.extend((c, k + 1) for c in reversed(self._children[m.id]))
        row = {m.id: r for r, m in enumerate(nodes)}
        nodes += [m for m in self.moments if m.id not in row]
        depth = np.array(depths + [-1] * (len(nodes) - len(depths)), dtype=np.intp)
        shape = (self.dim, self.dim)
        zero = np.zeros(shape, dtype=complex)
        projectors = np.array([m.projector if m._carries(shape) else zero for m in nodes],
                              dtype=complex)
        projectors = projectors.reshape(-1, *shape)
        projectors.flags.writeable = False
        return _Layout(tuple(nodes),
                       np.array([row.get(m.parent, r) for r, m in enumerate(nodes)], dtype=np.intp),
                       depth,
                       [np.array(rows, dtype=np.intp) for rows in levels],
                       np.array([m.time for m in nodes], dtype=float),
                       np.array([len(self._children[m.id]) for m in nodes], dtype=np.intp),
                       projectors)

    @cached_property
    def _norms(self) -> np.ndarray:
        """:func:`linalg._projector_norms` of the layout's projector stack, one column per row."""
        return _projector_norms(self._layout.projectors)

    def leaves(self) -> tuple[Moment, ...]:
        """Leaves in depth-first order; this order indexes weight tables."""
        layout = self._layout
        ends = (layout.children == 0) & (layout.depth >= 0)
        return tuple(itertools.compress(layout.nodes, ends))

    def __len__(self) -> int:
        return len(self.moments)

    def __repr__(self) -> str:
        return (f"BranchingFamily(dim={self.dim}, nodes={len(self.moments)}, "
                f"evolution={self.evolution!r})")

    # -- validation ------------------------------------------------------

    def validate(self, tol: float = DEFAULT_TOL,
                 allow_zero_projectors: bool = False) -> ValidationReport:
        """Check every family invariant and report all violations found.

        Checks, in order: tree shape (single root, known parents, no
        unreachable nodes), projector placement and shape, strict time
        growth along edges, the decomposition property of every sibling
        group (one stacked check for all), the initial state, and
        agreement between the family and its evolution provider.
        """
        issues: list[ValidationIssue] = []

        roots = [m for m in self.moments if m.parent is None]
        if len(roots) != 1:
            issues.append(ValidationIssue(
                "tree", tuple(m.id for m in roots),
                f"expected exactly one root, found {len(roots)}"))
        for m in self.moments:
            if m.parent is not None and m.parent not in self._by_id:
                issues.append(ValidationIssue(
                    "tree", (m.id,), f"parent {m.parent} does not exist"))

        layout = self._layout
        if len(roots) == 1:
            unreachable = [m.id for m, k in zip(layout.nodes, layout.depth.tolist()) if k < 0]
            if unreachable:
                issues.append(ValidationIssue(
                    "tree", tuple(unreachable),
                    "nodes are not reachable from the root"))

        shape = (self.dim, self.dim)
        row_of = {m.id: r for r, m in enumerate(layout.nodes) if m._carries(shape)}
        size, _, herm, idem = self._norms
        is_proj, size = ((herm <= tol) & (idem <= tol)).tolist(), size.tolist()

        for m in self.moments:
            if m.parent is None:
                if m.projector is not None:
                    issues.append(ValidationIssue(
                        "projector", (m.id,), "root must not carry a projector"))
                continue
            if m.projector is None:
                issues.append(ValidationIssue(
                    "projector", (m.id,), "non-root node carries no projector"))
            elif not m._carries(shape):
                issues.append(ValidationIssue(
                    "dimension", (m.id,),
                    f"projector {m._projector_kind()} does not match dim {self.dim}"))
            elif not is_proj[row_of[m.id]]:
                issues.append(ValidationIssue(
                    "projector", (m.id,), "matrix is not a projector within tol"))
            elif not allow_zero_projectors and size[row_of[m.id]] <= tol:
                issues.append(ValidationIssue(
                    "zero-projector", (m.id,), "projector is the zero matrix"))
            parent = self._by_id.get(m.parent)
            if parent is not None and not (m.time > parent.time):
                issues.append(ValidationIssue(
                    "time-order", (parent.id, m.id),
                    f"child time {m.time} is not after parent time {parent.time}"))

        # Sibling groups of placed projectors only, in parent order.
        groups = [kids for kids in self._children.values()
                  if kids and all(c.id in row_of for c in kids)]
        grouped = [c for kids in groups for c in kids]
        bounds = np.cumsum([0] + [len(kids) for kids in groups])
        clashes, complete = decomposition_defects(
            layout.projectors[[row_of[c.id] for c in grouped]], bounds, tol)
        cut = np.searchsorted(clashes[:, 0], bounds)  # group g: clashes[cut[g]:cut[g + 1]]
        for g in np.flatnonzero(~complete | (np.diff(cut) > 0)).tolist():
            for i, j in clashes[cut[g]:cut[g + 1]].tolist():
                issues.append(ValidationIssue(
                    "orthogonality", (grouped[i].id, grouped[j].id),
                    "sibling projectors are not orthogonal"))
            if not complete[g]:
                issues.append(ValidationIssue(
                    "completeness", (groups[g][0].parent,) + tuple(c.id for c in groups[g]),
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
        for m in self.moments:
            if self._children[m.id] and not self._can_branch_at(m.time):
                issues.append(ValidationIssue(
                    "dynamics", (m.id,),
                    f"time {m.time} does not align with any breakpoint "
                    f"of the unitary table"))

        report = ValidationReport(tuple(issues))
        # A relaxed pass may have let zero projectors through.
        if (report.ok and not allow_zero_projectors
                and (self._valid_tol is None or tol < self._valid_tol)):
            self._valid_tol = tol
        return report

    def ensure_valid(self, tol: float = DEFAULT_TOL) -> None:
        """Raise :class:`InvalidFamilyError` unless the family validates at ``tol``."""
        if self._valid_tol is not None and tol >= self._valid_tol:
            return
        report = self.validate(tol)
        if not report.ok:
            raise InvalidFamilyError(report)

    # -- construction ----------------------------------------------------

    def _can_branch_at(self, t: float) -> bool:
        """A unitary table propagates only from its breakpoints."""
        return (not isinstance(self.evolution, PiecewiseUnitary)
                or self.evolution.covers(t))

    def _grown(self, moments: Sequence[Moment], branch_times: Iterable[float],
               tol: float, zero_free: bool) -> "BranchingFamily":
        """This family grown to ``moments`` below leaves at ``branch_times``.

        The new decompositions must have been checked at ``tol``.  The
        validity mark carries over unless zero members were allowed or
        the dynamics cannot branch at one of ``branch_times``.
        """
        fam = BranchingFamily(self.dim, moments, self.initial_state, self.evolution)
        if (self._valid_tol is not None and tol <= self._valid_tol and zero_free
                and all(self._can_branch_at(t) for t in branch_times)):
            fam._valid_tol = self._valid_tol
        return fam

    def extend(self, leaf_id: int, projectors: Sequence,
               child_times: Sequence[float], tol: float = DEFAULT_TOL,
               allow_zero: bool = False) -> "BranchingFamily":
        """Return a new family with a decomposition attached below a leaf.

        ``projectors`` must form a decomposition of the identity and each
        time in ``child_times`` (one per projector) must lie strictly
        after the leaf's own time.  The new children carry consecutive
        ids starting just above the current maximum, in the order given,
        and they describe the system at the time of ``leaf_id``.
        """
        leaf = self.moment(leaf_id)
        if not self.is_leaf(leaf_id):
            raise ValueError(f"node {leaf_id} is not a leaf")
        mats = require_decomposition(projectors, dim=self.dim, tol=tol,
                                     allow_zero=allow_zero)
        times = _finite_times(child_times, "child time")
        if len(times) != len(mats):
            raise ValueError(
                f"{len(mats)} projectors need {len(mats)} child times, "
                f"got {len(times)}")
        for t in times:
            if not (t > leaf.time):
                raise ValueError(
                    f"child time {t} is not after the leaf time {leaf.time}")
        next_id = max(self._by_id) + 1
        new_moments = list(self.moments)
        for offset, (p, t) in enumerate(zip(mats, times)):
            new_moments.append(Moment(next_id + offset, leaf_id, t, p))
        return self._grown(new_moments, [leaf.time], tol, zero_free=not allow_zero)

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
        layout = self._layout
        times = layout.time.tolist()
        steps: list[tuple[tuple[float, np.ndarray], ...]] = [()]
        for g, p in zip(layout.parent.tolist()[1:], layout.projectors[1:]):
            steps.append(steps[g] + ((times[g], p),))
        return [HistorySequence._trusted(steps[r])
                for r in np.flatnonzero(layout.children == 0).tolist()]

    def history_of_leaf(self, leaf_id: int, tol: float = DEFAULT_TOL) -> HistorySequence:
        """The history ending at one particular leaf."""
        self.ensure_valid(tol)
        if not self.is_leaf(leaf_id):
            raise ValueError(f"node {leaf_id} is not a leaf")
        nodes = self.path(leaf_id)
        return HistorySequence._trusted(tuple(
            (float(parent.time), as_operator(child.projector))
            for parent, child in zip(nodes, nodes[1:])
        ))

    def is_product_shaped(self, tol: float = DEFAULT_TOL) -> bool:
        """True iff the family could have come from a product construction.

        Checks that all nodes of equal depth have equally many children,
        that those with children share one time, and that their child
        decompositions agree member by member, which is exactly branch
        independence.  Leaf times enter no history and are not compared.
        """
        self.ensure_valid(tol)
        layout = self._layout
        # Every level above the last has children; the last has none.
        for level, below in zip(layout.levels, layout.levels[1:]):
            counts, times = layout.children[level], layout.time[level]
            if counts.min() != counts.max():
                return False
            if times.max() - times.min() > tol:
                return False
            stack = layout.projectors[below].reshape(len(level), -1, self.dim, self.dim)
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
        state = maximally_mixed(dim)
    else:
        state = require_density_matrix(initial_state, dim=dim, tol=tol)
    if evolution is None:
        evolution = TrivialEvolution(dim)
    if evolution.dim != dim:
        raise ValueError(
            f"evolution dimension {evolution.dim} does not match family dim {dim}")
    root = Moment(ROOT_ID, None, _finite_times([root_time], "root time")[0], None)
    fam = BranchingFamily(dim, (root,), state, evolution)
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
    root = new_family(dim, ts[0], initial_state, evolution, tol=tol)
    levels = [require_decomposition(d, dim=dim, tol=tol) for d in decompositions]
    # Ids run level by level, as leaf-by-leaf ``extend`` calls number them.
    ids = itertools.count(ROOT_ID + 1)
    moments = list(root.moments)
    parents = [ROOT_ID]
    for mats, t_next in zip(levels, ts[1:] + [ts[-1] + 1.0]):
        level = [Moment(next(ids), parent, t_next, p) for parent in parents for p in mats]
        moments.extend(level)
        parents = [m.id for m in level]
    return root._grown(moments, ts, tol, zero_free=True)
