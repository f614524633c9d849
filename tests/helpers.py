"""Shared generators for randomized tests.

Everything takes an explicit ``numpy.random.Generator`` so each test
controls its own seed and stays reproducible.
"""

from __future__ import annotations

import json
import math
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
    Moment,
    ParseError,
    PiecewiseUnitary,
    TrivialEvolution,
    from_product,
    is_density_matrix,
    is_projector,
    new_family,
    product_sum,
    weight,
    weight_table,
)
from qhistories.errors import EmbeddingError
from qhistories.hpo import (
    HistoryProjector,
    HPOFamily,
    _bounds,
    _certified,
    _check_space,
    _factor_table,
    _id_tree,
    _slot_times,
)
from qhistories.linalg import DEFAULT_TOL, _projector_norms, as_operator, max_abs
from qhistories.structure import HistorySequence, ValidationIssue, ValidationReport

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


def loose_qubit_family() -> BranchingFamily:
    """Two qubit leaves, 1 and 2, whose projectors P0·(1 + 1e-7) and I minus
    that decompose the identity within 1e-6 but not within 1e-9."""
    p = np.diag([1.0 + 1e-7, 0.0])
    return new_family(2, 0.0).extend(0, [p, np.eye(2) - p], [1.0, 1.0], tol=1e-6)


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


# -- oracles: the plain definitions the package's batched code must match -----

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


def _off_diagonal(d) -> np.ndarray:
    d = np.asarray(d, dtype=complex)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {d.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf on the diagonal is NaN
        return d - np.diag(np.diag(d))


def is_consistent(d, tol: float = DEFAULT_TOL) -> bool:
    """Medium consistency as the norm of ``d - diag(d)`` reads it."""
    return max_abs(_off_diagonal(d)) <= tol


def is_weakly_consistent(d, tol: float = DEFAULT_TOL) -> bool:
    """Weak consistency as the norm of ``Re(d - diag(d))`` reads it."""
    return max_abs(_off_diagonal(d).real) <= tol


def decomposition_defects(mats, tol: float) -> tuple[list[tuple[int, int]], bool]:
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


def validate(fam: BranchingFamily, tol: float = DEFAULT_TOL) -> ValidationReport:
    """``BranchingFamily.validate`` written node by node and pair by pair."""
    issues: list[ValidationIssue] = []
    by_id = {m.id: m for m in fam.moments}
    children = {m.id: list(fam.children_of(m.id)) for m in fam.moments}

    roots = [m for m in fam.moments if m.parent is None]
    if len(roots) != 1:
        issues.append(ValidationIssue(
            "tree", tuple(m.id for m in roots),
            f"expected exactly one root, found {len(roots)}"))
    for m in fam.moments:
        if m.parent is not None and m.parent not in by_id:
            issues.append(ValidationIssue(
                "tree", (m.id,), f"parent {m.parent} does not exist"))

    if len(roots) == 1:
        reachable, stack = set(), [roots[0]]
        while stack:
            m = stack.pop()
            reachable.add(m.id)
            stack.extend(children[m.id])
        unreachable = [m.id for m in fam.moments if m.id not in reachable]
        if unreachable:
            issues.append(ValidationIssue(
                "tree", tuple(unreachable),
                "nodes are not reachable from the root"))

    for m in fam.moments:
        if m.parent is None:
            if m.projector is not None:
                issues.append(ValidationIssue(
                    "projector", (m.id,), "root must not carry a projector"))
            continue
        if m.projector is None:
            issues.append(ValidationIssue(
                "projector", (m.id,), "non-root node carries no projector"))
        elif m.projector.shape != (fam.dim, fam.dim):
            issues.append(ValidationIssue(
                "dimension", (m.id,),
                f"projector shape {m.projector.shape} does not match dim {fam.dim}"))
        elif not is_projector(m.projector, tol):
            issues.append(ValidationIssue(
                "projector", (m.id,), "matrix is not a projector within tol"))
        elif max_abs(m.projector) <= tol:
            issues.append(ValidationIssue(
                "zero-projector", (m.id,), "projector is the zero matrix"))
        parent = by_id.get(m.parent)
        if parent is not None and not (m.time > parent.time):
            issues.append(ValidationIssue(
                "time-order", (parent.id, m.id),
                f"child time {m.time} is not after parent time {parent.time}"))

    for m in fam.moments:
        kids = children[m.id]
        if not kids:
            continue
        mats = [c.projector for c in kids]
        if any(p is None or p.shape != (fam.dim, fam.dim) for p in mats):
            continue  # already reported above
        clashes, complete = decomposition_defects(mats, tol)
        for i, j in clashes:
            issues.append(ValidationIssue(
                "orthogonality", (kids[i].id, kids[j].id),
                "sibling projectors are not orthogonal"))
        if not complete:
            issues.append(ValidationIssue(
                "completeness", (m.id,) + tuple(c.id for c in kids),
                "children projectors do not sum to the identity"))

    state = fam.initial_state
    if state.shape != (fam.dim, fam.dim):
        issues.append(ValidationIssue(
            "initial-state", (),
            f"state shape {state.shape} does not match dim {fam.dim}"))
    elif not is_density_matrix(state, tol):
        issues.append(ValidationIssue(
            "initial-state", (), "initial state is not a density matrix"))

    if fam.evolution.dim != fam.dim:
        issues.append(ValidationIssue(
            "dynamics", (),
            f"evolution dimension {fam.evolution.dim} does not match "
            f"family dimension {fam.dim}"))
    for m in fam.moments:
        if children[m.id] and not (not isinstance(fam.evolution, PiecewiseUnitary)
                                   or fam.evolution.covers(m.time)):
            issues.append(ValidationIssue(
                "dynamics", (m.id,),
                f"time {m.time} does not align with any breakpoint "
                f"of the unitary table"))

    return ValidationReport(tuple(issues))


def depth_first(family: BranchingFamily) -> tuple[Moment, ...]:
    """Nodes reachable from the root, depth first, siblings in insertion order."""
    out: list[Moment] = []
    stack = [family.root()]
    while stack:
        m = stack.pop()
        out.append(m)
        stack.extend(reversed(family.children_of(m.id)))
    return tuple(out)


def leaf_chains(family: BranchingFamily) -> np.ndarray:
    """The leaves' chain operators from one top-down walk, node by node.

    The root's chain is the identity and a node's chain is its projector
    times the chain its parent carries, where a node ``p`` below ``g``
    carries ``U(t_g, t_p) K_p`` and the root carries its identity.
    """
    propagators: dict[tuple[float, float], np.ndarray] = {}
    carried: dict[int, np.ndarray] = {}
    leaves = []
    for m in depth_first(family):
        children = family.children_of(m.id)
        if m.parent is None:
            k = np.eye(family.dim, dtype=complex)
        else:
            k = m.projector @ carried.pop(m.id)
            if children:
                key = (family.moment(m.parent).time, m.time)
                if key not in propagators:
                    propagators[key] = family.evolution.propagator(*key)
                k = propagators[key] @ k
        if not children:
            leaves.append(k)
        for child in children:
            carried[child.id] = k
    return np.array(leaves)


def histories(family: BranchingFamily) -> list[HistorySequence]:
    """Root-to-leaf histories from one walk that carries each node's prefix."""
    out: list[HistorySequence] = []
    prefixes: dict[int, tuple[tuple[float, np.ndarray], ...]] = {}
    for m in depth_first(family):
        steps = prefixes.pop(m.id, ())
        kids = family.children_of(m.id)
        if not kids:
            out.append(HistorySequence._trusted(steps))
        for child in kids:
            prefixes[child.id] = steps + ((float(m.time), as_operator(child.projector)),)
    return out


def sibling_merge(family: BranchingFamily, leaf_a: int,
                  leaf_b: int) -> tuple[HistorySequence, HistorySequence, HistorySequence]:
    """The histories of two sibling leaves, taken from the walk oracle
    ``histories``, and their merge, which ends in the sum of their last
    projectors."""
    leaves = [m.id for m in depth_first(family) if not family.children_of(m.id)]
    hists = histories(family)
    a, b = hists[leaves.index(leaf_a)], hists[leaves.index(leaf_b)]
    (t, p), (_, q) = a.steps[-1], b.steps[-1]
    return a, b, HistorySequence(a.steps[:-1] + ((t, p + q),))


def sibling_merge_weights(family: BranchingFamily, leaf_a: int,
                          leaf_b: int) -> tuple[float, float, float]:
    """W(a), W(b) and W(a + b) of two sibling leaves, each the ``weight`` of
    its own history from :func:`sibling_merge`."""
    evolution, rho = family.evolution, family.initial_state
    return tuple(weight(h, evolution, rho) for h in sibling_merge(family, leaf_a, leaf_b))


def product_merge_weights(seq1: HistorySequence, seq2: HistorySequence, evolution,
                          rho) -> tuple[float, float, float]:
    """W(seq1), W(seq2) and W(seq1 + seq2), each the ``weight`` of its own
    history; raises as ``product_sum`` does."""
    merged = product_sum(seq1, seq2)
    return (weight(seq1, evolution, rho), weight(seq2, evolution, rho),
            weight(merged, evolution, rho))


def embed_family(family: BranchingFamily) -> tuple[HPOFamily, list[bool]]:
    """``hpo.embed_family`` from one depth-first walk, and each member's certified flag."""
    nodes = depth_first(family)
    if len(nodes) == 1:
        raise EmbeddingError("family contains the empty history (bare root)")
    # path[k]: row (in nodes[1:]) of the path's node at depth k + 1;
    # times[k]: time of the path's node at depth k.
    depth = {nodes[0].id: 0}
    path: list[int] = []
    times = [float(nodes[0].time)]
    members, grids = [], set()
    for row, m in enumerate(nodes[1:]):
        k = depth[m.id] = depth[m.parent] + 1
        del path[k - 1:], times[k:]
        path.append(row)
        times.append(float(m.time))
        if not family.children_of(m.id):
            members.append(tuple(path))
            grids.add(tuple(times[:-1]))
    if len(grids) > 1:
        raise EmbeddingError(
            f"histories do not share one time grid: found {sorted(grids)}")
    index = np.array(members)
    slots = index.shape[1]
    _check_space(family.dim, slots)
    stack = np.array([m.projector for m in nodes[1:]], dtype=complex)
    certified = _certified(_projector_norms(stack)[:, index], DEFAULT_TOL).tolist()
    stacks = stack[index]
    grid = _slot_times(slots, grids.pop(), family.dim)
    return HPOFamily(tuple(HistoryProjector._factored(st, grid, ok)
                           for st, ok in zip(stacks, certified))), certified


def tree_bounds(stacks: np.ndarray) -> tuple[float, float]:
    """Orthogonality and completeness bounds of the factored members ``stacks``,
    shape (n, slots, d, d), from their tree (see ``hpo._bounds``)."""
    factors, ids = _factor_table(stacks)
    return _bounds(factors, *_id_tree(ids))


def export_dot(family: BranchingFamily, annotate_weights: bool = False) -> str:
    """``fileio.export_dot`` node by node, with one ``children_of`` call per node for the edges."""
    family.ensure_valid()
    weights = {}
    if annotate_weights:
        for leaf, w in zip(family.leaves(), weight_table(family)):
            weights[leaf.id] = w
    lines = ["digraph family {", "  node [shape=circle];"]
    for m in family.moments:
        label = f"m{m.id}\\nt={m.time:g}"
        if m.projector is not None:
            rank = int(round(float(np.trace(m.projector).real)))
            label += f"\\nrank {rank}"
        if m.id in weights:
            label += f"\\nW={weights[m.id]:.6g}"
        lines.append(f'  n{m.id} [label="{label}"];')
    for m in family.moments:
        for child in family.children_of(m.id):
            lines.append(f"  n{m.id} -> n{child.id};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _schema(field: str, message: str) -> ParseError:
    return ParseError(message, field=field)


def _as_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _schema(field, f"expected an integer, got {value!r}")
    return value


def _as_float(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _schema(field, f"expected a number, got {value!r}")
    try:
        result = float(value)
    except OverflowError:  # an integer beyond the float range
        result = math.inf
    if not math.isfinite(result):
        raise _schema(field, f"expected a finite number, got {value!r}")
    return result


def _as_matrix(value, dim: int, field: str) -> np.ndarray:
    """The per-entry matrix parse: check and convert one entry at a time."""
    if not isinstance(value, list):
        raise _schema(field, "expected a matrix (list of rows)")
    if len(value) != dim:
        raise _schema(field, f"expected {dim} rows, got {len(value)}")
    out = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != dim:
            raise _schema(f"{field}[{i}]", f"expected a row of {dim} entries")
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2:
                raise _schema(f"{field}[{i}][{j}]",
                              "expected an [re, im] pair")
            out[i, j] = complex(_as_float(entry[0], f"{field}[{i}][{j}][0]"),
                                _as_float(entry[1], f"{field}[{i}][{j}][1]"))
    return out


def _check_keys(obj: dict, allowed: set[str], required: set[str], field: str):
    unknown = set(obj) - allowed
    if unknown:
        raise _schema(field, f"unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise _schema(field, f"missing keys {sorted(missing)}")


def load_nodes(raw_nodes: list, dim: int) -> list[Moment]:
    """``load_document``'s node list read node by node: the moments, or the first ParseError."""
    moments = []
    seen_ids: set[int] = set()
    for i, raw in enumerate(raw_nodes):
        field = f"nodes[{i}]"
        if not isinstance(raw, dict):
            raise _schema(field, "expected an object")
        _check_keys(raw, {"id", "parent", "time", "projector"},
                    {"id", "time"}, field)
        node_id = _as_int(raw["id"], f"{field}.id")
        if node_id in seen_ids:
            raise _schema(f"{field}.id", f"duplicate node id {node_id}")
        seen_ids.add(node_id)
        time = _as_float(raw["time"], f"{field}.time")
        parent = None
        if "parent" in raw:
            parent = _as_int(raw["parent"], f"{field}.parent")
        projector = None
        if "projector" in raw:
            if parent is None:
                raise _schema(f"{field}.projector",
                              "a node without a parent must not carry a projector")
            projector = _as_matrix(raw["projector"], dim, f"{field}.projector")
        elif parent is not None:
            raise _schema(f"{field}.projector",
                          "a node with a parent must carry a projector")
        moments.append(Moment(node_id, parent, time, projector))
    return moments
