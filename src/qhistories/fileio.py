"""Reading and writing family documents, plus Graphviz export.

A family document is a JSON object::

    {
      "dim": 2,
      "initial_state": "maximally_mixed",        // or an explicit matrix
      "dynamics": {"kind": "trivial"},
      "nodes": [
        {"id": 0, "time": 0.0},                  // the root: no parent, no projector
        {"id": 1, "parent": 0, "time": 1.0, "projector": [[[1,0],[0,0]],[[0,0],[0,0]]]},
        ...
      ]
    }

Matrices are row-major arrays of ``[re, im]`` pairs.  The two other
dynamics kinds are ``{"kind": "hamiltonian", "hamiltonian": <matrix>}``
and ``{"kind": "unitary_table", "breakpoints": [t0, ...], "unitaries":
[<matrix>, ...]}`` with one unitary per breakpoint interval.

Serialization is canonical: object keys sorted, nodes kept in insertion
order, every float printed with 17 significant digits.  Canonical bytes
are a fixed point, so ``serialize(parse(serialize(f)))`` reproduces
``serialize(f)`` byte for byte.

Matrices are encoded and decoded whole: one format template per matrix
shape prints all of a matrix's numbers at once, and reading checks the
types and lengths of all its rows, pairs and numbers before converting
them to one float array.  The bytes are those of the per-entry format.
Only a matrix that fails the bulk check is walked entry by entry, to
name its first bad entry.

:func:`load_document` raises only :class:`~qhistories.errors.ParseError`,
with a line/column (syntax) or a field path (schema); semantic violations
are reported through :meth:`BranchingFamily.validate` with node ids.  A
number beyond the float range is a schema error at its field; an integer
literal longer than Python converts, or nesting deeper than the JSON
decoder follows, is an error at ``$``.  A ``dim`` whose dense complex
matrix would take more than ``MAX_MATRIX_BYTES`` is a schema error,
reported before any matrix is allocated.
"""

from __future__ import annotations

import functools
import itertools
import json
import math

import numpy as np

from .chain import weight_table
from .dynamics import (
    ConstantHamiltonian,
    EvolutionProvider,
    PiecewiseUnitary,
    TrivialEvolution,
)
from .errors import ParseError
from .linalg import DEFAULT_TOL
from .structure import BranchingFamily, Moment

__all__ = [
    "load_document",
    "parse_family",
    "serialize_family",
    "export_dot",
]

# Largest dense d x d complex matrix a document may ask for (64 MiB, d = 2048).
MAX_MATRIX_BYTES = 1 << 26


# -- canonical JSON emission ----------------------------------------------

def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x}")
    if x == 0.0:
        x = 0.0  # normalize -0.0 so reparsing reproduces the bytes
    return format(x, ".17g")


class _Fragment(str):
    """Canonical JSON text that :func:`_canonical` writes out verbatim."""


def _canonical(obj) -> str:
    if type(obj) is _Fragment:
        return obj
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, bool):
        raise ValueError("booleans do not occur in family documents")
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(f"{json.dumps(k)}:{_canonical(v)}" for k, v in items) + "}"
    raise ValueError(f"cannot serialize value of type {type(obj).__name__}")


@functools.lru_cache(maxsize=8)
def _matrix_template(rows: int, cols: int) -> str:
    # '%.17g' % x and format(x, '.17g') share one C routine, so a template
    # prints the same bytes as _format_float does entry by entry.
    row = "[" + ",".join(["[%.17g,%.17g]"] * cols) + "]"
    return "[" + ",".join([row] * rows) + "]"


def _matrix_to_json(m: np.ndarray) -> _Fragment:
    """A matrix as rows of ``[re, im]`` pairs, formatted in one pass."""
    a = np.ascontiguousarray(m, dtype=complex)
    flat = a.view(np.float64).ravel() + 0.0  # + 0.0 turns -0.0 into 0.0
    finite = np.isfinite(flat)
    if not finite.all():
        _format_float(float(flat[np.argmin(finite)]))  # raises for the first one
    return _Fragment(_matrix_template(*a.shape) % tuple(flat.tolist()))


def _dynamics_to_json(evolution: EvolutionProvider) -> dict:
    if isinstance(evolution, TrivialEvolution):
        return {"kind": "trivial"}
    if isinstance(evolution, ConstantHamiltonian):
        return {"kind": "hamiltonian",
                "hamiltonian": _matrix_to_json(evolution.hamiltonian)}
    if isinstance(evolution, PiecewiseUnitary):
        return {"kind": "unitary_table",
                "breakpoints": [float(t) for t in evolution.breakpoints],
                "unitaries": [_matrix_to_json(u) for u in evolution.unitaries]}
    raise ValueError(
        f"cannot serialize evolution provider of type {type(evolution).__name__}")


def serialize_family(family: BranchingFamily) -> bytes:
    """Canonical UTF-8 document for ``family``."""
    dim = family.dim
    # Matrices are checked as they are formatted: format them in canonical
    # key order, so the non-finite number reported is the document's first.
    dynamics = _dynamics_to_json(family.evolution)
    if np.array_equal(family.initial_state, np.eye(dim, dtype=complex) / dim):
        state = "maximally_mixed"
    else:
        state = _matrix_to_json(family.initial_state)
    nodes = []
    for m in family.moments:
        node: dict = {"id": int(m.id), "time": float(m.time)}
        if m.parent is not None:
            node["parent"] = int(m.parent)
        if m.projector is not None:
            node["projector"] = _matrix_to_json(m.projector)
        nodes.append(node)
    doc = {
        "dim": dim,
        "initial_state": state,
        "dynamics": dynamics,
        "nodes": nodes,
    }
    return _canonical(doc).encode("utf-8")


# -- parsing ----------------------------------------------------------------

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


def _matrix_numbers(value, dim: int) -> np.ndarray | None:
    """The numbers of a dim x dim matrix of ``[re, im]`` pairs as one array.

    None unless every row, pair and number has the right type and length;
    ``type(True) is bool``, so booleans fail the number check.
    """
    if type(value) is not list or len(value) != dim:
        return None
    if set(map(type, value)) != {list} or set(map(len, value)) != {dim}:
        return None
    pairs = list(itertools.chain.from_iterable(value))
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return None
    numbers = list(itertools.chain.from_iterable(pairs))
    if not set(map(type, numbers)) <= {int, float}:
        return None
    try:
        return np.array(numbers, dtype=float)
    except OverflowError:
        return None


def _raise_first_defect(value, dim: int, field: str) -> None:
    """Raise the ParseError naming the first malformed entry of a matrix."""
    if not isinstance(value, list):
        raise _schema(field, "expected a matrix (list of rows)")
    if len(value) != dim:
        raise _schema(field, f"expected {dim} rows, got {len(value)}")
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != dim:
            raise _schema(f"{field}[{i}]", f"expected a row of {dim} entries")
        for j, entry in enumerate(row):
            if not isinstance(entry, list) or len(entry) != 2:
                raise _schema(f"{field}[{i}][{j}]",
                              "expected an [re, im] pair")
            _as_float(entry[0], f"{field}[{i}][{j}][0]")
            _as_float(entry[1], f"{field}[{i}][{j}][1]")


def _as_matrix(value, dim: int, field: str) -> np.ndarray:
    numbers = _matrix_numbers(value, dim)
    if numbers is None or not np.isfinite(numbers).all():
        _raise_first_defect(value, dim, field)
    return numbers.view(complex).reshape(dim, dim)


def _check_keys(obj: dict, allowed: set[str], required: set[str], field: str):
    unknown = set(obj) - allowed
    if unknown:
        raise _schema(field, f"unknown keys {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise _schema(field, f"missing keys {sorted(missing)}")


def _parse_dynamics(value, dim: int, tol: float) -> EvolutionProvider:
    field = "dynamics"
    if not isinstance(value, dict):
        raise _schema(field, "expected an object")
    kind = value.get("kind")
    if kind == "trivial":
        _check_keys(value, {"kind"}, {"kind"}, field)
        return TrivialEvolution(dim)
    if kind == "hamiltonian":
        _check_keys(value, {"kind", "hamiltonian"}, {"kind", "hamiltonian"}, field)
        h = _as_matrix(value["hamiltonian"], dim, f"{field}.hamiltonian")
        try:
            return ConstantHamiltonian(h, tol)
        except ValueError as exc:
            raise _schema(f"{field}.hamiltonian", str(exc)) from None
    if kind == "unitary_table":
        _check_keys(value, {"kind", "breakpoints", "unitaries"},
                    {"kind", "breakpoints", "unitaries"}, field)
        raw_bp = value["breakpoints"]
        if not isinstance(raw_bp, list):
            raise _schema(f"{field}.breakpoints", "expected a list of times")
        breakpoints = [
            _as_float(t, f"{field}.breakpoints[{i}]") for i, t in enumerate(raw_bp)
        ]
        raw_us = value["unitaries"]
        if not isinstance(raw_us, list):
            raise _schema(f"{field}.unitaries", "expected a list of matrices")
        unitaries = [
            _as_matrix(u, dim, f"{field}.unitaries[{i}]")
            for i, u in enumerate(raw_us)
        ]
        try:
            return PiecewiseUnitary(breakpoints, unitaries, tol)
        except ValueError as exc:
            raise _schema(field, str(exc)) from None
    raise _schema(f"{field}.kind", f"unknown dynamics kind {kind!r}")


def load_document(text: bytes | str, tol: float = DEFAULT_TOL) -> BranchingFamily:
    """Parse a family document, checking syntax and schema but not semantics.

    The returned family may still fail :meth:`BranchingFamily.validate`;
    use :func:`parse_family` when only valid families are acceptable.
    """
    if isinstance(text, (bytes, bytearray)):
        try:
            text = bytes(text).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"document is not valid UTF-8: {exc.reason} at byte {exc.start}",
                field="$") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    except ValueError as exc:  # an integer literal beyond int's digit limit
        raise ParseError(str(exc), field="$") from None
    except RecursionError:
        raise ParseError("values nest too deeply", field="$") from None

    if not isinstance(doc, dict):
        raise _schema("$", "top-level value must be an object")
    _check_keys(doc, {"dim", "initial_state", "dynamics", "nodes"},
                {"dim", "initial_state", "dynamics", "nodes"}, "$")

    dim = _as_int(doc["dim"], "dim")
    if dim < 1:
        raise _schema("dim", f"dimension must be positive, got {dim}")
    matrix_bytes = np.dtype(complex).itemsize * dim * dim
    if matrix_bytes > MAX_MATRIX_BYTES:
        raise _schema("dim", f"a {dim}x{dim} complex matrix takes {matrix_bytes} "
                             f"bytes, above the limit of {MAX_MATRIX_BYTES}")

    raw_state = doc["initial_state"]
    if isinstance(raw_state, str):
        if raw_state != "maximally_mixed":
            raise _schema("initial_state", f"unknown state literal {raw_state!r}")
        state = np.eye(dim, dtype=complex) / dim
    else:
        state = _as_matrix(raw_state, dim, "initial_state")

    evolution = _parse_dynamics(doc["dynamics"], dim, tol)

    raw_nodes = doc["nodes"]
    if not isinstance(raw_nodes, list):
        raise _schema("nodes", "expected a list of nodes")
    if not raw_nodes:
        raise _schema("nodes", "a family needs at least one node")
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
    return BranchingFamily(dim, moments, state, evolution)


def parse_family(text: bytes | str, tol: float = DEFAULT_TOL) -> BranchingFamily:
    """Parse a family document and require it to be a valid branching family.

    Raises :class:`ParseError` for syntax or schema problems and
    :class:`~qhistories.errors.InvalidFamilyError` (listing node ids) for
    semantic ones.
    """
    family = load_document(text, tol)
    family.ensure_valid(tol)
    return family


# -- Graphviz export ---------------------------------------------------------

def _format_time(t: float) -> str:
    return format(t, "g")


def export_dot(family: BranchingFamily, annotate_weights: bool = False,
               tol: float = DEFAULT_TOL) -> str:
    """Graphviz digraph of a valid family.

    Nodes are labelled with their id, time and projector rank; with
    ``annotate_weights`` every leaf also shows its history's weight.
    Output order follows node insertion order, so equal families produce
    identical text.
    """
    family.ensure_valid(tol)
    weights = {}
    if annotate_weights:
        table = weight_table(family, tol)
        for leaf, w in zip(family.leaves(), table):
            weights[leaf.id] = w
    lines = ["digraph family {", "  node [shape=circle];"]
    for m in family.moments:
        label = f"m{m.id}\\nt={_format_time(m.time)}"
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
