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

The node list is encoded and decoded in bulk, up to ``_SLICE_NUMBERS``
(4096) numbers at a time, so that the Python floats and lists alive at
once stay small.  Writing is one pass: the dynamics, the state and each
slice of node records are printed by ``%`` templates from one array each,
for the records a slice of the family's projector stack.
Where a finiteness, kind or shape check fails, the same pass raises
ValueError naming the first non-finite number in canonical order, or the
first node the reader would refuse: a child without a projector, a root
with one, or a projector that is not ``dim`` x ``dim``.

Documents are parsed by ``orjson``.  Where ``orjson`` or the schema
refuses a document, ``json`` reads it again, only to name its error, so
every error is the one ``json`` gives.  ``orjson`` refuses ``NaN``,
numbers beyond the float range, lone surrogates and a BOM, and reads
integers past 64 bits as floats: an id, parent or ``dim`` then fails the
schema, and a time or matrix entry gives the float ``json``'s integer
converts to.  ``orjson`` recurses natively and crashes the process on
nesting some tens of thousands of levels deep, so a text that may nest
deeper than a document does goes to ``json`` directly.

Reading checks the keys and the id, parent and time types of all nodes
at once, then the types and lengths of all projectors and their rows, so
that the stack below is allocated only for rows the text holds.  It then
checks and converts the pairs and numbers a slice of rows at a time, in place,
into one (N, d, d) stack, zero at the roots, that the family keeps as its
projector stack; the state and dynamics matrices take the same path one
matrix at a time.
The bytes and the values are those of the per-node, per-entry codec.
A document that fails the bulk check is read node by node, only to name
its first bad field.

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
import operator

import numpy as np
import orjson

from .chain import weight_table
from .dynamics import (
    ConstantHamiltonian,
    EvolutionProvider,
    PiecewiseUnitary,
    TrivialEvolution,
)
from .errors import ParseError
from .linalg import DEFAULT_TOL
from .structure import BranchingFamily, _Nodes

__all__ = [
    "load_document",
    "parse_family",
    "serialize_family",
    "export_dot",
]

# Largest dense d x d complex matrix a document may ask for (64 MiB, d = 2048).
MAX_MATRIX_BYTES = 1 << 26


# -- canonical JSON emission ----------------------------------------------

def _finite(numbers) -> np.ndarray:
    """``numbers`` as floats with -0.0 made 0.0 (so reparsing reproduces the bytes);
    raises ValueError naming the first non-finite one in C order, the canonical order."""
    out = np.asarray(numbers, dtype=float) + 0.0
    finite = np.isfinite(out)
    if not finite.all():
        raise ValueError(f"cannot serialize non-finite number {float(out[~finite][0])}")
    return out


@functools.lru_cache(maxsize=8)
def _matrix_template(rows: int, cols: int) -> str:
    # '%.17g' % x and format(x, '.17g') share one C routine, so a template
    # prints the same bytes as formatting entry by entry.
    row = "[" + ",".join(["[%.17g,%.17g]"] * cols) + "]"
    return "[" + ",".join([row] * rows) + "]"


def _matrix_to_json(m) -> str:
    """A matrix as rows of ``[re, im]`` pairs, formatted in one pass."""
    a = np.ascontiguousarray(m, dtype=complex)
    return _matrix_template(*a.shape) % tuple(_finite(a.view(np.float64)).ravel().tolist())


def _dynamics_to_json(evolution: EvolutionProvider) -> str:
    if isinstance(evolution, TrivialEvolution):
        return '{"kind":"trivial"}'
    if isinstance(evolution, ConstantHamiltonian):
        return '{"hamiltonian":%s,"kind":"hamiltonian"}' % _matrix_to_json(evolution.hamiltonian)
    if isinstance(evolution, PiecewiseUnitary):
        breakpoints = ",".join(format(t, ".17g") for t in _finite(evolution.breakpoints).tolist())
        unitaries = ",".join(map(_matrix_to_json, evolution.unitaries))
        return ('{"breakpoints":[%s],"kind":"unitary_table","unitaries":[%s]}'
                % (breakpoints, unitaries))
    raise ValueError(
        f"cannot serialize evolution provider of type {type(evolution).__name__}")


# Numbers the codec handles at once: node lists are printed a slice of
# nodes at a time and projectors read a slice of rows at a time (at least
# one node or row per slice), so that only one slice's Python floats and
# lists are alive at once, not the whole family's.
_SLICE_NUMBERS = 1 << 12


@functools.lru_cache(maxsize=16)
def _record_template(dim: int, is_child: bool) -> str:
    """The template of one node record, its keys in canonical order."""
    return ('{"id":%d,' + ('"parent":%d,"projector":' + _matrix_template(dim, dim) + ","
                           if is_child else "")
            + '"time":%.17g}')


def _records_to_json(family: BranchingFamily, rows: range) -> str:
    """The records of ``family``'s nodes in ``rows`` printed by one ``%`` template.

    Raises ValueError naming the first node the reader would refuse or the
    first non-finite number, node by node in canonical order.
    """
    nodes, dim, cut = family._nodes, family.dim, slice(rows.start, rows.stop)
    parents = nodes.parent[cut].tolist()
    numbers = nodes.projectors[cut][nodes.parent[cut] != -1].view(np.float64)
    numbers += 0.0  # turns -0.0 into 0.0 in the copy the mask made
    times = nodes.time[cut] + 0.0
    if nodes.misfits or not (np.isfinite(numbers).all() and np.isfinite(times).all()):
        checked = []  # hand-built projectors may also be nested lists or of another dtype
        for m in family._views(rows):
            if m.parent is None and m.projector is not None:
                raise ValueError(f"cannot serialize node {m.id}: "
                                 "a node without a parent must not carry a projector")
            if m.parent is not None and m.projector is None:
                raise ValueError(f"cannot serialize node {m.id}: "
                                 "a node with a parent must carry a projector")
            if m.projector is not None:
                try:
                    shape = np.shape(m.projector)
                except ValueError:  # a ragged nested list; numpy names its regular part
                    shape = f"{np.shape(np.array(m.projector, dtype=object))} + ragged"
                if shape != (dim, dim):
                    raise ValueError(f"cannot serialize node {m.id}: projector shape "
                                     f"{shape} is not ({dim}, {dim})")
                checked.append(_finite(np.ascontiguousarray(m.projector, dtype=complex)
                                       .view(np.float64)))
            _finite(m.time)
        numbers = np.array(checked)
    numbers = iter(numbers.reshape(-1, 2 * dim * dim).tolist())
    args = []
    for r, p, time in zip(rows, parents, times.tolist()):
        args.append(int(nodes.ids[r]))
        if p != -1:
            args.append(int(nodes.parent_id(r, p)))
            args += next(numbers)
        args.append(time)
    template = ",".join([_record_template(dim, p != -1) for p in parents])
    return template % tuple(args)


def serialize_family(family: BranchingFamily) -> bytes:
    """Canonical UTF-8 document for ``family``.

    Raises ValueError naming the first non-finite number in canonical
    order, or the first node the reader would refuse: a child without a
    projector, a root with one, or a projector that is not ``dim`` x ``dim``.
    """
    dim = family.dim
    dynamics = _dynamics_to_json(family.evolution)
    if np.array_equal(family.initial_state, np.eye(dim, dtype=complex) / dim):
        state = '"maximally_mixed"'
    else:
        state = _matrix_to_json(family.initial_state)
    step = max(1, _SLICE_NUMBERS // (2 * dim * dim + 3))
    nodes = ",".join([_records_to_json(family, range(start, min(start + step, len(family))))
                      for start in range(0, len(family), step)])
    return ('{"dim":%d,"dynamics":%s,"initial_state":%s,"nodes":[%s]}'
            % (dim, dynamics, state, nodes)).encode("utf-8")


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


def _stack_numbers(values: list, dim: int) -> np.ndarray | None:
    """The numbers of a list of dim x dim matrices of ``[re, im]`` pairs as
    one flat array, matrix after matrix.

    None unless every matrix, row, pair and number has the right type and
    length and every number is finite; ``type(True) is bool``, so booleans
    fail the number check.  The matrices and their rows are checked before
    the array is allocated, so that its size is bounded by the document's
    text; the pairs and numbers are then checked and converted a slice of
    rows at a time.
    """
    if not (set(map(type, values)) <= {list} and set(map(len, values)) <= {dim}):
        return None
    chain = itertools.chain.from_iterable
    if not (set(map(type, chain(values))) <= {list} and set(map(len, chain(values))) <= {dim}):
        return None
    width = 2 * dim
    out = np.empty(len(values) * dim * width)
    rows = chain(values)
    step = max(1, _SLICE_NUMBERS // width)
    for start in range(0, len(out), step * width):
        pairs = list(chain(itertools.islice(rows, step)))
        if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
            return None
        numbers = list(chain(pairs))
        if not set(map(type, numbers)) <= {int, float}:
            return None
        try:  # assigning a list converts it in place, with no temporary array
            out[start:start + len(numbers)] = numbers
        except OverflowError:
            return None
    return out if np.isfinite(out).all() else None


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
    numbers = _stack_numbers([value], dim)
    if numbers is None:
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


# The deepest a document's values nest: the top object, the node list, a
# node, its projector, a row and an [re, im] pair.
_DOCUMENT_DEPTH = 6
_NOT_NESTING = bytes(sorted(set(range(256)) - set(b'[]{}"\\')))


def _nests_shallowly(data: bytes) -> bool:
    """Whether ``data`` may go to orjson: only if it nests at most
    ``2 * _DOCUMENT_DEPTH`` deep, and for every document of the schema
    whose strings hold no bracket or backslash.

    Keeps the brackets, quotes and backslashes, drops the quote pairs of
    the strings left empty, then peels innermost bracket pairs
    ``_DOCUMENT_DEPTH`` times, each round at most two levels.  A deeper
    or unbalanced nesting, or a string holding a bracket or a backslash,
    leaves something over.
    """
    nesting = data.translate(None, _NOT_NESTING).replace(b'""', b"")
    for _ in range(_DOCUMENT_DEPTH):
        nesting = nesting.replace(b"[]", b"").replace(b"{}", b"")
    return not nesting


def load_document(text: bytes | str, tol: float = DEFAULT_TOL) -> BranchingFamily:
    """Parse a family document, checking syntax and schema but not semantics.

    The returned family may still fail :meth:`BranchingFamily.validate`;
    use :func:`parse_family` when only valid families are acceptable.
    """
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    if isinstance(data, (bytes, bytearray)) and _nests_shallowly(data):
        try:
            return _family_from(orjson.loads(data), tol)
        except (orjson.JSONDecodeError, ParseError):
            pass  # read again by json, only to name the error
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
    return _family_from(doc, tol)


def _family_from(doc, tol: float) -> BranchingFamily:
    """The family a decoded document describes, or the ParseError of its first bad field."""
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
    nodes = _nodes_in_bulk(raw_nodes, dim)
    if nodes is None:
        _nodes_one_by_one(raw_nodes, dim)
    return BranchingFamily._trusted(dim, nodes, state, evolution)


def _nodes_in_bulk(raw_nodes: list, dim: int) -> _Nodes | None:
    """The node store of a node list, or None if any node fails a check.

    Checks every node at once: each is an object with the keys of a root
    (``id``, ``time``) or of a child (also ``parent`` and ``projector``),
    ids are distinct integers, parents integers, times finite numbers, and
    all child projectors convert as one array, copied into the store's
    (N, dim, dim) stack, whose rows for the roots stay zero.
    """
    if set(map(type, raw_nodes)) != {dict} or not set(map(len, raw_nodes)) <= {2, 4}:
        return None
    children = [node for node in raw_nodes if len(node) == 4]
    try:
        ids = list(map(operator.itemgetter("id"), raw_nodes))
        times = list(map(operator.itemgetter("time"), raw_nodes))
        parents = list(map(operator.itemgetter("parent"), children))
        projectors = list(map(operator.itemgetter("projector"), children))
    except KeyError:
        return None
    if (set(map(type, ids)) != {int} or len(set(ids)) != len(ids)
            or not set(map(type, times)) <= {int, float}
            or not set(map(type, parents)) <= {int}):
        return None
    try:
        times = np.array(times, dtype=float)
    except OverflowError:
        return None
    numbers = _stack_numbers(projectors, dim)
    if numbers is None or not np.isfinite(times).all():
        return None
    parents = list(map(dict.get, raw_nodes, itertools.repeat("parent")))
    nodes = _Nodes.of(tuple(ids), parents, times,
                      np.zeros((len(raw_nodes), dim, dim), dtype=complex))
    nodes.projectors[nodes.parent != -1] = numbers.view(complex).reshape(-1, dim, dim)
    return nodes


def _nodes_one_by_one(raw_nodes: list, dim: int) -> None:
    """Raise the ParseError of the first bad node of a node list that
    :func:`_nodes_in_bulk` refuses; every such list has one."""
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
        _as_float(raw["time"], f"{field}.time")
        parent = None
        if "parent" in raw:
            parent = _as_int(raw["parent"], f"{field}.parent")
        if "projector" in raw:
            if parent is None:
                raise _schema(f"{field}.projector",
                              "a node without a parent must not carry a projector")
            _as_matrix(raw["projector"], dim, f"{field}.projector")
        elif parent is not None:
            raise _schema(f"{field}.projector",
                          "a node with a parent must carry a projector")
    raise AssertionError("a node list refused in bulk reads node by node")


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

def export_dot(family: BranchingFamily, annotate_weights: bool = False,
               tol: float = DEFAULT_TOL) -> str:
    """Graphviz digraph of a valid family.

    Nodes are labelled with their id, time and projector rank; with
    ``annotate_weights`` every leaf also shows its history's weight.
    Output order follows node insertion order, so equal families produce
    identical text.
    """
    family.ensure_valid(tol)
    nodes = family._nodes
    weights = {}
    if annotate_weights:
        weights = dict(zip(family._tree.leaves.tolist(), weight_table(family, tol).tolist()))
    ranks = np.rint(np.trace(nodes.projectors, axis1=1, axis2=2).real).tolist()
    parents = nodes.parent.tolist()
    lines = ["digraph family {", "  node [shape=circle];"]
    for r, (node_id, time, p) in enumerate(zip(nodes.ids, nodes.time.tolist(), parents)):
        label = f"m{node_id}\\nt={time:g}"
        if p != -1:
            label += f"\\nrank {int(ranks[r])}"
        if r in weights:
            label += f"\\nW={weights[r]:.6g}"
        lines.append(f'  n{node_id} [label="{label}"];')
    # Edges grouped by parent in insertion order, as ``children_of`` lists them.
    for r in family._tree.kids.tolist():
        lines.append(f"  n{nodes.ids[parents[r]]} -> n{nodes.ids[r]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
