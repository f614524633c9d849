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

The node list is encoded in bulk, up to ``_SLICE_NUMBERS`` (4096)
numbers at a time, so that the temporary arrays, Python floats and lists
alive at once stay small; it is decoded in bulk too, the same way on the
tree route and in one flat list on the text route (see below).  Writing
checks the dynamics, the state and the nodes in canonical order, raising
ValueError naming the first non-finite number, or the first matrix or
node the reader would refuse: a matrix that is not ``dim`` x ``dim``, a
child without a projector, or a root with one.  It then prints every
matrix entry of the document, dynamics, state and projectors in that
order, with the bulk printer (:func:`_print_numbers`), ``_SLICE_NUMBERS``
numbers at a time.  The printer serves both digit counts printed in
bulk, 17 for documents and 6 for the magnitudes ``qhistories
consistency`` writes: the digits come from arithmetic (double-double at
17 digits) and lookup tables, built exactly
once per process and digit count (the powers of ten from Python integers,
the digit and exponent text from Python's formatter), each number becomes
a fixed-width row of words by the word plan of its digit count, and
dropping the zero bytes leaves the text.  An entry the arithmetic cannot
decide, near a rounding tie, outside about 1e-280..1e290 in magnitude,
NaN or inf, is printed by ``format``, so the bytes are those of per-entry
formatting; three-digit ``%.6g`` exponents are decided by the arithmetic.
Ids, node times and breakpoints are printed one by one.  The text of the
matrices is interleaved with the rest of the document as bytes, into one
buffer.

Documents are parsed by ``orjson``.  Where ``orjson`` or the schema
refuses a document, ``json`` reads it again, only to name its error, so
every error is the one ``json`` gives.  ``orjson`` refuses ``NaN``,
numbers beyond the float range, lone surrogates and a BOM, and reads
integers past 64 bits as floats: an id, parent or ``dim`` then fails the
schema, and a time or matrix entry gives the float ``json``'s integer
converts to.  ``orjson`` recurses natively and crashes the process on
nesting some tens of thousands of levels deep, so a text that may nest
deeper than a document does goes to ``json`` directly.

A document with no backslash whose child projectors are written as
``serialize_family`` writes them, ``"projector":[[[`` with no blank,
takes the text route: each projector's text, up to the last ``]]]``
before the next quote, is cut out, the string ``"\\u0000"`` is left in
its place, and ``orjson`` parses the few KB that remain, behind the depth
guard, which reads only them.  The node list must hold that string as
the projector of one child per text.  With their number bytes deleted,
the texts must be the punctuation of ``dim`` x ``dim`` matrices of
pairs; one flat ``orjson.loads`` of them, brackets blanked, then reads
every number into the (N, d, d) stack.  Results and errors are those of
the tree route: a document with no backslash holds no string that
decodes to "\\u0000" (``orjson`` refuses raw control characters in
strings); an accepted text holds no quote and is a complete JSON value
where one stands, its numbers read by the same ``orjson``; the depth
guard reads the remaining text with ``0``, free of backslashes, for each
projector; and lengths are compared before anything that grows with
``dim`` is built.  Any other document, and any the text route refuses
(a blank, a count or shape mismatch, a duplicate ``projector`` key, any
``orjson`` or schema refusal), takes the tree route: ``orjson`` parses
all of it behind the depth guard, then ``json`` where that refuses.

Reading the tree checks the keys and the id, parent and time types of
all nodes at once, then the types and lengths of all projectors and their
rows, so that the stack below is allocated only for rows the text holds.
It then checks and converts the pairs and numbers a slice of rows at a
time, in place, into one (N, d, d) stack, zero at the roots, that the
family keeps as its projector stack; the state and dynamics matrices take
the same path one matrix at a time, on both routes.  Zero rows of nodes
without a parent that would take more than ``MAX_MATRIX_BYTES`` are a
schema error at ``nodes``, raised before the stack is allocated.
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
import gc
import io
import itertools
import json
import math
import operator
from typing import NamedTuple

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

# Numbers the codec handles at once: matrix entries are printed and
# projectors read a slice at a time, so that only one slice's temporary
# arrays, Python floats and lists are alive at once, not the whole family's.
_SLICE_NUMBERS = 1 << 12

# Ends each matrix's text in the printer's output, and stands for it in the
# rest of the document; no number or punctuation holds it.
_MARK = b"|"
_MATRIX = "[[[" + _MARK.decode() + "]]]"

# Decimal exponents the printer's tables cover.  A number it prints itself
# lies in about [1e-280, 1e290), so its exponent is strictly inside; the ends
# are where the exponents of all other numbers, and of zero, are clamped.
_E_LO, _E_HI = -281, 290

# Word plans by digit count: the sizes of a number's digit groups by digit
# word, at most seven digits so that a dot fits, and the row word and byte
# that take the exponent.  The last word of a row takes the separator.
_PLANS = {
    6: (((4, 2),), 2, 0),                # D0-D5; "e+123" at bytes 0-4, the separator at byte 7
    17: (((4, 3), (4, 3), (3,)), 3, 3),  # D0-D6, D7-D13, D14-D16 and "e+123" at bytes 3-7
}


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of ``a`` into two halves of at most 26 bits each."""
    c = a * 134217729.0  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


class _Tables(NamedTuple):
    """Lookup tables of :func:`_print_numbers`; see :func:`_number_tables`."""

    digits: int              # P, the significant digits printed
    power: np.ndarray        # 10**(P - 1 - e) by exponent row: rounded,
    power_hi: np.ndarray     # its two Dekker halves,
    power_lo: np.ndarray
    power_rest: np.ndarray   # and the rest of the power beyond the rounded one
    base: np.ndarray         # layout row base by exponent row
    exponent: np.ndarray     # exponent text, placed in its word, by exponent row
    exponent_word: int       # the row word that holds it
    sizes: tuple             # the digit groups' sizes, by digit word
    ascii: tuple             # group -> ASCII placed in its word, by group
    significant: tuple       # group -> digits up to its last nonzero one, by group
    layout: np.ndarray       # (1 + 3 * digit words, rows) words by layout row


@functools.cache
def _number_tables(digits: int) -> _Tables:
    """The tables of :func:`_print_numbers` at 6 or 17 digits, built on first use.

    A number x != 0 of decimal exponent e is printed from its P digits,
    Q = round(|x| * 10**(P - 1 - e)) in [10**(P - 1), 10**P), held as
    words of ASCII digits by the plan in ``_PLANS``.  Its layout row,
    2 + 2 * (P * class + s - 1) + (x < 0), says how the row's words are
    made from them: class 0 is exponent notation, classes 1 .. P + 4 fixed
    notation for e = -4 .. P - 1, and s is the count of digits up to the
    last nonzero one.  Row 0 prints exact zero and row 1 nothing, for a
    number left to ``format``.
    """
    plan, exponent_word, exponent_byte = _PLANS[digits]
    # 10**(P - 1 - e) for e = _E_LO .. _E_HI as a double-double (power, rest):
    # the power is a ratio of Python integers, correctly rounded, and the
    # rest its remainder, rounded, so each pair is within 2**-106 of its power.
    power, rest = [], []
    for k in range(digits - 1 - _E_LO, digits - 2 - _E_HI, -1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        power.append(num / den)
        top, bottom = power[-1].as_integer_ratio()
        rest.append((num * bottom - top * den) / (den * bottom))
    power, rest = np.array(power), np.array(rest)
    power[[0, -1]] = rest[[0, -1]] = 0  # no number whose exponent is clamped passes
    power_hi, power_lo = _split(power)

    e = np.arange(_E_LO, _E_HI + 1)
    fixed = (e >= -4) & (e < digits)
    base = 2 * digits * np.where(fixed, e + 5, 0)
    # "e", the sign and two or three digits.  The top row prints the
    # exponent of a number that rounds up to the next power of ten.
    exponent = np.array([int.from_bytes(f"e{n:+03d}".encode(), "little") << 8 * exponent_byte
                         for n in e.tolist()], dtype=np.uint64)
    exponent[fixed] = exponent[0] = 0  # fixed notation and zero print none

    # Digit groups, the first digit in byte 0, from the four-digit ones: ASCII
    # text, and the count of digits up to the last nonzero one (0 for zeros).
    groups = [f"{i:04d}" for i in range(10 ** 4)]
    ascii4 = np.frombuffer("".join(groups).encode(), dtype="<u4").astype(np.uint64)
    last4 = np.array([len(g.rstrip("0")) for g in groups])
    ascii, significant, place = [], [], 0
    for sizes in plan:
        offset = 0
        for size in sizes:
            text = ascii4[:10 ** size] >> np.uint64(8 * (4 - size))
            ascii.append(text << np.uint64(8 * offset))
            last = np.maximum(last4[:10 ** size] - (4 - size), 0)
            significant.append(np.where(last > 0, last + place + offset, 0))
            offset += size
        place += offset

    # Layout words of each (class, s): the literal word (prefix "0." and
    # zeros of fixed notation below 1, the sign added below), and for
    # each digit word the mask of its digits that stay where they are,
    # the mask of those moved up one byte to make room for the dot, and
    # the dot.  Fixed notation keeps every digit before the dot, 0 or not.
    klass = np.repeat(np.arange(digits + 5), digits)
    s = np.tile(np.arange(1, digits + 1), digits + 5)
    lead = np.where(klass == 0, 1, np.where(klass < 5, 0, klass - 4))[:, None]
    keep = np.where(klass >= 5, np.maximum(s, lead[:, 0]), s)[:, None]
    width = np.array([sum(sizes) for sizes in plan])
    start = np.cumsum(width) - width
    one = np.uint64(1)
    kept = (one << (8 * np.clip(keep - start, 0, width)).astype(np.uint64)) - one
    # The dot follows digit lead - 1, at byte lead - start of its word.
    dotted = (keep > lead) & (lead > 0) & (start < lead) & (lead <= start + width)
    at_dot = (8 * np.where(dotted, lead - start, 0)).astype(np.uint64)
    stay = np.where(dotted, (one << at_dot) - one, ~np.uint64(0))
    prefix = np.array([0] + [int.from_bytes(b"0." + b"0" * (4 - c), "little") << 8
                             for c in range(1, 5)] + [0] * digits, dtype=np.uint64)
    layout = np.zeros((1 + 3 * len(plan), 2 + 2 * len(klass)), dtype=np.uint64)
    layout[0, 0] = ord("0")
    layout[:, 2::2] = layout[:, 3::2] = np.concatenate(
        [prefix[klass][None], (kept & stay).T, (kept & ~stay).T,
         np.where(dotted, np.uint64(ord(".")) << at_dot, 0).T.astype(np.uint64)])
    layout[0, 3::2] |= np.uint64(ord("-"))
    tables = _Tables(digits, power, power_hi, power_lo, rest, base, exponent, exponent_word,
                     plan, tuple(ascii), tuple(significant), layout)
    for table in (*tables[1:7], *tables.ascii, *tables.significant, layout):
        table.flags.writeable = False
    return tables


_PUNCTUATION = np.array([int.from_bytes(text, "little") for text in (b",", b"],[", b"]],[[", _MARK)],
                        dtype=np.uint64)


@functools.lru_cache(maxsize=2)  # full slices and the last, where 2 * dim**2 divides a slice
def _punctuation(dim: int, start: int, count: int) -> np.ndarray:
    """The punctuation words after entries ``start .. start + count`` of a
    stream of dim x dim matrices: "," after a real part, "],[" after an
    imaginary part, "]],[[" at the end of a row, ``_MARK`` at the end of a matrix."""
    k = np.arange(start, start + count) % (2 * dim * dim)
    code = k & 1
    code += k % (2 * dim) == 2 * dim - 1
    code += k == 2 * dim * dim - 1
    out = _PUNCTUATION[code]
    out.flags.writeable = False
    return out


def _scaled(ax: np.ndarray, tables: _Tables) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exponent row, a mask of the numbers decided, and their P digits.

    The digits are Q = round(|x| * 10**(P - 1 - e)), e = floor(log10(|x|)),
    computed to within 1e-13 on a value below 1e17 (a double-double at 17
    digits, one rounded product at 6), so they are the digits of x wherever
    that is farther than 2**-30 from a rounding tie.  A Q of 10**P, x rounded
    up to the next power of ten, becomes 10**(P - 1) at exponent e + 1.  Left
    undecided are the numbers near a tie, NaN, inf, those of |x| outside
    about [1e-280, 1e290), whose tables or Dekker splits would leave the
    float range, and those whose exponent ``log10`` put one off farther than
    the rounding; their Q is 10**(P - 1) + 1.  The exponent row is clipped
    to the tables only where it is read.
    """
    low, high = 10 ** (tables.digits - 1), 10 ** tables.digits
    with np.errstate(all="ignore"):  # log10(0), overflows past 1e290, casts of the undecided
        e = np.log10(ax)
        e -= _E_LO
        e = e.astype(np.intp)  # floor(log10(|x|)) - _E_LO where that is positive
        # |x| * 10**(P - 1 - e) = r + t with r an integer.  Where log10 gave e
        # one too high, r + t >= 10**(P - 1) - 0.04 rounds to the same digits
        # at both exponents; where one too low, Q = 10**P does.
        p = ax * tables.power.take(e, mode="clip")
        r = np.rint(p)
        t = p - r
        q = r.astype(np.int64)
        if tables.digits > 6:  # p is off by up to 10**P * 2**-53: correct t
            ax_hi, ax_lo = _split(ax)
            power_hi = tables.power_hi.take(e, mode="clip")
            power_lo = tables.power_lo.take(e, mode="clip")
            error = ax_hi * power_hi - p
            error += ax_hi * power_lo
            error += ax_lo * power_hi
            error += ax_lo * power_lo
            error += ax * tables.power_rest.take(e, mode="clip")
            t += error
            ok = (r - low) + t >= -0.04
            ok &= (r - high) + t < 0.5
            step = np.rint(t)
            t -= step
            q += step.astype(np.int64)
        else:  # p itself is within 2.3e-10
            ok = p >= low - 0.04
            ok &= p < high + 0.5
        ok &= np.abs(t) < 0.5 - 2.0 ** -30
    q = np.where(ok, q, low + 1)
    up = np.flatnonzero(q == high)
    q[up] = low
    e[up] += 1
    return e, ok, q


def _digit_words(q: np.ndarray, tables: _Tables) -> tuple[np.ndarray, np.ndarray]:
    """The P digits ``q`` as the plan's words of ASCII digits, and the count
    of digits up to the last nonzero one."""
    groups = [q]
    for size in [*itertools.chain(*tables.sizes)][:0:-1]:  # split off groups from the right
        high = groups[-1] // 10 ** size
        groups[-1] -= high * 10 ** size
        groups.append(high)
    groups.reverse()
    digits = np.empty((len(tables.sizes), q.size), dtype=np.uint64)
    j = 0
    for word, count in zip(digits, map(len, tables.sizes)):
        tables.ascii[j].take(groups[j], out=word)
        for k in range(j + 1, j + count):
            word |= tables.ascii[k].take(groups[k])
        j += count
    s = tables.significant[-1][groups[-1]]
    short = np.flatnonzero(s == 0)  # the last group is all zeros
    if short.size:
        s[short] = np.max([table[group[short]] for table, group
                           in zip(tables.significant[:-1], groups[:-1])], axis=0)
    return digits, s


def _print_numbers(x: np.ndarray, digits: int, separators: np.ndarray) -> bytes:
    """The numbers ``x`` as ``format(v, f".{digits}g")`` each, 6 or 17
    digits, followed by its word of ``separators``.

    Each number becomes a row of words: the sign and the "0.000" prefix,
    the words of digits with the dot moved in, the exponent, and a last
    word, into whose free bytes the separator is or'ed; dropping the zero
    bytes leaves the text.  ``format`` prints the numbers that
    :func:`_scaled` leaves undecided; their text ends before the separator.
    """
    tables = _number_tables(digits)
    ax = np.abs(x)
    e, ok, q = _scaled(ax, tables)
    digit_words, s = _digit_words(q, tables)
    s *= 2
    s += tables.base.take(e, mode="clip")
    s += x < 0
    row = np.where(ok, s, ax != 0)
    layout = tables.layout.take(row, axis=1)
    k = len(digit_words)
    rows = np.empty((x.size, k + 2), dtype="<u8")
    words = rows.T
    words[0] = layout[0]
    kept = digit_words & layout[1:k + 1]
    digit_words &= layout[k + 1:2 * k + 1]
    digit_words <<= np.uint64(8)
    kept |= digit_words
    np.bitwise_or(kept, layout[2 * k + 1:], out=words[1:k + 1])
    words[-1] = separators
    words[tables.exponent_word] |= tables.exponent.take(e, mode="clip")
    for i in np.flatnonzero(row == 1).tolist():
        text = format(float(x[i]), f".{digits}g").encode("ascii")
        words[:, i] = np.frombuffer(text.ljust(8 * len(words), b"\0"), dtype="<u8")
        words[-1, i] |= separators[i]
    return rows.tobytes().translate(None, b"\0")


def _print_matrices(matrices: list, dim: int):
    """Yield the text of ``matrices``, flat arrays of the numbers of dim x
    dim matrices, as :func:`_print_numbers` prints them, ``_SLICE_NUMBERS``
    numbers at a time."""
    pieces, filled, printed = [], 0, 0
    for numbers in matrices:
        start = 0
        while start < numbers.size:
            piece = numbers[start:start + _SLICE_NUMBERS - filled]
            pieces.append(piece)
            filled += piece.size
            start += piece.size
            if filled == _SLICE_NUMBERS:
                x = np.concatenate(pieces)
                x += 0.0  # -0.0 prints as 0, so reparsing reproduces the bytes
                yield _print_numbers(x, 17, _punctuation(dim, printed % (2 * dim * dim), x.size))
                pieces, filled, printed = [], 0, printed + filled
    if pieces:
        x = np.concatenate(pieces)
        x += 0.0
        yield _print_numbers(x, 17, _punctuation(dim, printed % (2 * dim * dim), x.size))


def _numbers(m, dim: int, field: str) -> np.ndarray:
    """The numbers of the dim x dim matrix ``m`` at ``field``, real before
    imaginary, as a flat float array; raises ValueError naming another
    shape or the first non-finite number."""
    m = np.ascontiguousarray(m, dtype=complex)
    if m.shape != (dim, dim):
        raise ValueError(f"cannot serialize {field}: shape {m.shape} is not ({dim}, {dim})")
    numbers = m.view(np.float64).ravel()
    finite = np.isfinite(numbers)
    if not finite.all():
        raise ValueError(f"cannot serialize non-finite number {float(numbers[~finite][0])}")
    return numbers


def _time_text(t) -> str:
    """A time or breakpoint; raises ValueError if it is not finite."""
    t = float(t) + 0.0
    if not math.isfinite(t):
        raise ValueError(f"cannot serialize non-finite number {t}")
    return format(t, ".17g")


def _dynamics_to_json(evolution: EvolutionProvider, dim: int, matrices: list) -> str:
    """The dynamics object, with ``_MATRIX`` for each matrix, appended to ``matrices``."""
    if isinstance(evolution, TrivialEvolution):
        return '{"kind":"trivial"}'
    if isinstance(evolution, ConstantHamiltonian):
        matrices.append(_numbers(evolution.hamiltonian, dim, "dynamics.hamiltonian"))
        return '{"hamiltonian":%s,"kind":"hamiltonian"}' % _MATRIX
    if isinstance(evolution, PiecewiseUnitary):
        breakpoints = ",".join(map(_time_text, evolution.breakpoints))
        matrices.extend(_numbers(u, dim, f"dynamics.unitaries[{i}]")
                        for i, u in enumerate(evolution.unitaries))
        return ('{"breakpoints":[%s],"kind":"unitary_table","unitaries":[%s]}'
                % (breakpoints, ",".join([_MATRIX] * len(evolution.unitaries))))
    raise ValueError(
        f"cannot serialize evolution provider of type {type(evolution).__name__}")


def _records_to_json(family: BranchingFamily, matrices: list) -> str:
    """The node records, with ``_MATRIX`` for each projector, appended to ``matrices``.

    Raises ValueError naming the first node the reader would refuse or the
    first non-finite number, node by node in canonical order.
    """
    nodes, dim = family._nodes, family.dim
    children = nodes.parent != -1
    kinds = children.tolist()
    if nodes.misfits or not (np.isfinite(nodes.projectors).all()
                             and np.isfinite(nodes.time).all()):
        for m in family._views(range(len(kinds))):  # projectors may be nested lists
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
                matrices.append(_numbers(m.projector, dim, f"node {m.id}"))
            _time_text(m.time)
    else:  # each run of consecutive children is one block of the stack
        stack = nodes.projectors.reshape(len(kinds), -1).view(np.float64)
        cuts = [0, *(np.flatnonzero(children[1:] != children[:-1]) + 1).tolist(), len(kinds)]
        matrices.extend(stack[a:b].ravel() for a, b in zip(cuts, cuts[1:]) if kinds[a])
    args = []
    for r, p, time in zip(range(len(kinds)), nodes.parent.tolist(), nodes.time.tolist()):
        args.append(nodes.ids[r])
        if p != -1:
            args.append(nodes.parent_id(r, p))
        args.append(format(time + 0.0, ".17g"))
    child = '{"id":%d,"parent":%d,"projector":' + _MATRIX + ',"time":%s}'
    return ",".join([child if c else '{"id":%d,"time":%s}' for c in kinds]) % tuple(args)


def serialize_family(family: BranchingFamily) -> bytes:
    """Canonical UTF-8 document for ``family``.

    Raises ValueError naming the first non-finite number in canonical
    order, or the first matrix or node the reader would refuse: a state,
    dynamics matrix or projector that is not ``dim`` x ``dim``, a child
    without a projector, or a root with one.
    """
    dim, matrices = family.dim, []
    dynamics = _dynamics_to_json(family.evolution, dim, matrices)
    if np.array_equal(family.initial_state, np.eye(dim, dtype=complex) / dim):
        state = '"maximally_mixed"'
    else:
        matrices.append(_numbers(family.initial_state, dim, "initial_state"))
        state = _MATRIX
    nodes = _records_to_json(family, matrices)
    gaps = iter(('{"dim":%d,"dynamics":%s,"initial_state":%s,"nodes":[%s]}'
                 % (dim, dynamics, state, nodes)).encode("utf-8").split(_MARK))
    out = io.BytesIO()
    out.write(next(gaps))
    for text in _print_matrices(matrices, dim):
        *ended, rest = text.split(_MARK)
        out.writelines(itertools.chain.from_iterable(zip(ended, gaps)))
        out.write(rest)
    return out.getvalue()


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


# A child projector as ``serialize_family`` writes it, from its key on; the
# string that stands for its text once cut out, "\u0000", which no document
# without a backslash holds; and the bytes of the numbers in its text.
_COMPACT_PROJECTOR = b'"projector":[[['
_KEY_LENGTH = len(b'"projector":')
_CUT = "\0"
_PLACEHOLDER = b'"\\u0000"'
_NUMBER_BYTES = b"0123456789+-.eE"
_BLANK_BRACKETS = bytes.maketrans(b"[]", b"  ")


class _NotThisRoute(Exception):
    """A document the route at hand does not read; the next route reads it."""


@functools.lru_cache(maxsize=2)
def _matrix_punctuation(dim: int) -> bytes:
    """The text of a dim x dim matrix as ``serialize_family`` writes it, its numbers deleted."""
    row = b"[" + b",".join([b"[,]"] * dim) + b"]"
    return b"[" + b",".join([row] * dim) + b"]"


def _cut_numbers(texts: list, placeholders: list, dim: int) -> np.ndarray:
    """The numbers of the projector ``texts`` cut out of a document, as one
    flat array, matrix after matrix, for the node list's ``placeholders``.

    Raises :class:`_NotThisRoute` unless the node list holds exactly one
    placeholder for each text, every text is a dim x dim matrix with the
    punctuation of ``serialize_family``, every number is one ``orjson``
    reads and every number is finite.  The lengths are compared before any
    text that grows with ``dim`` is built.
    """
    n = len(texts)
    if len(placeholders) != n or placeholders.count(_CUT) != n:
        raise _NotThisRoute
    text = bytearray(b",").join(texts)
    punctuation = text.translate(None, _NUMBER_BYTES)
    if (len(punctuation) != n * (4 * dim * dim + 2 * dim + 2) - 1
            or punctuation != b",".join(itertools.repeat(_matrix_punctuation(dim), n))):
        raise _NotThisRoute
    # One flat list: the brackets become blanks but the first and the last.
    numbers = text.translate(_BLANK_BRACKETS)
    numbers[0], numbers[-1] = text[0], text[-1]
    out = np.empty(2 * n * dim * dim)
    try:
        out[:] = orjson.loads(numbers)
    except (orjson.JSONDecodeError, OverflowError):
        raise _NotThisRoute from None
    if not np.isfinite(out).all():
        raise _NotThisRoute
    return out


def _read_text(data, tol: float) -> BranchingFamily:
    """The text route: cut the compact child projectors out of ``data``,
    parse the rest with orjson and read the projectors' numbers flat."""
    start = data.find(_COMPACT_PROJECTOR)
    if start == -1 or b"\\" in data:
        raise _NotThisRoute
    view, gaps, texts, end = memoryview(data), [], [], 0
    while start != -1:
        start += _KEY_LENGTH
        # The matrix ends at the last "]]]" before the next quote, or the end.
        quote = data.find(b'"', start)
        stop = data.rfind(b"]]]", start, len(data) if quote == -1 else quote) + 3
        if stop == 2:
            raise _NotThisRoute
        gaps.append(view[end:start])
        texts.append(view[start:stop])
        end, start = stop, data.find(_COMPACT_PROJECTOR, stop)
    gaps.append(view[end:])
    if not _nests_shallowly(b"0".join(gaps)):
        raise _NotThisRoute
    return _family_from(orjson.loads(_PLACEHOLDER.join(gaps)), tol,
                        functools.partial(_cut_numbers, texts))


def _read_tree(data, tol: float) -> BranchingFamily:
    """The tree route: parse all of ``data`` with orjson."""
    if not _nests_shallowly(data):
        raise _NotThisRoute
    return _family_from(orjson.loads(data), tol)


def load_document(text: bytes | str, tol: float = DEFAULT_TOL) -> BranchingFamily:
    """Parse a family document, checking syntax and schema but not semantics.

    The returned family may still fail :meth:`BranchingFamily.validate`;
    use :func:`parse_family` when only valid families are acceptable.
    """
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    if isinstance(data, (bytes, bytearray)):
        # The decoded tree holds no cycles and is dropped before return, so
        # the cyclic collector would only walk its many small lists.
        collecting = gc.isenabled()
        gc.disable()
        try:
            for read in (_read_text, _read_tree):
                try:
                    return read(data, tol)
                except (_NotThisRoute, orjson.JSONDecodeError, ParseError):
                    pass  # the next route reads it; json names the error
        finally:
            if collecting:
                gc.enable()
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


def _family_from(doc, tol: float, projector_numbers=_stack_numbers) -> BranchingFamily:
    """The family a decoded document describes, or the ParseError of its first bad field.

    ``projector_numbers(projectors, dim)`` reads the child projectors'
    numbers for :func:`_nodes_in_bulk`.
    """
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
    nodes = _nodes_in_bulk(raw_nodes, dim, projector_numbers)
    if nodes is None:
        _nodes_one_by_one(raw_nodes, dim)
    return BranchingFamily._trusted(dim, nodes, state, evolution)


def _nodes_in_bulk(raw_nodes: list, dim: int, projector_numbers) -> _Nodes | None:
    """The node store of a node list, or None if any node fails a check.

    Checks every node at once: each is an object with the keys of a root
    (``id``, ``time``) or of a child (also ``parent`` and ``projector``),
    ids are distinct integers, parents integers, times finite numbers, and
    ``projector_numbers(projectors, dim)`` reads all child projectors as
    one array, copied into the store's (N, dim, dim) stack, whose rows for
    the roots stay zero.  Raises a ParseError at ``nodes`` if those zero
    rows would take more than ``MAX_MATRIX_BYTES``, before the stack is
    allocated.
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
    numbers = projector_numbers(projectors, dim)
    if numbers is None or not np.isfinite(times).all():
        return None
    roots = len(raw_nodes) - len(children)
    zero_bytes = roots * np.dtype(complex).itemsize * dim * dim
    if zero_bytes > MAX_MATRIX_BYTES:
        raise _schema("nodes", f"the zero projector rows of {roots} nodes without a parent "
                               f"take {zero_bytes} bytes, above the limit of {MAX_MATRIX_BYTES}")
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
