"""Document round trips, parse failures and Graphviz export."""

import gc
import itertools
import json
import math
import struct
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import (
    HOSTILE_DOCUMENTS,
    OUT_OF_RANGE,
    PROVIDER_KINDS,
    families_equal,
    load_nodes,
    random_decomposition,
    random_density,
    random_family,
    random_provider,
    run_capped,
)
from helpers import export_dot as oracle_export_dot
from qhistories import (
    BranchingFamily,
    ConstantHamiltonian,
    PiecewiseUnitary,
    InvalidFamilyError,
    Moment,
    ParseError,
    TrivialEvolution,
    embed_family,
    export_dot,
    from_product,
    load_document,
    new_family,
    parse_family,
    serialize_family,
    weight_table,
)
from qhistories import fileio
from qhistories.demos import (
    P0, P1, P_MINUS, P_PLUS, branch_no_prod_family, fig2_family, isham_reversed_family,
)
from qhistories.fileio import MAX_MATRIX_BYTES


# -- round trips -------------------------------------------------------------

@pytest.mark.parametrize("make", [fig2_family, branch_no_prod_family,
                                  isham_reversed_family])
def test_demo_round_trip(make):
    fam = make()
    blob = serialize_family(fam)
    back = parse_family(blob)
    assert families_equal(fam, back)
    assert serialize_family(back) == blob


@pytest.mark.parametrize("seed", range(9))
def test_random_round_trip_is_a_fixed_point(seed):
    rng = np.random.default_rng(8200 + seed)
    fam = random_family(rng)
    blob = serialize_family(fam)
    back = parse_family(blob)
    assert families_equal(fam, back)
    # Canonical bytes: a second pass reproduces the first exactly.
    assert serialize_family(back) == blob


def test_serialized_document_is_plain_json():
    blob = serialize_family(fig2_family())
    doc = json.loads(blob)
    assert set(doc) == {"dim", "dynamics", "initial_state", "nodes"}
    assert doc["dim"] == 3
    assert len(doc["nodes"]) == 8
    assert doc["nodes"][0] == {"id": 0, "time": 0.0}


def test_maximally_mixed_state_uses_the_literal():
    fam = new_family(3, 0.0)
    blob = serialize_family(fam)
    assert b'"initial_state":"maximally_mixed"' in blob
    back = parse_family(blob)
    assert np.array_equal(back.initial_state, np.eye(3) / 3)


def test_nearly_mixed_state_is_written_out():
    state = np.diag([0.5 + 1e-13, 0.5 - 1e-13]).astype(complex)
    fam = new_family(2, 0.0, initial_state=state)
    blob = serialize_family(fam)
    assert b"maximally_mixed" not in blob
    assert np.array_equal(parse_family(blob).initial_state, state)


def test_seventeen_digit_floats_survive():
    t = 0.1 + 0.2  # 0.30000000000000004, needs all 17 digits
    fam = new_family(2, t).extend(0, [P0, P1], [t + 1 / 3, t + 1 / 3])
    back = parse_family(serialize_family(fam))
    assert back.root().time == t
    assert back.moment(1).time == t + 1 / 3


def test_negative_zero_is_normalized():
    state = np.array([[1.0, -0.0], [0.0, 0.0]], dtype=complex)
    fam = new_family(2, 0.0, initial_state=state)
    blob = serialize_family(fam)
    assert b"-0" not in blob
    assert serialize_family(parse_family(blob)) == blob


# -- codec oracle: the per-entry emitter and parser the bulk codec replaced ---

def _reference_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x}")
    if x == 0.0:
        x = 0.0
    return format(x, ".17g")


def _reference_canonical(obj) -> str:
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _reference_float(obj)
    if isinstance(obj, list):
        return "[" + ",".join(_reference_canonical(v) for v in obj) + "]"
    items = sorted(obj.items())
    return "{" + ",".join(f"{json.dumps(k)}:{_reference_canonical(v)}" for k, v in items) + "}"


def _reference_matrix(m) -> list:
    return [[[float(entry.real), float(entry.imag)] for entry in row]
            for row in np.asarray(m, dtype=complex)]


def _reference_serialize(family) -> bytes:
    dim = family.dim
    if np.array_equal(family.initial_state, np.eye(dim, dtype=complex) / dim):
        state = "maximally_mixed"
    else:
        state = _reference_matrix(family.initial_state)
    evolution = family.evolution
    if isinstance(evolution, ConstantHamiltonian):
        dynamics = {"kind": "hamiltonian",
                    "hamiltonian": _reference_matrix(evolution.hamiltonian)}
    elif isinstance(evolution, PiecewiseUnitary):
        dynamics = {"kind": "unitary_table",
                    "breakpoints": [float(t) for t in evolution.breakpoints],
                    "unitaries": [_reference_matrix(u) for u in evolution.unitaries]}
    else:
        dynamics = {"kind": "trivial"}
    nodes = []
    for m in family.moments:
        node = {"id": int(m.id), "time": float(m.time)}
        if m.parent is not None:
            node["parent"] = int(m.parent)
        if m.projector is not None:
            node["projector"] = _reference_matrix(m.projector)
        nodes.append(node)
    doc = {"dim": dim, "initial_state": state, "dynamics": dynamics, "nodes": nodes}
    return _reference_canonical(doc).encode("utf-8")


def _reference_parse_matrix(value, dim: int) -> np.ndarray:
    out = np.empty((dim, dim), dtype=complex)
    for i, row in enumerate(value):
        for j, (re, im) in enumerate(row):
            out[i, j] = complex(float(re), float(im))
    return out


def _assert_parses_like_the_reference(text):
    """Every matrix load_document returns is the per-entry parse, bit for bit."""
    doc = json.loads(text)
    family = load_document(text)
    pairs = [(m.projector, n["projector"])
             for m, n in zip(family.moments, doc["nodes"]) if "projector" in n]
    if isinstance(doc["initial_state"], list):
        pairs.append((family.initial_state, doc["initial_state"]))
    dynamics = doc["dynamics"]
    if dynamics["kind"] == "hamiltonian":
        pairs.append((family.evolution.hamiltonian, dynamics["hamiltonian"]))
    if dynamics["kind"] == "unitary_table":
        pairs.extend(zip(family.evolution.unitaries, dynamics["unitaries"]))
    assert pairs
    for got, value in pairs:
        want = _reference_parse_matrix(value, doc["dim"])
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()  # bit-identical, -0.0 included


# Dimensions 1-32; larger ones get shallower trees to keep the matrix count small.
@pytest.mark.parametrize("dim,depth", [(1, 3), (2, 3), (3, 3), (4, 2), (8, 1),
                                       (16, 1), (32, 1)])
@pytest.mark.parametrize("kind", PROVIDER_KINDS)
def test_codec_matches_the_per_entry_reference(dim, depth, kind):
    rng = np.random.default_rng(9100 + 7 * dim + PROVIDER_KINDS.index(kind))
    explicit = random_family(rng, dim=dim, max_depth=depth, kind=kind,
                             stop_probability=0.1)
    mixed = BranchingFamily(dim, explicit.moments, np.eye(dim, dtype=complex) / dim,
                            explicit.evolution)
    for fam in (explicit, mixed):
        blob = serialize_family(fam)
        assert blob == _reference_serialize(fam)
        _assert_parses_like_the_reference(blob)
    assert b"maximally_mixed" in serialize_family(mixed)


def test_codec_hand_set_entries():
    state = np.array([[-0.0, 5e-324 - 0.0j], [1e300, complex(1e-17, -0.0)]])
    projector = np.array([[complex(-0.0, -0.0), -5e-324], [-1e300j, 0.1 + 0.2]])
    fam = BranchingFamily(
        2, [Moment(0, None, -0.0, None), Moment(1, 0, 1e-17, projector)],
        state, TrivialEvolution(2))
    blob = serialize_family(fam)
    assert blob == _reference_serialize(fam)
    assert b"-0," not in blob and b"-0]" not in blob
    assert b"4.9406564584124654e-324" in blob and b"1.0000000000000001e+300" in blob
    _assert_parses_like_the_reference(blob)
    assert serialize_family(load_document(blob)) == blob


def test_codec_reads_integers_and_signed_zeros_bit_for_bit():
    # JSON integers, as in the README's [1, 0], -0 and -0.0 literals, and
    # integers past 2**53 and 2**64 that float() must round the same way.
    state = [[[1, 0], [-0.0, -0.0]], [[2 ** 53 + 1, 2 ** 64 + 1], [-(2 ** 70) - 1, 0.5]]]
    text = _doc(initial_state=state).replace("[-0.0, -0.0]", "[-0, -0.0]")
    assert "[-0, -0.0]" in text
    _assert_parses_like_the_reference(text)
    _assert_parses_like_the_reference(_doc())
    loaded = load_document(text).initial_state
    assert math.copysign(1.0, loaded[0, 1].imag) == -1.0
    assert math.copysign(1.0, loaded[0, 1].real) == 1.0


@pytest.mark.parametrize("entry,message", [
    (complex(0, math.inf), "inf"),
    (complex(-math.inf, 0), "-inf"),
    (complex(math.nan, 1), "nan"),
])
def test_non_finite_projector_is_not_serialized(entry, message):
    projector = np.array([[1, entry], [math.nan, 0]], dtype=complex)
    fam = BranchingFamily(
        2, [Moment(0, None, 0.0, None), Moment(1, 0, 1.0, projector)],
        np.eye(2, dtype=complex) / 2, TrivialEvolution(2))
    with pytest.raises(ValueError) as exc:
        serialize_family(fam)
    assert str(exc.value) == f"cannot serialize non-finite number {message}"


def test_codec_signed_zero_and_integer_times():
    for root_time in (-0.0, 0.0, 0, 3):
        fam = BranchingFamily(
            2, [Moment(0, None, root_time, None),
                Moment(1, 0, 1.0, P0), Moment(2, 0, 2, P1),
                Moment(3, 1, -0.0, P0), Moment(4, 1, 7.0, P1)],
            np.eye(2, dtype=complex) / 2, TrivialEvolution(2))
        blob = serialize_family(fam)
        assert blob == _reference_serialize(fam)
        assert b"-0" not in blob
        back = load_document(blob)
        assert [m.time for m in back.moments] == [root_time, 1.0, 2.0, 0.0, 7.0]
        assert all(type(m.time) is float for m in back.moments)
        assert serialize_family(back) == blob


def test_codec_node_ids_beyond_32_and_64_bits():
    ids = [2 ** 31 + 5, 2 ** 40, 2 ** 63 + 1, 2 ** 64 * 3]
    fam = BranchingFamily(
        2, [Moment(ids[0], None, 0.0, None), Moment(ids[1], ids[0], 1.0, P0),
            Moment(ids[2], ids[0], 1.0, P1), Moment(ids[3], ids[2], 2.0, P0)],
        np.eye(2, dtype=complex) / 2, TrivialEvolution(2))
    blob = serialize_family(fam)
    assert blob == _reference_serialize(fam)
    assert str(2 ** 64 * 3).encode() in blob
    back = load_document(blob)
    assert [(m.id, m.parent) for m in back.moments] == [
        (ids[0], None), (ids[1], ids[0]), (ids[2], ids[0]), (ids[3], ids[2])]
    assert families_equal(fam, back)
    assert serialize_family(back) == blob


@pytest.mark.parametrize("numbers", [1, 40, 1000])
def test_node_list_in_slices_matches_the_reference(numbers, monkeypatch):
    monkeypatch.setattr(fileio, "_SLICE_NUMBERS", numbers)
    rng = np.random.default_rng(9300 + numbers)
    fam = random_family(rng, dim=2, max_depth=4, stop_probability=0.0)
    blob = serialize_family(fam)
    assert blob == _reference_serialize(fam)
    _assert_parses_like_the_reference(blob)
    # A bad entry in the last slice is named as the node-by-node reader names it.
    doc = json.loads(blob)
    doc["nodes"][-1]["projector"][1][0][1] = OUT_OF_RANGE
    text = json.dumps(doc)
    with pytest.raises(ParseError) as exc:
        load_document(text)
    with pytest.raises(ParseError) as want:
        load_nodes(doc["nodes"], 2)
    assert (exc.value.field, exc.value.message) == (want.value.field, want.value.message)
    assert exc.value.field == f"nodes[{len(doc['nodes']) - 1}].projector[1][0][1]"
    # A non-finite number in the last slice is still named.
    with pytest.raises(ValueError, match="non-finite number inf"):
        serialize_family(_with_time(fam, fam.moments[-1].id, math.inf))


def _with_time(fam: BranchingFamily, node_id: int, time: float) -> BranchingFamily:
    """``fam`` with one node's time replaced in its node store.

    Every constructor refuses a non-finite time; this plants one, so that
    the writer's own check of times stays tested.
    """
    nodes = fam._nodes
    times = nodes.time.copy()
    times[nodes.row[node_id]] = time
    return BranchingFamily._trusted(fam.dim, nodes._replace(time=times),
                                    fam.initial_state, fam.evolution)


def test_codec_writes_projectors_of_another_type_and_refuses_another_shape():
    def family(projectors):
        moments = [Moment(0, None, 0.0, None)] + [
            Moment(i + 1, 0, 1.0, p) for i, p in enumerate(projectors)]
        return BranchingFamily(2, moments, np.eye(2, dtype=complex) / 2, TrivialEvolution(2))

    # Nested lists and real or integer dtypes print as complex arrays do.
    for projectors in ([P0.tolist(), P1], [P0.real, P1.real.astype(int)]):
        assert serialize_family(family(projectors)) == _reference_serialize(family(projectors))
    # Other shapes make documents the reader refuses, so they are not written.
    big, tall, flat = np.eye(4, dtype=complex), np.ones((4, 2)), P0.reshape(1, 4)
    for projectors, node, shape in [([big, big, big], 1, (4, 4)), ([P0, big, P1], 2, (4, 4)),
                                    ([tall, tall, tall, tall], 1, (4, 2)),
                                    ([P0, P1, flat], 3, (1, 4)),
                                    ([P0, np.eye(3).tolist()], 2, (3, 3)),
                                    ([P0, [[1, 0], [0]]], 2, "(2,) + ragged")]:
        with pytest.raises(ValueError) as exc:
            serialize_family(family(projectors))
        assert str(exc.value) == f"cannot serialize node {node}: projector shape {shape} is not (2, 2)"


def test_codec_refuses_a_state_or_dynamics_matrix_of_another_dimension():
    # One printer prints every matrix of a document at its dim, and the
    # reader refuses such a document, so it is not written.
    root = [Moment(0, None, 0.0, None)]
    for state, provider, message in [
        (np.eye(3) / 3, TrivialEvolution(2), "initial_state: shape (3, 3)"),
        (np.eye(2) / 2, ConstantHamiltonian(np.eye(3)), "dynamics.hamiltonian: shape (3, 3)"),
        (np.eye(2) / 2, PiecewiseUnitary([0.0, 1.0, 2.0], [np.eye(4), np.eye(4)]),
         "dynamics.unitaries[0]: shape (4, 4)"),
    ]:
        with pytest.raises(ValueError) as exc:
            serialize_family(BranchingFamily(2, root, state, provider))
        assert str(exc.value) == f"cannot serialize {message} is not (2, 2)"


@pytest.mark.parametrize("moments,message", [
    ([Moment(0, None, 0.0, P0), Moment(1, 0, 1.0, P0), Moment(2, 0, 1.0, P1)],
     "cannot serialize node 0: a node without a parent must not carry a projector"),
    ([Moment(0, None, 0.0, None), Moment(1, 0, 1.0, P0), Moment(2, 0, 1.0, None)],
     "cannot serialize node 2: a node with a parent must carry a projector"),
], ids=["root-with-projector", "child-without-projector"])
def test_codec_refuses_node_kinds_the_reader_refuses(moments, message):
    fam = BranchingFamily(2, moments, np.eye(2, dtype=complex) / 2, TrivialEvolution(2))
    with pytest.raises(ValueError) as exc:
        serialize_family(fam)
    assert str(exc.value) == message


def _non_finite_family(where: dict) -> BranchingFamily:
    """A family with the given non-finite numbers planted, by location name.

    Locations in canonical order: ``dynamics`` (a Hamiltonian entry), or
    ``breakpoint`` and ``unitary`` (an entry of a unitary table, which
    then replaces the Hamiltonian), then ``state``, ``early`` (node 1's
    projector), ``time`` (node 1's time) and ``late`` (node 4's projector).
    """
    def planted(matrix, value):
        m = np.array(matrix, dtype=complex)
        if value is not None:
            m[-1, 0] = complex(0.5, value)
        return m

    if {"breakpoint", "unitary"} & set(where):
        provider = PiecewiseUnitary([0.0, 1.0, 2.0], [np.eye(2), np.diag([1.0, -1.0])])
        provider.breakpoints = (0.0, where.get("breakpoint", 1.0), 2.0)
        provider.unitaries = (provider.unitaries[0],
                              planted(provider.unitaries[1], where.get("unitary")))
    else:
        provider = ConstantHamiltonian(np.diag([1.0, -1.0]))
        provider.hamiltonian = planted(provider.hamiltonian, where.get("dynamics"))
    moments = [Moment(0, None, 0.0, None),
               Moment(1, 0, 1.0, planted(P0, where.get("early"))),
               Moment(2, 0, 1.0, P1), Moment(3, 1, 2.0, P0),
               Moment(4, 1, 2.0, planted(P1, where.get("late")))]
    state = planted(np.diag([0.75, 0.25]), where.get("state"))
    return _with_time(BranchingFamily(2, moments, state, provider), 1, where.get("time", 1.0))


_LOCATIONS = ("dynamics", "state", "early", "time", "late")
_TABLE_LOCATIONS = ("breakpoint", "unitary") + _LOCATIONS[1:]
_ORDER = _LOCATIONS[:1] + _TABLE_LOCATIONS


@pytest.mark.parametrize("where", _LOCATIONS + _TABLE_LOCATIONS[:2])
@pytest.mark.parametrize("value,message", [(math.nan, "nan"), (math.inf, "inf"),
                                           (-math.inf, "-inf")])
def test_one_non_finite_number_is_named(where, value, message):
    fam = _non_finite_family({where: value})
    for serialize in (_reference_serialize, serialize_family):
        with pytest.raises(ValueError) as exc:
            serialize(fam)
        assert str(exc.value) == f"cannot serialize non-finite number {message}"


@pytest.mark.parametrize("first,second", list(itertools.permutations(_LOCATIONS, 2)) + [
    pair for pair in itertools.permutations(_TABLE_LOCATIONS, 2)
    if {"breakpoint", "unitary"} & set(pair)])
def test_several_non_finite_numbers_report_the_first_in_canonical_order(first, second):
    fam = _non_finite_family({first: math.inf, second: -math.inf})
    with pytest.raises(ValueError) as want:
        _reference_serialize(fam)
    with pytest.raises(ValueError) as got:
        serialize_family(fam)
    assert str(got.value) == str(want.value)
    earlier = first if _ORDER.index(first) < _ORDER.index(second) else second
    expected = "inf" if earlier == first else "-inf"
    assert str(got.value) == f"cannot serialize non-finite number {expected}"


def test_all_non_finite_locations_at_once():
    values = [math.nan, math.inf, -math.inf, math.inf, math.nan, -math.inf]
    for locations in (_LOCATIONS, _TABLE_LOCATIONS):
        for shift in range(len(values)):
            planted = dict(zip(locations, values[shift:] + values[:shift]))
            fam = _non_finite_family(planted)
            with pytest.raises(ValueError) as want:
                _reference_serialize(fam)
            with pytest.raises(ValueError) as got:
                serialize_family(fam)
            assert str(got.value) == str(want.value)
    for clean in ({}, {"unitary": None}):
        assert serialize_family(_non_finite_family(clean)) == _reference_serialize(
            _non_finite_family(clean))


# -- the bulk number printer ---------------------------------------------------

def _reference_text(numbers, dim: int) -> bytes:
    """``numbers`` printed one by one as the printer prints a stream of
    dim x dim matrices: each entry with ``format`` and its punctuation,
    ``|`` after the last entry of each matrix."""
    period = 2 * dim * dim
    out = []
    for k, v in enumerate(np.asarray(numbers, dtype=float).tolist()):
        k %= period
        out.append(format(v + 0.0, ".17g"))
        out.append("|" if k == period - 1 else "]],[[" if k % (2 * dim) == 2 * dim - 1
                   else "],[" if k % 2 else ",")
    return "".join(out).encode()


def _printed(numbers, dim: int) -> bytes:
    return b"".join(fileio._print_matrices([np.asarray(numbers, dtype=float)], dim))


def _ties() -> list[float]:
    """Numbers exactly halfway between two 17-digit decimals, and their
    neighbours: (D + 1/2) * 10**-m for a 17-digit D, which is w / 2**(m + 1)
    with 2 D + 1 = w * 5**m, exact when w < 2**53."""
    out = []
    for m in range(2, 23):
        low = -(-2 * 10 ** 16 // 5 ** m) | 1
        for w in (low, low + 2 * 5 ** 7, (2 * 10 ** 17 // 5 ** m - 1) | 1):
            if w * 5 ** m < 2 * 10 ** 17 and w < 2 ** 53:
                tie = math.ldexp(w, -(m + 1))
                assert Fraction(tie) * 10 ** m % 1 == Fraction(1, 2)
                out += [tie, math.nextafter(tie, 0), math.nextafter(tie, math.inf)]
    return out


def _decade_round_ups() -> list[float]:
    """Floats just below a power of ten whose 17 digits round up to it,
    and their neighbours."""
    out = []
    for k in range(-307, 309):
        v, power = float(f"1e{k}"), Fraction(10) ** k
        if Fraction(v) < power and Fraction(format(v, ".17g")) == power:
            out += [v, math.nextafter(v, 0), math.nextafter(v, math.inf)]
    assert out
    return out


_POWERS = [v for k in range(-320, 309) for v in (
    float(f"1e{k}"), math.nextafter(float(f"1e{k}"), 0), math.nextafter(float(f"1e{k}"), math.inf))]
_HARD = _POWERS + _ties() + _decade_round_ups() + [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1 + 0.2]


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


_PRINTER_NUMBERS = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(_from_bits).filter(math.isfinite),
    st.sampled_from(_HARD),
    st.floats(1e290, 1.7976931348623157e308),
    st.floats(0.0, 1e-280),
    st.integers(-(2 ** 63), 2 ** 63).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
).flatmap(lambda v: st.sampled_from([v, -v]))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(values=st.lists(_PRINTER_NUMBERS, min_size=1, max_size=48),
       shape=st.sampled_from([(1, 1), (4095, 2), (4096, 3), (4097, 1), (2 * 64 * 64, 64)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_printer_matches_format_entry_by_entry(values, shape, seed):
    # Slices of 4096 numbers: one short, one exact, one over, and a d = 64
    # matrix wider than a slice; every drawn value appears at least once.
    size, dim = shape
    rng = np.random.default_rng(seed)
    numbers = np.array(values)[rng.integers(0, len(values), size)]
    numbers[rng.permutation(size)[:len(values)]] = values[:size]
    assert _printed(numbers, dim) == _reference_text(numbers, dim)


def test_printer_hard_numbers_in_every_column():
    for dim in (1, 2, 3, 64):
        assert _printed(_HARD, dim) == _reference_text(_HARD, dim)
        assert _printed(_HARD[::-1], dim) == _reference_text(_HARD[::-1], dim)


@pytest.mark.parametrize("digits", [6, 17])
def test_printer_powers_of_ten_are_double_doubles_within_2_to_the_minus_104(digits):
    tables = fileio._number_tables(digits)
    for i, e in enumerate(range(fileio._E_LO, fileio._E_HI + 1)):
        power, rest = float(tables.power[i]), float(tables.power_rest[i])
        assert tables.power_hi[i] + tables.power_lo[i] == power
        if e in (fileio._E_LO, fileio._E_HI):  # clamped: no number is printed from them
            assert power == rest == 0
            continue
        exact = Fraction(10) ** (digits - 1 - e)
        assert abs(Fraction(power) + Fraction(rest) - exact) <= exact / 2 ** 104, e


@pytest.mark.parametrize("digits", [6, 17])
def test_printer_exponent_words_are_the_suffixes_format_prints(digits):
    # At bytes 0-4 of the last word at 6 digits, at bytes 3-7 of the last
    # digit word at 17; nothing in fixed notation.
    tables, offset = fileio._number_tables(digits), {6: 0, 17: 3}[digits]
    for i, e in enumerate(range(fileio._E_LO + 1, fileio._E_HI), start=1):
        _, mark, exponent = format(1.5 * 10.0 ** e, f".{digits}g").partition("e")
        assert not mark or int(exponent) == e
        word = int(tables.exponent[i]).to_bytes(8, "little")
        assert word == (bytes(offset) + (mark + exponent).encode()).ljust(8, b"\0"), e


@pytest.mark.parametrize("digits", [6, 17])
def test_printer_digit_groups_are_formatted_integers(digits):
    tables = fileio._number_tables(digits)
    groups = [f"{i:04d}" for i in range(10 ** 4)]
    assert [int(w).to_bytes(8, "little") for w in tables.ascii[0]] == [
        g.encode() + bytes(4) for g in groups]
    assert tables.significant[0].tolist() == [len(g.rstrip("0")) for g in groups]


def _planted_family(values, kind: str) -> BranchingFamily:
    """A dim-32 family whose state, dynamics matrices and projectors hold
    ``values``, each matrix from another starting point in the list."""
    dim, count = 32, 2 * 32 * 32
    tiled = np.resize(np.asarray(values, dtype=float), len(values) + count)

    def planted(shift):
        start = shift * 97 % len(values)
        return tiled[start:start + count].copy().view(complex).reshape(dim, dim)

    if kind == "hamiltonian":
        provider = ConstantHamiltonian(np.eye(dim))
        provider.hamiltonian = planted(1)
    else:
        provider = PiecewiseUnitary([0.0, 1.0, 2.0], [np.eye(dim), np.eye(dim)])
        provider.unitaries = (planted(1), planted(2))
    moments = [Moment(0, None, 0.0, None)] + [
        Moment(i, 0 if i < 3 else 1, float(i), planted(i + 2)) for i in range(1, 6)]
    return BranchingFamily(dim, moments, planted(0), provider)


@pytest.mark.parametrize("kind", ["hamiltonian", "unitary_table"])
def test_planted_hard_numbers_serialize_as_the_reference(kind):
    # The planted dynamics are not Hermitian or unitary, so the document
    # does not load back; the bytes are the per-entry reference's.
    family = _planted_family(_HARD, kind)
    assert serialize_family(family) == _reference_serialize(family)


def test_projector_stacks_seldom_reach_the_per_entry_fallback(monkeypatch):
    # Entries of random dim-32 projectors, as the branching documents hold
    # them.  A slide back to per-entry formatting would keep the bytes and
    # lose the speed, so count the calls of the fallback, fileio's own format().
    rng = np.random.default_rng(32)
    stack = []
    for rank in rng.integers(1, 32, size=13):
        q, _ = np.linalg.qr(rng.normal(size=(32, rank)) + 1j * rng.normal(size=(32, rank)))
        stack.append(q @ q.conj().T)
    numbers = np.array(stack).view(np.float64).ravel()
    calls = []

    def counting_format(value, spec):
        calls.append(value)
        return format(value, spec)

    monkeypatch.setattr(fileio, "format", counting_format, raising=False)
    assert _printed(numbers, 32) == _reference_text(numbers, 32)
    assert calls == []
    numbers[5000] = _ties()[0]  # the counter does see the fallback
    assert _printed(numbers, 32) == _reference_text(numbers, 32)
    assert calls == [_ties()[0]]


def test_writer_holds_little_beyond_the_document():
    # A d = 1024 family of three dense matrices makes a document of about
    # 85 MB; the writer may hold it once, with the growth of its buffer,
    # but not a second copy, a str of it or a template per entry.
    # Peak RSS is read as VmHWM, which starts afresh at exec.
    pytest.importorskip("resource")
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    result = run_capped("""
        import numpy as np
        from qhistories import BranchingFamily, Moment, TrivialEvolution, serialize_family

        def status(key):
            with open("/proc/self/status") as f:
                return next(int(line.split()[1]) << 10 for line in f if line.startswith(key))

        d = 1024
        v = np.random.default_rng(5).normal(size=d)
        p = np.outer(v, v / (v @ v)).astype(complex)
        family = BranchingFamily(d, [Moment(0, None, 0.0, None), Moment(1, 0, 1.0, p),
                                     Moment(2, 0, 1.0, np.eye(d) - p)], p, TrivialEvolution(d))
        before = status("VmRSS:")
        blob = serialize_family(family)
        print(len(blob), status("VmHWM:") - before)
    """)
    assert result.returncode == 0, result.stderr
    size, growth = map(int, result.stdout.split())
    assert size > 80_000_000
    assert growth < 1.5 * size


# -- syntax and schema failures ----------------------------------------------

def test_truncated_document_reports_position():
    with pytest.raises(ParseError) as exc:
        load_document('{"dim": 2,')
    assert exc.value.line == 1
    assert exc.value.column is not None
    assert "line 1" in str(exc.value)


def test_syntax_error_line_number():
    text = '{\n  "dim": 2,\n  "oops\n}'
    with pytest.raises(ParseError) as exc:
        load_document(text)
    assert exc.value.line == 3


def test_invalid_utf8_is_a_parse_error():
    with pytest.raises(ParseError, match="UTF-8"):
        load_document(b'{"dim": \xff}')


def test_nan_and_infinity_rejected():
    for literal in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ParseError) as exc:
            load_document(_doc(dim=2).replace('"time": 0.0', '"time": ' + literal))
        assert exc.value.field == "nodes[0].time"
        assert "finite" in exc.value.message
    with pytest.raises(ParseError) as exc:
        load_document('{"dim": NaN}')
    assert exc.value.field is not None


def test_top_level_must_be_object():
    with pytest.raises(ParseError) as exc:
        load_document("[1, 2]")
    assert exc.value.field == "$"


def _doc(**overrides):
    base = {
        "dim": 2,
        "initial_state": "maximally_mixed",
        "dynamics": {"kind": "trivial"},
        "nodes": [
            {"id": 0, "time": 0.0},
            {"id": 1, "parent": 0, "time": 1.0,
             "projector": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
            {"id": 2, "parent": 0, "time": 1.0,
             "projector": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]},
        ],
    }
    base.update(overrides)
    return json.dumps(base)


def test_valid_baseline_document_parses():
    fam = parse_family(_doc())
    assert len(fam) == 3
    assert fam.dim == 2


def test_unknown_top_level_key():
    with pytest.raises(ParseError, match="unknown keys"):
        load_document(_doc(extra=1))


def test_missing_top_level_key():
    doc = json.loads(_doc())
    del doc["dynamics"]
    with pytest.raises(ParseError, match="missing keys"):
        load_document(json.dumps(doc))


def test_dim_must_be_positive_integer():
    with pytest.raises(ParseError) as exc:
        load_document(_doc(dim="two"))
    assert exc.value.field == "dim"
    with pytest.raises(ParseError, match="positive"):
        load_document(_doc(dim=0))
    with pytest.raises(ParseError) as exc:
        load_document(_doc(dim=True))
    assert exc.value.field == "dim"


def test_dim_beyond_the_matrix_byte_limit():
    root_only = {"nodes": [{"id": 0, "time": 0.0}]}
    for dim in (2049, 100000000):
        with pytest.raises(ParseError, match="above the limit") as exc:
            load_document(_doc(dim=dim, **root_only))
        assert exc.value.field == "dim"
    assert 16 * 2048 ** 2 == MAX_MATRIX_BYTES
    assert load_document(_doc(dim=2048, **root_only)).dim == 2048


def test_projectors_are_checked_before_the_stack_is_allocated(tmp_path):
    # At dim 2048 each projector takes 64 MiB in the stack, so a
    # 1 KB document of 20 children with "projector": 0, or one whose rows
    # are empty, must fail at its first bad field, not with MemoryError.
    pytest.importorskip("resource")
    nodes = [{"id": 0, "time": 0.0}]
    documents = {}
    for name, projector in (("zero", 0), ("empty-rows", [[]] * 2048)):
        children = [{"id": i, "parent": 0, "time": 1.0, "projector": projector}
                    for i in range(1, 21)]
        path = tmp_path / f"{name}.json"
        path.write_text(_doc(dim=2048, nodes=nodes + children))
        documents[name] = str(path)
    result = run_capped(f"""
        from qhistories import ParseError, cli, load_document
        for path in {sorted(documents.values())!r}:
            try:
                load_document(open(path, "rb").read())
            except ParseError as exc:
                print(exc.field, exc.message, sep=": ")
            print(cli.main(["weights", path]))
    """)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "nodes[1].projector[0]: expected a row of 2048 entries", "66",
        "nodes[1].projector: expected a matrix (list of rows)", "66",
    ]


def test_unknown_state_literal():
    with pytest.raises(ParseError, match="unknown state literal"):
        load_document(_doc(initial_state="pure"))


def test_state_matrix_shape_checked():
    with pytest.raises(ParseError) as exc:
        load_document(_doc(initial_state=[[[1, 0]]]))
    assert exc.value.field == "initial_state"
    with pytest.raises(ParseError) as exc:
        load_document(_doc(initial_state=[[[1, 0], [0, 0]], [[0, 0], 7]]))
    assert exc.value.field == "initial_state[1][1]"


def test_matrix_entries_must_be_finite_numbers():
    bad = [[[1, 0], ["x", 0]], [[0, 0], [0, 0]]]
    with pytest.raises(ParseError) as exc:
        load_document(_doc(initial_state=bad))
    assert exc.value.field == "initial_state[0][1][0]"


_Z = [0, 0]


@pytest.mark.parametrize("matrix,field,message", [
    ([[[1, 0], [True, 0]], [_Z, _Z]],
     "initial_state[0][1][0]", "expected a number, got True"),
    ([[[1, 0], _Z], [_Z, ["1", 0]]],
     "initial_state[1][1][0]", "expected a number, got '1'"),
    ([[[1, None], _Z], [_Z, _Z]],
     "initial_state[0][0][1]", "expected a number, got None"),
    ([[[1, 0], _Z], [[0, 0, 0], _Z]],
     "initial_state[1][0]", "expected an [re, im] pair"),
    ([[[1, 0], _Z], [_Z]],
     "initial_state[1]", "expected a row of 2 entries"),
    ([[[1, 0], _Z], {"0": _Z}],
     "initial_state[1]", "expected a row of 2 entries"),
    ([[[1, 0], _Z]],
     "initial_state", "expected 2 rows, got 1"),
    ([[[1, 0], _Z], [_Z, [0, math.nan]]],
     "initial_state[1][1][1]", "expected a finite number, got nan"),
    ([[[1, 0], _Z], [_Z, [OUT_OF_RANGE, 0]]],
     "initial_state[1][1][0]", f"expected a finite number, got {OUT_OF_RANGE}"),
], ids=["boolean", "string", "null", "three-element-pair", "ragged-row",
        "dict-row", "too-few-rows", "nan", "out-of-range-integer"])
def test_malformed_matrix_diagnostics(matrix, field, message):
    with pytest.raises(ParseError) as exc:
        load_document(_doc(initial_state=matrix))
    assert exc.value.field == field
    assert exc.value.message == message


@pytest.mark.parametrize("name", sorted(HOSTILE_DOCUMENTS))
def test_numeric_overflow_and_deep_nesting_are_parse_errors(name):
    text, field = HOSTILE_DOCUMENTS[name]
    with pytest.raises(ParseError) as exc:
        load_document(text)
    assert exc.value.field == field



# -- the orjson read path and the json path that names its refusals ----------

def _json_outcome(text):
    """``load_document``'s outcome when the text is read by json alone."""
    with mock.patch.object(fileio, "_nests_shallowly", return_value=False):
        return _parse_outcome(lambda: load_document(text))


def _same_outcome(got, want):
    (family, error), (want_family, want_error) = got, want
    assert error == want_error
    if want_error is None:
        assert list(map(_moment_bits, family.moments)) == list(map(_moment_bits,
                                                                   want_family.moments))
        assert serialize_family(family) == serialize_family(want_family)


@pytest.mark.parametrize("text", [
    _doc(), _doc().encode(), bytearray(_doc().encode()), json.dumps(json.loads(_doc()), indent=4),
    serialize_family(fig2_family()), serialize_family(branch_no_prod_family()).decode(),
    serialize_family(random_family(np.random.default_rng(9400), dim=3, kind="hamiltonian")),
    serialize_family(random_family(np.random.default_rng(9401), dim=2, kind="unitary_table")),
], ids=["str", "bytes", "bytearray", "indented", "fig2", "branch-no-prod", "hamiltonian",
        "unitary-table"])
def test_valid_document_never_reaches_json(text):
    want = _json_outcome(text)
    with mock.patch.object(fileio.json, "loads", side_effect=AssertionError):
        got = _parse_outcome(lambda: load_document(text))
    assert want[1] is None
    _same_outcome(got, want)


_BIG = 2 ** 64 + 2049  # past 64 bits, and halfway-plus-one between two floats
_FIRST_ENTRY = "[[[1, 0]"


# Documents on which orjson and json disagree: each must load, or fail with
# the ParseError, exactly as on the json path.
_DIVERGENT = {
    "nan-time": _doc().replace('"time": 0.0', '"time": NaN'),
    "infinity-time": _doc().replace('"time": 1.0', '"time": Infinity'),
    "minus-infinity-time": _doc().replace('"time": 1.0', '"time": -Infinity'),
    "1e400-time": _doc().replace('"time": 0.0', '"time": 1e400'),
    "1e400-entry": _doc().replace(_FIRST_ENTRY, "[[[1e400, 0]"),
    "big-id": _doc().replace('"id": 0', f'"id": {_BIG}'),
    "big-negative-id": _doc().replace('"id": 0', f'"id": {-_BIG}'),
    "big-parent": _doc().replace('"parent": 0', f'"parent": {_BIG}', 1),
    "big-dim": _doc().replace('"dim": 2', f'"dim": {_BIG}'),
    "big-time": _doc().replace('"time": 1.0', f'"time": {_BIG}'),
    "big-negative-time": _doc().replace('"time": 0.0', f'"time": {-(2 ** 63) - 1025}'),
    "big-entry": _doc().replace(_FIRST_ENTRY, f"[[[{_BIG}, 0]"),
    "big-state-entry": _doc(initial_state=[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]).replace(
        '"initial_state": [[[1, 0]', f'"initial_state": [[[{-_BIG}, 0]'),
    "too-many-digits-time": _doc().replace('"time": 0.0', '"time": ' + "1" * 5000),
    "escaped-lone-surrogate-key": '{"\\ud800": 1, ' + _doc()[1:],
    "lone-surrogate-key": '{"\ud800": 1, ' + _doc()[1:],
    "lone-surrogate-literal": _doc().replace('"maximally_mixed"', '"\udfff"'),
    "bom": b"\xef\xbb\xbf" + _doc().encode(),
    "bom-str": "\ufeff" + _doc(),
    "invalid-utf8": _doc().encode().replace(b"trivial", b"tri\xffvial"),
    "deep-nesting-2000": _doc().replace('"dim": 2', '"dim": ' + "[" * 2000 + "]" * 2000),
    "deep-nesting-in-a-key": '{"' + "[" * 2000 + '": 1, ' + _doc()[1:],
    "trailing-garbage": _doc() + " x",
    "second-document": _doc() + _doc(),
}


@pytest.mark.parametrize("name", sorted(_DIVERGENT))
def test_divergent_documents_fail_or_load_as_on_the_json_path(name):
    text = _DIVERGENT[name]
    _same_outcome(_parse_outcome(lambda: load_document(text)), _json_outcome(text))


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
def test_load_document_pauses_the_collector_and_restores_the_callers_state(collecting):
    # orjson's tree is parsed with the collector off; the json re-read that
    # names an error runs with the caller's setting, which survives each outcome.
    seen = []
    family_from = fileio._family_from

    def recording(doc, tol):
        seen.append(gc.isenabled())
        return family_from(doc, tol)

    was = gc.isenabled()
    try:
        (gc.enable if collecting else gc.disable)()
        with mock.patch.object(fileio, "_family_from", recording):
            load_document(serialize_family(fig2_family()))
            assert (seen, gc.isenabled()) == ([False], collecting)
            with pytest.raises(ParseError):
                load_document(_doc(dim=0))  # refused by the schema, named by the json re-read
            assert (seen[1:], gc.isenabled()) == ([False, collecting], collecting)
            with pytest.raises(ParseError):
                load_document(b'{"dim": 2,')  # refused by orjson itself
            assert (seen[3:], gc.isenabled()) == ([], collecting)
    finally:
        (gc.enable if was else gc.disable)()


def test_documents_too_deep_for_orjson_are_refused_without_a_crash():
    result = run_capped("""
        from qhistories import ParseError, load_document
        for text in [b'{"a":' * 100000 + b'1' + b'}' * 100000,
                     b'[' * 1000000 + b']' * 1000000,
                     b'["]]]]]]",' * 100000 + b'1' + b']' * 100000]:
            try:
                load_document(text)
            except ParseError as exc:
                print(exc.field, exc.message, sep=": ")
    """)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["$: values nest too deeply"] * 3


_ENTRY_FORMATS = {"%.17g": "%.17g".__mod__, "repr": repr, "%.25e": "%.25e".__mod__,
                  "%.12g": "%.12g".__mod__}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data(), st.sampled_from(sorted(_ENTRY_FORMATS)))
def test_matrix_entries_load_bit_identical_to_the_json_path(dim, data, name):
    def matrix():
        numbers = data.draw(st.lists(_finite, min_size=2 * dim * dim, max_size=2 * dim * dim))
        text = map(_ENTRY_FORMATS[name], numbers)
        pairs = [f"[{re},{im}]" for re, im in zip(text, text)]
        return "[" + ",".join("[" + ",".join(pairs[i:i + dim]) + "]"
                              for i in range(0, len(pairs), dim)) + "]"

    text = ('{"dim":%d,"dynamics":{"kind":"trivial"},"initial_state":%s,"nodes":'
            '[{"id":0,"time":0},{"id":1,"parent":0,"projector":%s,"time":%s}]}'
            % (dim, matrix(), matrix(), _ENTRY_FORMATS[name](data.draw(_finite))))
    got, want = _parse_outcome(lambda: load_document(text)), _json_outcome(text)
    _same_outcome(got, want)
    assert got[0].initial_state.tobytes() == want[0].initial_state.tobytes()

def test_unknown_dynamics_kind():
    with pytest.raises(ParseError) as exc:
        load_document(_doc(dynamics={"kind": "liouville"}))
    assert exc.value.field == "dynamics.kind"


def test_hamiltonian_must_be_hermitian():
    h = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
    with pytest.raises(ParseError) as exc:
        load_document(_doc(dynamics={"kind": "hamiltonian", "hamiltonian": h}))
    assert exc.value.field == "dynamics.hamiltonian"


def test_unitary_table_entries_checked():
    table = {"kind": "unitary_table", "breakpoints": [0.0, 1.0],
             "unitaries": [[[[2, 0], [0, 0]], [[0, 0], [1, 0]]]]}
    with pytest.raises(ParseError) as exc:
        load_document(_doc(dynamics=table))
    assert exc.value.field == "dynamics"
    table["unitaries"] = "not a list"
    with pytest.raises(ParseError) as exc:
        load_document(_doc(dynamics=table))
    assert exc.value.field == "dynamics.unitaries"


def test_nodes_must_be_nonempty_list():
    with pytest.raises(ParseError, match="at least one node"):
        load_document(_doc(nodes=[]))
    with pytest.raises(ParseError) as exc:
        load_document(_doc(nodes="n0"))
    assert exc.value.field == "nodes"


def test_duplicate_node_id():
    doc = json.loads(_doc())
    doc["nodes"][2]["id"] = 1
    with pytest.raises(ParseError) as exc:
        load_document(json.dumps(doc))
    assert exc.value.field == "nodes[2].id"
    assert "duplicate" in exc.value.message


def test_root_must_not_carry_projector():
    doc = json.loads(_doc())
    doc["nodes"][0]["projector"] = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
    with pytest.raises(ParseError) as exc:
        load_document(json.dumps(doc))
    assert exc.value.field == "nodes[0].projector"


def test_child_must_carry_projector():
    doc = json.loads(_doc())
    del doc["nodes"][1]["projector"]
    with pytest.raises(ParseError) as exc:
        load_document(json.dumps(doc))
    assert exc.value.field == "nodes[1].projector"


def test_projector_path_in_nested_error():
    doc = json.loads(_doc())
    doc["nodes"][2]["projector"][1] = [[0, 0]]
    with pytest.raises(ParseError) as exc:
        load_document(json.dumps(doc))
    assert exc.value.field == "nodes[2].projector[1]"


def test_unknown_node_key():
    doc = json.loads(_doc())
    doc["nodes"][1]["weight"] = 0.5
    with pytest.raises(ParseError) as exc:
        load_document(json.dumps(doc))
    assert exc.value.field == "nodes[1]"


# -- semantic failures go through validation --------------------------------

def test_incomplete_decomposition_is_semantic_not_syntactic():
    doc = json.loads(_doc())
    del doc["nodes"][2]  # only |0><0| remains under the root
    text = json.dumps(doc)
    fam = load_document(text)  # schema-clean
    with pytest.raises(InvalidFamilyError) as exc:
        parse_family(text)
    assert 1 in exc.value.nodes
    assert not fam.validate().ok


def test_non_projector_matrix_is_semantic():
    doc = json.loads(_doc())
    doc["nodes"][1]["projector"] = [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]
    with pytest.raises(InvalidFamilyError):
        parse_family(json.dumps(doc))


# -- Graphviz export ----------------------------------------------------------

def test_export_dot_bare_root():
    out = export_dot(new_family(2, 0.0))
    assert out.startswith("digraph family {")
    assert out.rstrip().endswith("}")
    assert out.count("[label=") == 1
    assert "->" not in out


def test_export_dot_fig2_shape():
    out = export_dot(fig2_family())
    assert out.count("[label=") == 8
    assert out.count("->") == 7
    assert 'n0 [label="m0\\nt=0' in out
    assert "rank 2" in out  # the coarse qutrit projectors
    assert "W=" not in out


def test_export_dot_weight_annotation():
    out = export_dot(branch_no_prod_family(), annotate_weights=True)
    assert out.count("W=") == 4
    assert "W=0.5" in out
    assert "W=0.25" in out


def test_export_dot_fig2_text():
    assert export_dot(fig2_family()) == "\n".join([
        "digraph family {",
        "  node [shape=circle];",
        '  n0 [label="m0\\nt=0"];',
        '  n1 [label="m1\\nt=1\\nrank 1"];',
        '  n2 [label="m2\\nt=1.5\\nrank 2"];',
        '  n3 [label="m3\\nt=2\\nrank 1"];',
        '  n4 [label="m4\\nt=2\\nrank 1"];',
        '  n5 [label="m5\\nt=2\\nrank 1"];',
        '  n6 [label="m6\\nt=2.5\\nrank 2"];',
        '  n7 [label="m7\\nt=2.5\\nrank 1"];',
        "  n0 -> n1;",
        "  n0 -> n2;",
        "  n1 -> n3;",
        "  n1 -> n4;",
        "  n1 -> n5;",
        "  n2 -> n6;",
        "  n2 -> n7;",
        "}",
        ""])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(PROVIDER_KINDS), st.booleans())
def test_export_dot_matches_the_node_by_node_reference(seed, kind, annotate):
    fam = random_family(np.random.default_rng(seed), kind=kind)
    for family in (fam, load_document(serialize_family(fam))):
        assert export_dot(family, annotate) == oracle_export_dot(family, annotate)
    # Leaves extended out of depth-first order: edges still follow each
    # parent's insertion.
    late = new_family(2, 0.0).extend(0, [P0, P1], [1.0, 1.0])
    late = late.extend(2, [P_PLUS, P_MINUS], [2.0, 2.0]).extend(1, [P0, P1], [2.0, 2.0])
    assert export_dot(late, annotate) == oracle_export_dot(late, annotate)


def test_export_dot_refuses_invalid_family():
    overlapping = BranchingFamily(
        2,
        [Moment(0, None, 0.0, None),
         Moment(1, 0, 1.0, P0),
         Moment(2, 0, 1.0, P0)],
        np.eye(2, dtype=complex) / 2,
        TrivialEvolution(2),
    )
    with pytest.raises(InvalidFamilyError):
        export_dot(overlapping)


# -- properties over generated families ----------------------------------------

_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _families(draw):
    """Families of any shape with arbitrary finite matrix entries and times.

    Documents are only schema-checked on load, so the projectors and the
    explicit state need not be physical; the dynamics must be, and come
    from a seeded generator.
    """
    dim = draw(st.integers(1, 3))

    def matrix():
        entries = draw(st.lists(_finite, min_size=2 * dim * dim, max_size=2 * dim * dim))
        return np.array(entries).view(complex).reshape(dim, dim)

    size = draw(st.integers(1, 6))
    moments = [Moment(0, None, draw(_finite), None)]
    for i in range(1, size):
        moments.append(Moment(i, draw(st.integers(0, i - 1)), draw(_finite), matrix()))
    state = matrix() if draw(st.booleans()) else np.eye(dim, dtype=complex) / dim
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    provider = random_provider(dim, rng, draw(st.sampled_from(PROVIDER_KINDS)),
                               grid=[0.0, 1.0, 2.0])
    return BranchingFamily(dim, moments, state, provider)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_families())
def test_serialize_load_serialize_is_a_byte_fixed_point(family):
    blob = serialize_family(family)
    assert blob == _reference_serialize(family)
    assert serialize_family(load_document(blob)) == blob


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_families(), st.data())
def test_damaged_documents_raise_only_parse_errors(family, data):
    # A damaged document may still load; any exception but ParseError fails.
    blob = serialize_family(family)
    at = data.draw(st.integers(0, len(blob) - 1))
    if data.draw(st.booleans()):
        damaged = blob[:at]
    else:
        damaged = blob[:at] + bytes([data.draw(st.integers(0, 255))]) + blob[at + 1:]
    try:
        load_document(damaged)
    except ParseError:
        pass


# -- node-list mutations: the bulk reader against the node-by-node oracle -----

_MUTATIONS = ("none", "duplicate-id", "bool-id", "float-id", "missing-time",
              "unknown-key", "root-projector", "child-without-projector",
              "parent-type", "bad-time", "short-row", "non-list-projector",
              "bool-entry", "not-an-object")


@st.composite
def _node_documents(draw):
    """A valid document's text with at most one node mutated, and the mutation."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    fam = random_family(rng, dim=draw(st.integers(1, 3)), max_depth=3,
                        stop_probability=0.2)
    doc = json.loads(serialize_family(fam))
    nodes = doc["nodes"]
    kind = draw(st.sampled_from(_MUTATIONS))
    k = draw(st.integers(0, len(nodes) - 1))
    children = [node for node in nodes if "parent" in node]
    if kind == "duplicate-id":
        assume(len(nodes) > 1)
    if kind in ("child-without-projector", "parent-type", "short-row",
                "non-list-projector", "bool-entry"):
        assume(children)
    child = children[draw(st.integers(0, len(children) - 1))] if children else None
    if kind == "duplicate-id":
        other = draw(st.integers(0, len(nodes) - 2))
        nodes[k]["id"] = nodes[other + (other >= k)]["id"]
    elif kind == "bool-id":
        nodes[k]["id"] = draw(st.booleans())
    elif kind == "float-id":
        nodes[k]["id"] = float(nodes[k]["id"])
    elif kind == "missing-time":
        del nodes[k]["time"]
    elif kind == "unknown-key":
        nodes[k][draw(st.sampled_from(["weight", "Id", "children"]))] = 0.5
    elif kind == "root-projector":
        dim = doc["dim"]
        nodes[0]["projector"] = [[[1.0 * (i == j), 0] for j in range(dim)] for i in range(dim)]
    elif kind == "child-without-projector":
        del child["projector"]
    elif kind == "parent-type":
        child["parent"] = draw(st.sampled_from(["0", 0.5, None, True, [0], {"id": 0}]))
    elif kind == "bad-time":
        nodes[k]["time"] = draw(st.sampled_from([math.nan, math.inf, -math.inf,
                                                 OUT_OF_RANGE, -OUT_OF_RANGE, "1.0"]))
    elif kind == "short-row":
        row = draw(st.integers(0, doc["dim"] - 1))
        child["projector"][row] = child["projector"][row][:-1]
    elif kind == "non-list-projector":
        child["projector"] = draw(st.sampled_from(["P", 3, None, {"0": [[0, 0]]}]))
    elif kind == "bool-entry":
        child["projector"][-1][-1][draw(st.integers(0, 1))] = draw(st.booleans())
    elif kind == "not-an-object":
        nodes[k] = draw(st.sampled_from([[], 5, "node", None, [nodes[k]]]))
    return json.dumps(doc), kind


def _parse_outcome(call):
    try:
        return call(), None
    except ParseError as exc:
        return None, (exc.field, exc.message, exc.line, exc.column)


def _moment_bits(m):
    projector = None if m.projector is None else (m.projector.dtype, m.projector.shape,
                                                  m.projector.tobytes())
    return (m.id, type(m.id), m.parent, type(m.parent),
            type(m.time), np.float64(m.time).tobytes(), projector)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow,
                                                                   HealthCheck.filter_too_much])
@given(_node_documents())
def test_node_list_mutations_match_the_node_by_node_oracle(case):
    text, kind = case
    raw = json.loads(text)
    want, want_error = _parse_outcome(lambda: load_nodes(raw["nodes"], raw["dim"]))
    assert (want_error is None) == (kind == "none"), kind  # every mutation breaks the document
    if kind == "none":
        # A valid node list never reaches the per-node loop.
        with mock.patch.object(fileio, "_nodes_one_by_one", side_effect=AssertionError):
            got, got_error = _parse_outcome(lambda: load_document(text))
    else:
        got, got_error = _parse_outcome(lambda: load_document(text))
    assert got_error == want_error
    if want_error is None:
        assert list(map(_moment_bits, got.moments)) == list(map(_moment_bits, want))


def test_roots_anywhere_in_the_node_list_load_as_the_oracle_reads_them():
    # The child rows of the stack are the rows with a parent, wherever the
    # roots stand.
    doc = json.loads(serialize_family(random_family(np.random.default_rng(7), dim=2, max_depth=2,
                                                    stop_probability=0.0)))
    nodes = doc["nodes"]
    assert "parent" not in nodes[0] and len(nodes) > 2
    for order in (nodes, nodes[1:] + nodes[:1], nodes[::-1], nodes[:1],
                  [*nodes, {"id": 999, "time": 5.0}]):
        doc["nodes"] = order
        got = load_document(json.dumps(doc))
        assert list(map(_moment_bits, got.moments)) == list(
            map(_moment_bits, load_nodes(order, doc["dim"])))


# -- the node store --------------------------------------------------------------

@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.booleans())
def test_extend_load_and_from_product_build_one_store(seed, steps, product):
    # The tree is grown level by level, leaf after leaf, so that ids run as
    # ``from_product`` numbers them; with ``product`` every level reuses one
    # decomposition.  Adding 0.0 drops -0.0 entries, which documents write as 0.
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    times = np.cumsum(rng.uniform(0.1, 1.0, size=steps)).tolist()

    def decomposition():
        return [p + 0.0 for p in random_decomposition(dim, int(rng.integers(1, dim + 1)), rng)]

    levels = [decomposition() for _ in range(steps)]
    fam = new_family(dim, times[0], random_density(dim, rng),
                     random_provider(dim, rng, "hamiltonian"))
    frontier = [0]
    for k, t_next in enumerate(times[1:] + [times[-1] + 1.0]):
        below = []
        for leaf in frontier:
            parts = levels[k] if product else decomposition()
            fam = fam.extend(leaf, parts, [t_next] * len(parts))
            below += [m.id for m in fam.children_of(leaf)]
        frontier = below
    back = load_document(serialize_family(fam))
    assert families_equal(fam, back)
    assert list(map(_moment_bits, back.moments)) == list(map(_moment_bits, fam.moments))
    assert back.is_product_shaped() == fam.is_product_shaped()
    if product:
        assert fam.is_product_shaped()
        built = from_product(dim, times, levels, fam.initial_state, fam.evolution)
        assert families_equal(built, fam)
        assert list(map(_moment_bits, built.moments)) == list(map(_moment_bits, fam.moments))


def test_store_paths_build_no_moment():
    with mock.patch.object(Moment, "__init__", side_effect=AssertionError("a Moment was built")):
        product = from_product(2, [0.0, 1.0], [[P0, P1], [P_PLUS, P_MINUS]])
        grown = product.extend(3, [P0, P1], [3.0, 3.0])
        for fam in (product, grown):
            loaded = load_document(serialize_family(fam))
            assert loaded.validate().ok
            assert weight_table(loaded).sum() == pytest.approx(1.0)
        assert len(embed_family(load_document(serialize_family(product)))) == 4


def test_loaded_moments_are_views_of_one_stack():
    fam = load_document(serialize_family(random_family(np.random.default_rng(9700), dim=3,
                                                       stop_probability=0.1)))
    projectors = [m.projector for m in fam.moments if m.projector is not None]
    assert len(projectors) == len(fam) - 1
    assert len({id(p.base) for p in projectors}) == 1
    assert projectors[0].base is not None
    assert not any(p.flags.writeable for p in projectors)
