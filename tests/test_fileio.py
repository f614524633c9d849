"""Document round trips, parse failures and Graphviz export."""

import json

import numpy as np
import pytest

from helpers import families_equal, random_family
from qhistories import (
    BranchingFamily,
    InvalidFamilyError,
    Moment,
    ParseError,
    TrivialEvolution,
    export_dot,
    load_document,
    new_family,
    parse_family,
    serialize_family,
)
from qhistories.demos import P0, P1, branch_no_prod_family, fig2_family, isham_reversed_family
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
