"""End-to-end checks of the command line interface via ``main``."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import HOSTILE_DOCUMENTS, loose_qubit_family
from qhistories import (
    BranchingFamily,
    Moment,
    TrivialEvolution,
    from_product,
    load_document,
    maximally_mixed,
    serialize_family,
    weight_table,
)
from qhistories import cli, fileio, hpo
from qhistories.cli import main
from qhistories.demos import (
    P0,
    P1,
    P_MINUS,
    P_PLUS,
    branch_no_prod_family,
    fig2_family,
)


def _write(tmp_path, family, name="family.json"):
    path = tmp_path / name
    path.write_bytes(serialize_family(family))
    return str(path)


def _write_text(tmp_path, text, name="family.json"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _inconsistent_family():
    # Computational then Hadamard question on |+><+|: strong interference,
    # |D_02| = 1/4 exactly.
    return from_product(2, [0.0, 1.0], [[P0, P1], [P_PLUS, P_MINUS]],
                        initial_state=P_PLUS)


# -- validate -----------------------------------------------------------------

def test_validate_ok(tmp_path, capsys):
    assert main(["validate", _write(tmp_path, fig2_family())]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_validate_reports_semantic_problems(tmp_path, capsys):
    doc = json.loads(serialize_family(branch_no_prod_family()))
    doc["nodes"] = [n for n in doc["nodes"] if n["id"] != 4]
    path = _write_text(tmp_path, json.dumps(doc))
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "completeness" in out or "identity" in out


def test_missing_file_is_a_file_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == 66
    assert "cannot read" in capsys.readouterr().err


def test_oversized_dimension_is_a_file_error(tmp_path, capsys):
    path = _write_text(tmp_path, json.dumps({
        "dim": 100000000, "dynamics": {"kind": "trivial"},
        "initial_state": "maximally_mixed", "nodes": [{"id": 0, "time": 0.0}]}))
    assert main(["weights", path]) == 66
    assert "above the limit" in capsys.readouterr().err


def test_corrupt_file_is_a_file_error(tmp_path, capsys):
    path = _write_text(tmp_path, '{"dim": ')
    assert main(["weights", path]) == 66
    err = capsys.readouterr().err
    assert "cannot parse" in err
    assert "line 1" in err


@pytest.mark.parametrize("name", sorted(HOSTILE_DOCUMENTS))
def test_numeric_overflow_and_deep_nesting_are_file_errors(tmp_path, capsys, name):
    text, field = HOSTILE_DOCUMENTS[name]
    assert main(["weights", _write_text(tmp_path, text)]) == 66
    err = capsys.readouterr().err
    assert "cannot parse" in err
    assert f": {field}: " in err


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 64
    assert main([]) == 64
    capsys.readouterr()


def test_bad_tol_is_usage_error(tmp_path, capsys):
    path = _write(tmp_path, fig2_family())
    assert main(["weights", path, "--tol", "tiny"]) == 64
    capsys.readouterr()


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "1e309"])
def test_tol_must_be_finite_and_non_negative(tmp_path, capsys, tol):
    # fig2 is valid; before the check these values made every command call
    # it invalid (exit 1), as "not a projector" or "the zero matrix".
    path = _write(tmp_path, fig2_family())
    for argv in (["validate", path], ["weights", path], ["consistency", path],
                 ["coarse", path, "--leaves", "3,4"], ["hpo-check", path]):
        assert main(argv + [f"--tol={tol}"]) == 64
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == (f"qhistories {argv[0]}: error: argument --tol: "
                           f"expected a finite number >= 0, got {tol!r}")
    assert main(["validate", path, "--tol", "0"]) == 0
    assert capsys.readouterr().out.strip() == "OK"


# -- weights ------------------------------------------------------------------

def test_weights_human_format(tmp_path, capsys):
    path = _write(tmp_path, branch_no_prod_family())
    assert main(["weights", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["index", "leaf", "weight"]
    assert lines[1].split() == ["0", "3", "0.5"]
    assert lines[2].split() == ["1", "4", "0.0"]
    assert lines[3].split() == ["2", "5", "0.25"]
    assert lines[4].split() == ["3", "6", "0.25"]
    assert lines[5] == "sum = 1.0"


def test_weights_csv_format(tmp_path, capsys):
    path = _write(tmp_path, branch_no_prod_family())
    assert main(["weights", path, "--csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "index,leaf,weight"
    assert lines[1] == "0,3,0.5"
    assert lines[-1] == "sum,,1.0"


def test_weights_refuses_invalid_family(tmp_path, capsys):
    doc = json.loads(serialize_family(branch_no_prod_family()))
    doc["nodes"] = [n for n in doc["nodes"] if n["id"] != 6]
    path = _write_text(tmp_path, json.dumps(doc))
    assert main(["weights", path]) == 1
    assert "invalid family" in capsys.readouterr().err


# -- consistency --------------------------------------------------------------

def test_consistency_accepts_consistent_family(tmp_path, capsys):
    path = _write(tmp_path, branch_no_prod_family())
    assert main(["consistency", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("|D| (4 histories):")
    assert "verdict: consistent (medium, tol=1e-09)" in out


def test_consistency_rejects_interference(tmp_path, capsys):
    path = _write(tmp_path, _inconsistent_family())
    assert main(["consistency", path]) == 2
    out = capsys.readouterr().out
    assert "verdict: inconsistent (medium, tol=1e-09)" in out
    assert "0.25" in out


def test_consistency_weak_mode(tmp_path, capsys):
    path = _write(tmp_path, _inconsistent_family())
    assert main(["consistency", path, "--weak"]) == 2
    assert "inconsistent (weak" in capsys.readouterr().out


def test_consistency_rows_match_per_entry_format(tmp_path, capsys, monkeypatch):
    # Extreme magnitudes, exact zeros and six-digit rounding ties; the
    # printed rows must read exactly as format(v, ".6g") entry by entry.
    rng = np.random.default_rng(35)
    n = 256
    d = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * 10.0 ** rng.integers(
        -320, 12, size=(n, n))
    d[0, :3] = [0.0, 1e-300, 1.2e8]
    d[1, :3] = [0.1234565, -2.5e-5j, 1e16]
    monkeypatch.setattr("qhistories.cli.family_decoherence_matrix", lambda fam, tol: d)
    assert main(["consistency", _write(tmp_path, _inconsistent_family())]) == 2
    rows = capsys.readouterr().out.splitlines()[1:n + 1]
    assert rows == [" ".join(format(v, ".6g") for v in row) for row in np.abs(d)]


def _per_entry_rows(d) -> str:
    return "".join(" ".join(format(v, ".6g") for v in row) + "\n"
                   for row in np.abs(d).tolist())


def _hard_values(rng, kind: str, size: int) -> np.ndarray:
    """Values around the cases a six-digit writer can get wrong."""
    if kind == "bits":  # any float64, NaN and inf among them
        return rng.integers(0, 2**64, size=size, dtype=np.uint64).view(np.float64)
    if kind == "tiny":  # exact zeros, subnormals and the smallest normals
        return rng.choice([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
                           1e-300, 1e-100, 9.9999951e-101], size=size)
    if kind == "powers":  # 10^k, one ulp either side
        v = np.array([float(f"1e{k}") for k in rng.integers(-300, 301, size=size)])
    elif kind == "ties":  # seven significant digits ending in 5
        digits = rng.integers(100000, 1000000, size=size) * 10 + 5
        v = np.array([float(f"{q}e{k}") for q, k in zip(digits, rng.integers(-110, 110, size))])
    else:  # "decades": values that round up to the next power of ten
        v = np.array([float(f"9.99999{r}e{k}") for r, k in
                      zip(rng.integers(4, 10, size=size), rng.integers(-110, 110, size))])
    return np.nextafter(v, v * rng.choice([0.0, 2.0], size=size)) if rng.random() < 0.7 else v


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from([(1, 1), (2, 3), (63, 63), (64, 64), (65, 65), (1, 4097), (3, 4500)]),
       kinds=st.lists(st.sampled_from(["bits", "tiny", "powers", "ties", "decades"]),
                      min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 1), complex_input=st.booleans())
def test_magnitude_rows_match_per_entry_format(shape, kinds, seed, complex_input):
    # The row blocks hold about 4096 entries: 63^2 fits in one, 64^2 is one
    # exactly, 65^2 takes two, and a row of 4097 or 4500 is wider than one.
    rng = np.random.default_rng(seed)
    size = shape[0] * shape[1]
    d = np.choose(rng.integers(len(kinds), size=size),
                  [_hard_values(rng, kind, size) for kind in kinds]).reshape(shape)
    if complex_input:  # |0 + di| = |d|, through the complex absolute value
        z = np.zeros(shape, dtype=complex)
        z.imag = d
        d = z
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write_magnitudes(d)
    assert out.getvalue() == _per_entry_rows(d)


def test_typical_magnitudes_never_reach_the_per_entry_fallback(tmp_path, capsys, monkeypatch):
    # |D| as product families give it: 1e-19..1, with exact zeros.  A slide
    # back to per-entry formatting would keep the bytes and lose the speed,
    # so count the calls of the fallback, the printer module's own format().
    rng = np.random.default_rng(64)
    n = 64
    d = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * 10.0 ** rng.uniform(
        -19, 0, size=(n, n))
    d[rng.random((n, n)) < 0.2] = 0.0
    path = _write(tmp_path, _inconsistent_family())  # its times are printed by format()
    calls = []

    def counting_format(value, spec):
        calls.append(value)
        return format(value, spec)

    monkeypatch.setattr(fileio, "format", counting_format, raising=False)
    monkeypatch.setattr("qhistories.cli.family_decoherence_matrix", lambda fam, tol: d)
    assert main(["consistency", path]) == 2
    assert capsys.readouterr().out.splitlines()[1:n + 1] == _per_entry_rows(d).splitlines()
    assert calls == []
    d[3, 5] = np.nan  # the counter does see the fallback
    assert main(["consistency", path]) == 2
    assert capsys.readouterr().out.splitlines()[1:n + 1] == _per_entry_rows(d).splitlines()
    assert len(calls) == 1 and np.isnan(calls[0])


def test_three_digit_exponents_never_reach_the_per_entry_fallback(tmp_path, capsys, monkeypatch):
    # |D| entries whose %.6g text has a three-digit exponent, one rounding
    # up to the next power of ten, among exact zeros and typical entries,
    # all inside the printer's tables, about 1e-280..1e290.
    rng = np.random.default_rng(150)
    n = 48
    d = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-270, 280, size=(n, n))
    d[rng.random((n, n)) < 0.2] = 0.0
    d[0, :6] = [1e-150, 2.5e-120, 3e+150, 9.9999996e-101, 1e-100, 0.5]
    path = _write(tmp_path, _inconsistent_family())  # its times are printed by format()
    calls = []

    def counting_format(value, spec):
        calls.append(value)
        return format(value, spec)

    for module in (cli, fileio):  # no per-entry format() on either side of the call
        monkeypatch.setattr(module, "format", counting_format, raising=False)
    monkeypatch.setattr("qhistories.cli.family_decoherence_matrix", lambda fam, tol: d)
    assert main(["consistency", path]) == 2
    rows = capsys.readouterr().out.splitlines()[1:n + 1]
    assert rows[0].split()[:6] == ["1e-150", "2.5e-120", "3e+150", "1e-100", "1e-100", "0.5"]
    assert rows == _per_entry_rows(d).splitlines()
    assert calls == []


# -- coarse -------------------------------------------------------------------

def test_coarse_merges_siblings(tmp_path, capsys):
    path = _write(tmp_path, branch_no_prod_family())
    assert main(["coarse", path, "--leaves", "3,4"]) == 0
    out = capsys.readouterr().out
    assert "sum of leaves 3 and 4 (parent 1):" in out
    assert "W(leaf 3) = 0.5" in out
    assert "W(leaf 4) = 0.0" in out
    assert "W(sum) = 0.5" in out
    assert "additive within 1e-09: yes" in out


def test_coarse_trans_branch_exit(tmp_path, capsys):
    path = _write(tmp_path, branch_no_prod_family())
    assert main(["coarse", path, "--leaves", "3,5"]) == 3
    assert "trans-branch sum undefined" in capsys.readouterr().err


def test_coarse_validates_at_the_given_tol(tmp_path, capsys):
    # Valid within 1e-6, not within the default 1e-9.
    path = _write(tmp_path, loose_qubit_family())
    assert main(["coarse", path, "--tol", "1e-6", "--leaves", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "sum of leaves 1 and 2 (parent 0):" in out
    assert "additive within 1e-06: yes" in out
    assert main(["coarse", path, "--leaves", "1,2"]) == 1
    capsys.readouterr()


def test_coarse_bad_leaf_list(tmp_path, capsys):
    path = _write(tmp_path, branch_no_prod_family())
    assert main(["coarse", path, "--leaves", "3"]) == 64
    assert main(["coarse", path, "--leaves", "a,b"]) == 64
    assert main(["coarse", path, "--leaves", "1,3"]) == 64  # 1 is not a leaf
    capsys.readouterr()


# -- hpo-check ----------------------------------------------------------------

def test_hpo_check_product_family(tmp_path, capsys):
    fam = from_product(2, [0.0, 1.0], [[P0, P1], [P0, P1]])
    path = _write(tmp_path, fam)
    assert main(["hpo-check", path]) == 0
    out = capsys.readouterr().out
    assert "embeddable: yes (4 histories, 2 slots, base dim 2," in out
    assert "hpo family: valid" in out
    assert "homogeneous members: 4/4" in out


def test_hpo_check_over_the_dense_budget(tmp_path, capsys, monkeypatch):
    # With the budget below one 16 x 16 matrix, the completeness total of a
    # 4-slot qubit family cannot be built; the tree certificate needs none.
    monkeypatch.setattr(hpo, "_MAX_DENSE_BYTES", 16 * 8 * 8)
    fam = from_product(2, [0.0, 1.0, 2.0, 3.0], [[P0, P1]] * 4)
    path = _write(tmp_path, fam)
    assert main(["hpo-check", path]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "hpo family: valid",
        "homogeneous members: 16/16",
    ]


def _near_basis(eps):
    """{|0><0|, |v><v|}, v = (eps, 1) normalized: exact projectors, eps from
    orthogonal and from complete."""
    v = np.array([eps, 1.0]) / np.hypot(eps, 1.0)
    return [P0, np.outer(v, v).astype(complex)]


def test_hpo_check_not_decided_over_the_dense_budget(tmp_path, capsys, monkeypatch):
    # Each slot's decomposition misses completeness by 0.6e-9 off the
    # diagonal.  The dense total of four slots is off by about that much
    # too, but the certificate adds the slots' defects and exceeds tol.
    fam = from_product(2, [0.0, 1.0, 2.0, 3.0], [_near_basis(0.6e-9)] * 4)
    path = _write(tmp_path, fam)
    assert main(["hpo-check", path]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "hpo family: valid"
    monkeypatch.setattr(hpo, "_MAX_DENSE_BYTES", 16 * 8 * 8)
    assert main(["hpo-check", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    head, _, tail = lines[1].partition("not decided (bound ")
    assert head == "hpo family: "
    assert tail.endswith(" > tol 1e-09, dense total over the byte budget)")
    assert 1e-9 < float(tail.split()[0]) < 1e-8
    assert lines[2] == "homogeneous members: 16/16"


def test_hpo_check_embeds_at_the_given_tol(tmp_path, capsys):
    # (1 + 3e-8)|0><0| is a projector within 1e-6 but not within 1e-9.
    a = (1 + 3e-8) * P0
    fam = BranchingFamily(2, [Moment(0, None, 0.0, None), Moment(1, 0, 1.0, a),
                              Moment(2, 0, 1.0, np.eye(2) - a)],
                          maximally_mixed(2), TrivialEvolution(2))
    path = _write(tmp_path, fam)
    assert main(["hpo-check", path, "--tol", "1e-6"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "embeddable: yes (2 histories, 1 slots, base dim 2, history space dim 2)",
        "hpo family: valid",
        "homogeneous members: 2/2",
    ]
    assert main(["hpo-check", path]) == 1


def test_hpo_check_mismatched_grid(tmp_path, capsys):
    path = _write(tmp_path, fig2_family())
    assert main(["hpo-check", path]) == 0
    assert "embeddable: no" in capsys.readouterr().out


# -- deep trees ---------------------------------------------------------------

def test_deep_chain_document(tmp_path, capsys):
    # A 2000-node chain is far deeper than Python's recursion limit.
    moments = [Moment(0, None, 0.0, None)]
    moments += [Moment(i, i - 1, float(i), np.eye(2)) for i in range(1, 2000)]
    fam = BranchingFamily(2, moments, maximally_mixed(2), TrivialEvolution(2))
    path = _write(tmp_path, fam)
    assert weight_table(load_document((tmp_path / "family.json").read_bytes())).tolist() == [1.0]
    for command in ("validate", "weights", "consistency", "hpo-check"):
        assert main([command, path]) == 0, command
    out = capsys.readouterr().out
    assert "sum = 1.0" in out
    assert "verdict: consistent" in out
    assert "embeddable: no" in out


# -- export-dot ---------------------------------------------------------------

def test_export_dot_command(tmp_path, capsys):
    path = _write(tmp_path, fig2_family())
    assert main(["export-dot", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph family {")
    assert out.count("->") == 7
    assert "W=" not in out


def test_export_dot_with_weights(tmp_path, capsys):
    path = _write(tmp_path, branch_no_prod_family())
    assert main(["export-dot", path, "--weights"]) == 0
    out = capsys.readouterr().out
    assert out.count("W=") == 4


# -- demos ---------------------------------------------------------------------

def _demo_lines(capsys, name):
    assert main(["demo", name]) == 0
    return capsys.readouterr().out.splitlines()


def test_demo_fig2(capsys):
    lines = _demo_lines(capsys, "fig2")
    assert lines[0] == "demo: fig2"
    doc_line = lines[lines.index("document:") + 1]
    doc = json.loads(doc_line)
    assert len(doc["nodes"]) == 8
    weights_line = next(l for l in lines if l.startswith("weights: "))
    values = [float(v) for v in weights_line.split()[1:]]
    assert len(values) == 5
    assert sum(values) == pytest.approx(1.0, abs=1e-12)
    assert any(l.startswith("sum = ") and l.endswith("; branching family")
               for l in lines)


def test_demo_document_feeds_back_into_the_cli(tmp_path, capsys):
    lines = _demo_lines(capsys, "fig2")
    doc_line = lines[lines.index("document:") + 1]
    path = _write_text(tmp_path, doc_line)
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out.strip() == "OK"
    assert main(["weights", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 7  # header, five histories, sum


def test_demo_branch_no_prod(capsys):
    lines = _demo_lines(capsys, "branch-no-prod")
    assert "weights: 0.5 0.0 0.25 0.25" in lines
    assert "sum = 1.0; branching family" in lines
    assert lines[-1] == "product-shaped: no"


def test_demo_isham_hpo(capsys):
    lines = _demo_lines(capsys, "isham-hpo")
    assert lines[0] == "demo: isham-hpo"
    assert "hpo family: valid" in lines
    assert "weights: 0.25 0.25 1.0 0.0" in lines
    assert "sum = 1.5; NOT a branching family" in lines


def test_demo_isham_reversed(capsys):
    lines = _demo_lines(capsys, "isham-reversed")
    assert "weights: 0.0 0.0 1.0 0.0" in lines
    assert "sum = 1.0; branching family" in lines


def test_demo_rejects_unknown_name(capsys):
    assert main(["demo", "nope"]) == 64
    capsys.readouterr()


# -- one parser per process, one exit code for unexpected errors --------------

def _outcomes(calls, capsys, fresh: bool):
    out = []
    for argv in calls:
        if fresh:
            cli._build_parser.cache_clear()
        code = main(argv)
        captured = capsys.readouterr()
        out.append((code, captured.out, captured.err))
    return out


def test_cached_parser_answers_like_a_fresh_one(tmp_path, capsys):
    path = _write(tmp_path, fig2_family())
    sequences = [
        [["weights", "--nope", path], ["weights", path]],  # usage error, then a valid call
        [["consistency", path], ["hpo-check", path]],
        [["weights", "--csv", path], ["weights", path], ["consistency", "--weak", path],
         ["consistency", path], ["demo", "fig2"], ["validate"]],
    ]
    for calls in sequences:
        fresh = _outcomes(calls, capsys, fresh=True)
        cli._build_parser.cache_clear()
        assert _outcomes(calls, capsys, fresh=False) == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 0, 64]
    assert cli._build_parser() is cli._build_parser()


@pytest.mark.parametrize("error,line", [
    (ValueError("bad value\nsecond line"), "internal error: ValueError: bad value second line"),
    (MemoryError(), "internal error: MemoryError"),
    (MemoryError("Unable to allocate 4.00 GiB"),
     "internal error: MemoryError: Unable to allocate 4.00 GiB"),
], ids=["value-error", "memory-error", "memory-error-with-message"])
def test_unexpected_errors_exit_70_with_one_line(tmp_path, capsys, monkeypatch, error, line):
    path = _write(tmp_path, fig2_family())

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr("qhistories.cli.weight_table", fail)
    assert main(["weights", path]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"
    # Expected failures keep their own codes.
    monkeypatch.undo()
    assert main(["weights", path]) == 0


# -- a reader that closes stdout early -----------------------------------------

@pytest.mark.parametrize("fails", ["write", "flush"])
def test_a_closed_stdout_exits_141_and_silences_stdout(tmp_path, capsys, monkeypatch, fails):
    # Unbuffered, the closed pipe shows at a print; block-buffered, at main's flush.
    with open(tmp_path / "pipe", "wb") as pipe:

        class ClosedPipe(io.StringIO):
            def fileno(self):
                return pipe.fileno()

        def broken(*args):
            raise BrokenPipeError(32, "Broken pipe")

        stdout = ClosedPipe()
        setattr(stdout, fails, broken)
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["demo", "fig2"]) == 141
        monkeypatch.undo()
        assert capsys.readouterr().err == ""
        # The descriptor now writes to os.devnull, so a last flush stays quiet.
        os.write(pipe.fileno(), b"lost")
    assert (tmp_path / "pipe").read_bytes() == b""


def test_a_pipe_closed_before_the_first_byte_ends_the_process_with_141():
    import qhistories

    src = str(Path(qhistories.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-c", "from qhistories.cli import run; run()",
                               "demo", "fig2"], stdout=write, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, b"")


def test_several_roots_at_a_small_dim_reach_validate(tmp_path, capsys):
    path = _write_text(tmp_path, json.dumps({
        "dim": 2, "dynamics": {"kind": "trivial"}, "initial_state": "maximally_mixed",
        "nodes": [{"id": k, "time": 0.0} for k in range(3)]}))
    assert main(["validate", path]) == 1
    assert "expected exactly one root, found 3" in capsys.readouterr().out
