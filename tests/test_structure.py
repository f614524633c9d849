"""Branching family construction, validation and history extraction."""

import dataclasses
import itertools
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import (
    PROVIDER_KINDS,
    haar_unitary,
    random_decomposition,
    random_density,
    random_family,
    random_provider,
)
from helpers import embed_family as oracle_embed_family
from helpers import histories as oracle_histories
from helpers import leaf_chains as oracle_leaf_chains
from helpers import validate as oracle_validate
from qhistories import (
    BranchingFamily,
    EmbeddingError,
    HistorySequence,
    InvalidFamilyError,
    Moment,
    PiecewiseUnitary,
    TrivialEvolution,
    embed_family,
    family_decoherence_matrix,
    from_product,
    load_document,
    maximally_mixed,
    new_family,
    serialize_family,
    weight_table,
)
from qhistories import hpo
from qhistories.chain import _gram, _leaf_chains, _weights
from qhistories.demos import P0, P1, P_MINUS, P_PLUS, branch_no_prod_family, fig2_family
from qhistories.linalg import DEFAULT_TOL

I2 = np.eye(2, dtype=complex)


# -- HistorySequence ---------------------------------------------------------

def test_sequence_orders_and_coerces():
    seq = HistorySequence(((0, P0), (1, P1)))
    assert seq.times == (0.0, 1.0)
    assert seq.dim == 2
    assert len(seq) == 2


def test_sequence_rejects_bad_times_and_dims():
    with pytest.raises(ValueError, match="increasing"):
        HistorySequence(((1.0, P0), (0.5, P1)))
    with pytest.raises(ValueError, match="increasing"):
        HistorySequence(((1.0, P0), (1.0, P1)))
    with pytest.raises(ValueError, match="mixed"):
        HistorySequence(((0.0, P0), (1.0, np.eye(3))))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 10 ** 400],
                         ids=["nan", "inf", "-inf", "overflow"])
def test_sequence_refuses_non_finite_times(bad):
    # A NaN step time passed the order check, and its weight came out NaN.
    for steps in (((bad, P0),), ((0.0, P0), (bad, P1)), ((bad, P0), (0.0, P1))):
        with pytest.raises(ValueError, match=f"step time {bad} is not finite"):
            HistorySequence(steps)


def test_empty_sequence_is_allowed():
    seq = HistorySequence(())
    assert len(seq) == 0
    assert seq.dim is None


# -- constructors ------------------------------------------------------------

def test_new_family_single_root():
    fam = new_family(2, 0.0)
    assert len(fam) == 1
    assert fam.root().projector is None
    hists = fam.histories()
    assert len(hists) == 1 and len(hists[0]) == 0
    assert_allclose(weight_table(fam), [1.0])


def test_new_family_explicit_state():
    fam = new_family(2, 0.0, P0)
    assert_allclose(fam.initial_state, P0)


def test_new_family_rejects_bad_state():
    with pytest.raises(ValueError, match="density"):
        new_family(2, 0.0, np.diag([0.5, 0.4]))
    with pytest.raises(ValueError, match="unknown initial state"):
        new_family(2, 0.0, "thermal")


def test_new_family_rejects_mismatched_evolution():
    with pytest.raises(ValueError, match="dimension"):
        new_family(2, 0.0, evolution=TrivialEvolution(3))


def test_extend_builds_binary_family():
    fam = new_family(2, 0.0).extend(0, [P0, P1], [1.0, 1.0])
    assert len(fam) == 3
    hists = fam.histories()
    assert len(hists) == 2
    assert_allclose(hists[0].projectors[0], P0)
    assert_allclose(hists[1].projectors[0], P1)
    assert hists[0].times == (0.0,)


def test_extend_is_persistent():
    base = new_family(2, 0.0)
    extended = base.extend(0, [P0, P1], [1.0, 1.0])
    assert len(base) == 1
    assert len(extended) == 3


def test_extend_allows_unequal_child_times():
    fam = new_family(2, 0.0).extend(0, [P0, P1], [1.0, 2.5])
    children = fam.children_of(0)
    assert children[0].time == 1.0
    assert children[1].time == 2.5
    assert fam.validate().ok


def test_new_family_rejects_non_finite_root_times():
    for bad in (np.nan, np.inf, -np.inf, 10 ** 400):
        with pytest.raises(ValueError, match=f"root time {bad} is not finite"):
            new_family(2, bad)


def test_extend_errors():
    fam = new_family(2, 0.0).extend(0, [P0, P1], [1.0, 1.0])
    with pytest.raises(ValueError, match="not a leaf"):
        fam.extend(0, [P0, P1], [2.0, 2.0])
    with pytest.raises(ValueError, match="not after"):
        fam.extend(1, [P0, P1], [1.0, 2.0])
    with pytest.raises(ValueError, match="child times"):
        fam.extend(1, [P0, P1], [2.0])
    with pytest.raises(ValueError, match="decomposition"):
        fam.extend(1, [P0, P_PLUS], [2.0, 2.0])
    with pytest.raises(ValueError, match="no node"):
        fam.extend(99, [P0, P1], [2.0, 2.0])
    for bad in (np.nan, np.inf, 10 ** 400):
        with pytest.raises(ValueError, match=f"child time {bad} is not finite"):
            fam.extend(1, [P0, P1], [2.0, bad])


def test_fig2_shape():
    fam = fig2_family()
    assert len(fam) == 8
    hists = fam.histories()
    assert len(hists) == 5
    # Three histories run through the first branch (time 1.0), two
    # through the second (time 1.5).
    second_step_times = [h.times[1] for h in hists]
    assert second_step_times.count(1.0) == 3
    assert second_step_times.count(1.5) == 2
    assert all(h.times[0] == 0.0 for h in hists)


# -- validate ----------------------------------------------------------------

def test_constructed_families_validate_clean():
    assert fig2_family().validate().ok
    assert branch_no_prod_family().validate().ok


def test_validate_reports_incomplete_siblings():
    # Hand-assembled family whose siblings repeat a projector: neither
    # orthogonal nor complete.
    moments = [
        Moment(0, None, 0.0, None),
        Moment(1, 0, 1.0, P0),
        Moment(2, 0, 1.0, P0),
    ]
    fam = BranchingFamily(2, moments, maximally_mixed(2), TrivialEvolution(2))
    report = fam.validate()
    kinds = {issue.kind for issue in report.issues}
    assert "orthogonality" in kinds
    assert "completeness" in kinds
    named = {n for issue in report.issues for n in issue.nodes}
    assert {1, 2} <= named


def test_validate_reports_time_order():
    moments = [
        Moment(0, None, 1.0, None),
        Moment(1, 0, 0.5, P0),
        Moment(2, 0, 1.5, P1),
    ]
    fam = BranchingFamily(2, moments, maximally_mixed(2), TrivialEvolution(2))
    issues = [i for i in fam.validate().issues if i.kind == "time-order"]
    assert len(issues) == 1
    assert issues[0].nodes == (0, 1)


def test_validate_reports_tree_problems():
    moments = [
        Moment(0, None, 0.0, None),
        Moment(1, 7, 1.0, P0),
    ]
    fam = BranchingFamily(2, moments, maximally_mixed(2), TrivialEvolution(2))
    kinds = {issue.kind for issue in fam.validate().issues}
    assert "tree" in kinds


def test_validate_reports_root_projector_and_zero():
    moments = [
        Moment(0, None, 0.0, None),
        Moment(1, 0, 1.0, np.zeros((2, 2))),
        Moment(2, 0, 1.0, I2),
    ]
    fam = BranchingFamily(2, moments, maximally_mixed(2), TrivialEvolution(2))
    report = fam.validate()
    assert any(i.kind == "zero-projector" for i in report.issues)


def test_extend_and_from_product_name_the_failing_check():
    with pytest.raises(ValueError, match="within tol=1e-09: zero member 0$"):
        new_family(2, 0.0).extend(0, [np.zeros((2, 2)), I2], [1.0, 1.0])
    v = np.array([np.cos(0.3), np.sin(0.3)])
    with pytest.raises(ValueError, match="within tol=1e-09: members 0 and 1 not orthogonal$"):
        from_product(2, [0.0], [[P0, np.outer(v, v)]])


def test_zero_projectors_never_mark_a_family_valid():
    # extend refuses a zero member, and a hand-built family with one does
    # not get past the checks of later computations.
    with pytest.raises(ValueError, match="decomposition of the identity"):
        new_family(2, 0.0).extend(0, [np.zeros((2, 2)), I2], [1.0, 1.0])
    moments = [
        Moment(0, None, 0.0, None),
        Moment(1, 0, 1.0, np.zeros((2, 2))),
        Moment(2, 0, 1.0, I2),
    ]
    fam = BranchingFamily(2, moments, maximally_mixed(2), TrivialEvolution(2))
    with pytest.raises(InvalidFamilyError):
        weight_table(fam)


VALIDITY_TOLS = (0.0, 1e-12, 1e-9, 1e-6, 0.3, 0.6)


def _fourier_family(tol=DEFAULT_TOL):
    # Exact d = 4 Fourier-basis projectors: every entry is 1/4 in magnitude,
    # so from tol 0.25 on each member counts as the zero matrix.
    phases = np.array([1, 1j, -1, -1j])
    ops = [np.outer(v, v.conj()) for v in phases[np.outer(range(4), range(4)) % 4].T / 2]
    return from_product(4, [0.0], [ops], tol=tol)


def _extended_family(tol=DEFAULT_TOL):
    fam = new_family(2, 0.0, tol=tol).extend(0, [P0, P1], [1.0, 2.0], tol=tol)
    return fam.extend(2, [P_PLUS, P_MINUS], [3.0, 3.0], tol=tol)


def _random_product_family(tol=DEFAULT_TOL):
    rng = np.random.default_rng(71)
    return from_product(3, [0.0, 1.0], [random_decomposition(3, 3, rng) for _ in range(2)],
                        evolution=random_provider(3, rng, "hamiltonian"), tol=tol)


def _loaded_family(tol=DEFAULT_TOL):
    return load_document(serialize_family(random_family(np.random.default_rng(72))), tol)


@pytest.mark.parametrize("build", [_fourier_family, _extended_family, _random_product_family,
                                   _loaded_family])
def test_ensure_valid_raises_exactly_when_validate_fails(build):
    # The validity mark holds at the tolerance it was set at and no other:
    # the zero-projector check tightens as tol grows while the others loosen.
    def refused(fam, tol):
        try:
            fam.ensure_valid(tol)
        except InvalidFamilyError:
            return True
        return False

    def agree(fam, tol, ensure_first):
        if ensure_first:
            no = refused(fam, tol)
            ok = fam.validate(tol).ok
        else:
            ok = fam.validate(tol).ok
            no = refused(fam, tol)
        assert no == (not ok), tol
        return ok

    verdicts = set()
    for ensure_first in (True, False):
        for built_at in VALIDITY_TOLS:
            try:
                built = build(built_at)
            except ValueError:  # not a decomposition at that tol
                continue
            for tol in VALIDITY_TOLS:
                verdicts.add(agree(build(built_at), tol, ensure_first))
            # One family checked at every tol in turn, up and then down.
            for tol in VALIDITY_TOLS + VALIDITY_TOLS[::-1]:
                agree(built, tol, ensure_first)
    assert verdicts == {False, True}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_validate_reports_nan_projectors_and_nan_sums():
    # A NaN entry makes every norm NaN: the projector check and the
    # completeness check fail, the orthogonality check does not.
    for bad in (np.nan, np.inf):
        nan = P0.copy()
        nan[0, 1] = bad
        moments = [
            Moment(0, None, 0.0, None),
            Moment(1, 0, 1.0, nan),
            Moment(2, 0, 1.0, P1),
        ]
        fam = BranchingFamily(2, moments, maximally_mixed(2), TrivialEvolution(2))
        assert [(i.kind, i.nodes) for i in fam.validate().issues] == [
            ("projector", (1,)), ("completeness", (0, 1, 2))]


def test_validate_reports_a_projector_that_is_not_an_array():
    moments = [
        Moment(0, None, 0.0, None),
        Moment(1, 0, 1.0, P0.tolist()),
        Moment(2, 0, 1.0, P1),
    ]
    fam = BranchingFamily(2, moments, maximally_mixed(2), TrivialEvolution(2))
    assert [(i.kind, i.nodes, i.message) for i in fam.validate().issues] == [
        ("dimension", (1,), "projector of type list does not match dim 2")]
    assert repr(moments[1]) == "Moment(id=1, parent=0, time=1.0, projector of type list)"
    assert [m.id for m in fam.leaves()] == [1, 2]
    with pytest.raises(InvalidFamilyError):
        weight_table(fam)


def test_validate_reports_bad_state_and_dynamics():
    moments = [Moment(0, None, 0.0, None)]
    fam = BranchingFamily(2, moments, np.diag([0.5, 0.4]), TrivialEvolution(3))
    kinds = {issue.kind for issue in fam.validate().issues}
    assert "initial-state" in kinds
    assert "dynamics" in kinds


def test_computations_refuse_unvalidated_families():
    moments = [
        Moment(0, None, 0.0, None),
        Moment(1, 0, 1.0, P0),
    ]
    fam = BranchingFamily(2, moments, maximally_mixed(2), TrivialEvolution(2))
    with pytest.raises(InvalidFamilyError) as exc_info:
        fam.histories()
    assert 1 in exc_info.value.nodes
    with pytest.raises(InvalidFamilyError):
        weight_table(fam)


def test_duplicate_ids_rejected_at_construction():
    moments = [Moment(0, None, 0.0, None), Moment(0, None, 1.0, None)]
    with pytest.raises(ValueError, match="duplicate"):
        BranchingFamily(2, moments, maximally_mixed(2), TrivialEvolution(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 10 ** 400],
                         ids=["nan", "inf", "-inf", "overflow"])
def test_hand_built_families_refuse_non_finite_times(bad):
    # As every other constructor and the reader do; a NaN time was a
    # time-order issue, and an infinite leaf time validated.
    moments = [Moment(0, None, 0.0, None), Moment(1, 0, bad, P0), Moment(2, 0, 1.0, P1)]
    with pytest.raises(ValueError, match=f"node time {bad} is not finite"):
        BranchingFamily(2, moments, maximally_mixed(2), TrivialEvolution(2))


def test_empty_family_reports_no_root():
    fam = BranchingFamily(2, [], maximally_mixed(2), TrivialEvolution(2))
    assert str(fam.validate()) == "tree: expected exactly one root, found 0"
    assert (len(fam), fam.moments, fam.leaves()) == (0, (), ())


# -- histories ---------------------------------------------------------------

def test_histories_pair_projectors_with_parent_times():
    fam = branch_no_prod_family()
    hists = fam.histories()
    assert [h.times for h in hists] == [(0.0, 1.0)] * 4
    assert_allclose(hists[0].projectors[0], P0)
    assert_allclose(hists[0].projectors[1], P0)
    assert_allclose(hists[2].projectors[0], P1)
    assert_allclose(hists[2].projectors[1], P_PLUS)


def test_history_of_leaf_matches_dfs_order():
    fam = branch_no_prod_family()
    hists = fam.histories()
    for leaf, expected in zip(fam.leaves(), hists):
        got = fam.history_of_leaf(leaf.id)
        assert got.times == expected.times
        for p, q in zip(got.projectors, expected.projectors):
            assert np.array_equal(p, q)


def _same_sequence(got, expected):
    """Equal times, dims and projector bytes and dtypes."""
    assert type(got) is HistorySequence
    assert got.times == expected.times
    assert all(type(t) is float for t in got.times)
    assert got.dim == expected.dim and len(got) == len(expected)
    for p, q in zip(got.projectors, expected.projectors):
        assert p.dtype == q.dtype and p.tobytes() == q.tobytes()


@pytest.mark.parametrize("kind", PROVIDER_KINDS)
def test_histories_equal_checked_sequences(kind):
    # histories() and history_of_leaf skip HistorySequence's checks on a
    # validated family; their sequences must be the checked ones.
    # Both read the node store: no Moment view is built for them.
    for seed in range(4):
        fam = random_family(np.random.default_rng(900 + seed), kind=kind)
        leaves = [leaf.id for leaf in fam.leaves()]
        with mock.patch.object(BranchingFamily, "_views", side_effect=AssertionError):
            hists = fam.histories()
            by_leaf = [fam.history_of_leaf(leaf) for leaf in leaves]
        assert len(hists) == len(leaves)
        for h, got in zip(hists, by_leaf):
            _same_sequence(h, HistorySequence(h.steps))
            _same_sequence(got, HistorySequence(h.steps))


def test_histories_coerce_hand_built_steps():
    # Integer times and real projectors come out as floats and complex
    # arrays, as HistorySequence would make them.
    moments = (Moment(0, None, 0, None), Moment(1, 0, 1, np.diag([1.0, 0.0])),
               Moment(2, 0, 1, np.diag([0, 1])), Moment(3, 1, 2, np.eye(2)))
    fam = BranchingFamily(2, moments, maximally_mixed(2), TrivialEvolution(2))
    expected = [HistorySequence(((0, np.diag([1.0, 0.0])), (1, np.eye(2)))),
                HistorySequence(((0, np.diag([0, 1])),))]
    for got, want in zip(fam.histories(), expected):
        _same_sequence(got, want)
    _same_sequence(fam.history_of_leaf(3), expected[0])


def test_leaf_times_are_metadata_only():
    # Two families differing only in leaf times produce identical
    # histories.
    f1 = new_family(2, 0.0).extend(0, [P0, P1], [1.0, 1.0])
    f2 = new_family(2, 0.0).extend(0, [P0, P1], [7.0, 9.0])
    for h1, h2 in zip(f1.histories(), f2.histories()):
        assert h1.times == h2.times
        for p, q in zip(h1.projectors, h2.projectors):
            assert np.array_equal(p, q)


# -- from_product ------------------------------------------------------------

def test_from_product_counts_and_lex_order():
    fam = from_product(2, [0.0, 1.0], [[P0, P1], [P_PLUS, P_MINUS]])
    hists = fam.histories()
    assert len(hists) == 4
    expected = list(itertools.product([P0, P1], [P_PLUS, P_MINUS]))
    for hist, combo in zip(hists, expected):
        for p, q in zip(hist.projectors, combo):
            assert np.array_equal(p, q)
    assert fam.validate().ok


def test_from_product_identity_single_history():
    fam = from_product(2, [0.0], [[I2]])
    assert len(fam.histories()) == 1


def test_from_product_mixed_sizes():
    d3 = [np.diag([1.0, 0, 0]).astype(complex),
          np.diag([0, 1.0, 0]).astype(complex),
          np.diag([0, 0, 1.0]).astype(complex)]
    d2 = [np.diag([1.0, 1.0, 0]).astype(complex),
          np.diag([0, 0, 1.0]).astype(complex)]
    fam = from_product(3, [0.0, 1.0], [d3, d2])
    assert len(fam.histories()) == 6


def test_from_product_rejects_bad_times():
    with pytest.raises(ValueError, match="increasing"):
        from_product(2, [1.0, 0.5], [[P0, P1], [P0, P1]])
    with pytest.raises(ValueError, match="times"):
        from_product(2, [0.0], [[P0, P1], [P0, P1]])
    for times in ([0.0, np.nan, 2.0], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0], [0.0, 10 ** 400]):
        with pytest.raises(ValueError, match="time .* is not finite"):
            from_product(2, times, [[P0, P1]] * 3)
    # times[-1] + 1 == times[-1]: the leaves would be no later than their parents.
    for times in ([0.0, 1e17], [2.0 ** 53], [-1e300]):
        with pytest.raises(ValueError, match=re.escape(f"leaf time {times[-1]} + 1 is not after")):
            from_product(2, times, [[P0, P1]] * len(times))


def _product_by_extend(dim, times, decompositions, initial_state, evolution):
    """Reference: the product family grown one leaf at a time."""
    fam = new_family(dim, times[0], initial_state, evolution)
    for i, decomposition in enumerate(decompositions):
        t_next = times[i + 1] if i + 1 < len(times) else times[-1] + 1.0
        for leaf in fam.leaves():
            fam = fam.extend(leaf.id, decomposition, [t_next] * len(decomposition))
    return fam


def _passes_ensure_valid(fam):
    try:
        fam.ensure_valid()
    except InvalidFamilyError:
        return False
    return True


@pytest.mark.parametrize("kind", [*PROVIDER_KINDS, "unitary_table_gap"])
def test_from_product_matches_extend_reference(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    for _ in range(4):
        dim = int(rng.integers(2, 5))
        steps = int(rng.integers(1, 4))
        times = np.cumsum(rng.uniform(0.2, 1.0, size=steps)).tolist()
        decompositions = [random_decomposition(dim, int(rng.integers(1, dim + 1)), rng)
                          for _ in range(steps)]
        grid = times + [times[-1] + 1.0, times[-1] + 2.0]
        if kind == "unitary_table_gap":
            # The table misses one branching time, so neither family is valid.
            del grid[int(rng.integers(steps))]
        provider = random_provider(dim, rng, kind.removesuffix("_gap"), grid=grid)
        rho = random_density(dim, rng)
        fam = from_product(dim, times, decompositions, rho, provider)
        reference = _product_by_extend(dim, times, decompositions, rho, provider)
        assert serialize_family(fam) == serialize_family(reference)
        valid = _passes_ensure_valid(fam)
        assert valid == _passes_ensure_valid(reference)
        assert valid == (kind != "unitary_table_gap")


def test_is_product_shaped():
    fam = from_product(2, [0.0, 1.0], [[P0, P1], [P_PLUS, P_MINUS]])
    assert fam.is_product_shaped()
    assert not branch_no_prod_family().is_product_shaped()
    assert new_family(2, 0.0).is_product_shaped()
    assert not fig2_family().is_product_shaped()
    # Leaf times are metadata: only times of nodes with children must agree.
    fam = new_family(2, 0.0).extend(0, [P0, P1], [1.0, 1.0])
    fam = fam.extend(1, [P0, P1], [2.0, 2.0])
    assert fam.extend(2, [P0, P1], [2.0, 2.0]).is_product_shaped()
    assert fam.extend(2, [P0, P1], [2.0, 3.0]).is_product_shaped()
    fam = new_family(2, 0.0).extend(0, [P0, P1], [1.0, 1.5])
    fam = fam.extend(1, [P0, P1], [2.0, 2.0])
    assert not fam.extend(2, [P0, P1], [2.0, 2.0]).is_product_shaped()


def _levels(fam):
    """Node lists of each depth of a family, root first."""
    levels = [[fam.root()]]
    while levels[-1]:
        levels.append([c for m in levels[-1] for c in fam.children_of(m.id)])
    return levels[:-1]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 32 - 1))
def test_is_product_shaped_over_product_families(seed):
    rng = np.random.default_rng(seed)
    dim, steps = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    decomps = [random_decomposition(dim, int(rng.integers(2, dim + 1)), rng)
               for _ in range(steps)]
    times = np.cumsum(rng.uniform(0.2, 1.0, size=steps)).tolist()
    fam = from_product(dim, times, decomps, random_density(dim, rng))
    assert fam.is_product_shaped()
    # Leaf times enter no history, so moving some leaves keeps the shape.
    shift = {m.id: float(rng.uniform(0.1, 1.0)) for m in fam.leaves() if rng.random() < 0.5}
    moved = BranchingFamily(dim, [dataclasses.replace(m, time=m.time + shift.get(m.id, 0.0))
                                  for m in fam.moments], fam.initial_state, fam.evolution)
    assert moved.validate().ok
    assert moved.is_product_shaped()
    # One node below the root gets another decomposition of its own.
    level = _levels(fam)[int(rng.integers(1, steps))]
    kids = fam.children_of(level[int(rng.integers(len(level)))].id)
    other = dict(zip((c.id for c in kids), random_decomposition(dim, len(kids), rng)))
    moments = [dataclasses.replace(m, projector=other.get(m.id, m.projector))
               for m in fam.moments]
    perturbed = BranchingFamily(dim, moments, fam.initial_state, fam.evolution)
    assert perturbed.validate().ok
    assert not perturbed.is_product_shaped()


# -- randomized properties -----------------------------------------------------

CORRUPTIONS = ("non-projector", "scaled", "zero", "wrong-shape", "nan", "inf",
               "duplicate-sibling", "drop-node", "bad-time", "missing-parent", "unreachable",
               "second-root")


def _corrupt(fam, kinds, rng):
    """``fam`` rebuilt with each corruption of ``kinds`` applied in turn."""
    dim = fam.dim
    moments = list(fam.moments)
    ids = itertools.count(max(m.id for m in moments) + 1)
    for kind in kinds:
        spare = random_decomposition(dim, dim, rng)[0]
        if kind == "unreachable":
            a, b = next(ids), next(ids)
            moments += [Moment(a, b, 1.0, spare), Moment(b, a, 2.0, spare)]
            continue
        if kind == "second-root":
            moments.append(Moment(next(ids), None, 0.0, None))
            continue
        inner = [k for k, m in enumerate(moments) if m.parent is not None]
        if not inner:
            continue
        k = inner[int(rng.integers(len(inner)))]
        m = moments[k]
        p = m.projector if m.projector is not None else spare
        if kind == "non-projector":
            noise = rng.normal(size=p.shape) * 10.0 ** -rng.integers(2, 9)
            moments[k] = dataclasses.replace(m, projector=p + noise)
        elif kind == "scaled":  # Hermitian, but not idempotent
            moments[k] = dataclasses.replace(m, projector=p * (1 + 10.0 ** -rng.integers(2, 8)))
        elif kind == "zero":
            moments[k] = dataclasses.replace(m, projector=np.zeros((dim, dim)))
        elif kind == "wrong-shape":
            shape = [(dim + 1, dim + 1), (dim, dim + 1)][int(rng.integers(2))]
            moments[k] = dataclasses.replace(m, projector=np.eye(*shape))
        elif kind in ("nan", "inf"):
            p = np.array(p, dtype=complex)
            p[tuple(rng.integers(len(p), size=2))] = np.nan if kind == "nan" else np.inf
            moments[k] = dataclasses.replace(m, projector=p)
        elif kind == "duplicate-sibling":
            moments.insert(k + 1, dataclasses.replace(m, id=next(ids)))
        elif kind == "drop-node":
            del moments[k]
        elif kind == "bad-time":
            parent = next((q for q in moments if q.id == m.parent), m)
            moments[k] = dataclasses.replace(m, time=parent.time - rng.integers(2))
        elif kind == "missing-parent":
            moments[k] = dataclasses.replace(m, parent=next(ids))
    return BranchingFamily(dim, moments, fam.initial_state, fam.evolution)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 32 - 1), st.lists(st.sampled_from(CORRUPTIONS), max_size=4))
def test_validate_matches_the_node_by_node_oracle(seed, kinds):
    rng = np.random.default_rng(seed)
    fam = _corrupt(random_family(rng, max_depth=3), kinds, rng)
    assert str(fam.validate()) == str(oracle_validate(fam))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_validate_flags_match_the_oracle_on_mutated_families():
    # Each corruption under each provider, with a second one at random: the
    # rows flagged in bulk must give the node-by-node issues in their order.
    rng = np.random.default_rng(2024)
    kinds = set()
    for provider in PROVIDER_KINDS:
        for corruption in CORRUPTIONS:
            fam = random_family(rng, max_depth=3, kind=provider, stop_probability=0.0)
            extra = CORRUPTIONS[int(rng.integers(len(CORRUPTIONS)))]
            bad = _corrupt(fam, [corruption, extra], rng)
            report = bad.validate()
            assert str(report) == str(oracle_validate(bad))
            kinds |= {issue.kind for issue in report.issues}
    assert kinds == {"tree", "projector", "dimension", "zero-projector", "time-order",
                     "orthogonality", "completeness", "dynamics"}


def test_branch_times_are_checked_once_per_distinct_time(monkeypatch):
    rng = np.random.default_rng(5)
    grid = [float(t) for t in range(8)]
    table = PiecewiseUnitary(grid, [haar_unitary(2, rng) for _ in grid[1:]])
    checked = []
    covers = PiecewiseUnitary.covers
    monkeypatch.setattr(PiecewiseUnitary, "covers",
                        lambda self, t: checked.append(t) or covers(self, t))
    fam = from_product(2, grid[:6], [random_decomposition(2, 2, rng)] * 6, evolution=table)
    assert checked == grid[:6]  # one check per level as the levels grow
    checked.clear()
    fam._valid_tol = None
    assert fam.validate().ok and len(fam) == 127
    assert sorted(checked) == grid[:6]  # 63 branching nodes at 6 times
    checked.clear()
    grown = fam.extend(fam._nodes.ids[-1], [P0, P1], [7.0, 7.0])
    assert checked == [6.0] and grown._valid_tol == DEFAULT_TOL


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(PROVIDER_KINDS),
       st.sampled_from([0.0, 0.25, 1.0]))
def test_family_layout_matches_the_walk_oracles(seed, kind, stop_probability):
    # Stopping with probability 1 leaves a bare root, 0.25 unequal leaf depths.
    fam = random_family(np.random.default_rng(seed), kind=kind,
                        stop_probability=stop_probability)
    ks = oracle_leaf_chains(fam)
    assert _same_bytes(_leaf_chains(fam), ks)
    assert _same_bytes(weight_table(fam), _weights(ks, fam.initial_state, DEFAULT_TOL))
    assert _same_bytes(family_decoherence_matrix(fam), _gram(ks, fam.initial_state))

    expected = oracle_histories(fam)
    got = fam.histories()
    assert len(got) == len(expected)
    for h, e in zip(got, expected):
        assert h.times == e.times
        assert all(_same_bytes(p, q) for p, q in zip(h.projectors, e.projectors, strict=True))

    try:
        members, certified = oracle_embed_family(fam)
    except EmbeddingError as exc:
        with pytest.raises(EmbeddingError) as raised:
            embed_family(fam)
        assert str(raised.value) == str(exc)
        return
    flags = []
    certified_by = hpo._certified

    def recording(norms, tol):
        ok = certified_by(norms, tol)
        flags.extend(ok.tolist())
        return ok

    with mock.patch.object(hpo, "_certified", recording):
        embedded = embed_family(fam)
    assert flags == certified
    assert len(embedded) == len(members)
    for y, z in zip(embedded.members, members.members):
        assert y.slot_times == z.slot_times
        assert _same_bytes(y._stack, z._stack)


@pytest.mark.parametrize("seed", range(10))
def test_random_families_validate_clean(seed):
    fam = random_family(np.random.default_rng(1000 + seed))
    assert fam.validate().ok


@pytest.mark.parametrize("seed", range(10))
def test_exclusivity_witness(seed):
    # Any two distinct histories differ first at some step, where the
    # projectors are orthogonal siblings.
    fam = random_family(np.random.default_rng(2000 + seed))
    hists = fam.histories()
    for a in range(len(hists)):
        for b in range(a + 1, len(hists)):
            pa, pb = hists[a].projectors, hists[b].projectors
            for p, q in zip(pa, pb):
                if not np.array_equal(p, q):
                    assert np.max(np.abs(p @ q)) < 1e-9
                    break
            else:
                pytest.fail("histories do not differ within shared prefix")


def test_construction_invariance_under_interleaving():
    # The same tree assembled in different extend orders validates and
    # yields the same histories.
    decomp_a = [P0, P1]
    decomp_b = [P_PLUS, P_MINUS]

    def build(order):
        fam = new_family(2, 0.0).extend(0, decomp_a, [1.0, 1.0])
        first, second = (m.id for m in fam.leaves())
        targets = {"first": (first, decomp_a), "second": (second, decomp_b)}
        for key in order:
            leaf, decomp = targets[key]
            fam = fam.extend(leaf, decomp, [2.0, 2.0])
        return fam

    one = build(["first", "second"])
    two = build(["second", "first"])
    assert one.validate().ok and two.validate().ok
    h1, h2 = one.histories(), two.histories()
    assert len(h1) == len(h2) == 4
    for a, b in zip(h1, h2):
        for p, q in zip(a.projectors, b.projectors):
            assert np.array_equal(p, q)
