"""Coarse graining: sibling merges, product merges, additivity checks."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import (
    PROVIDER_KINDS,
    engineered_product_family,
    leaf_chains,
    loose_qubit_family,
    product_merge_weights,
    random_decomposition,
    random_density,
    random_family,
    sibling_merge,
    sibling_merge_weights,
)
from qhistories import (
    BranchingFamily,
    ConstantHamiltonian,
    HistorySequence,
    InvalidFamilyError,
    PiecewiseUnitary,
    TransBranchError,
    TrivialEvolution,
    decoherence_matrix,
    event_probability,
    from_product,
    intra_branch_sum,
    new_family,
    product_sum,
    verify_intra_additivity,
    verify_product_additivity,
    weight,
    weight_table,
)
from qhistories import coarse
from qhistories.coarse import _sibling_weights
from qhistories.demos import P0, P1, P_MINUS, P_PLUS, branch_no_prod_family

I2 = np.eye(2, dtype=complex)


# -- event_probability --------------------------------------------------------

def test_event_probability_extremes():
    table = weight_table(branch_no_prod_family())
    n = len(table)
    assert event_probability(table, range(n)) == pytest.approx(1.0, abs=1e-12)
    assert event_probability(table, []) == 0.0


def test_event_probability_hand_oracle():
    # branch-no-prod weights are (0.5, 0, 0.25, 0.25) by direct 2x2
    # computation; the event {first, third} has probability 0.75.
    table = weight_table(branch_no_prod_family())
    assert_allclose(table, [0.5, 0.0, 0.25, 0.25], atol=1e-12)
    assert event_probability(table, [0, 2]) == pytest.approx(0.75, abs=1e-12)


def test_event_probability_additive_over_disjoint_events():
    table = weight_table(branch_no_prod_family())
    a, b = [0, 3], [1, 2]
    union = event_probability(table, a + b)
    assert union == event_probability(table, a) + event_probability(table, b)
    assert event_probability(table, [0, 0, 3]) == event_probability(table, [0, 3])


def test_event_probability_range_check():
    with pytest.raises(ValueError, match="out of range"):
        event_probability([0.5, 0.5], [2])


# -- intra-branch sums --------------------------------------------------------

def test_intra_branch_sum_of_full_sibling_set_member():
    fam = branch_no_prod_family()
    # Leaves 5 and 6 sit under the Hadamard branch; their projectors sum
    # to the identity.
    merged = intra_branch_sum(fam, 5, 6)
    assert len(merged) == 2
    assert_allclose(merged.projectors[0], P1)
    assert_allclose(merged.projectors[1], I2, atol=1e-12)
    assert merged.times == (0.0, 1.0)


def test_intra_branch_sum_weight_additive():
    fam = branch_no_prod_family()
    assert verify_intra_additivity(fam, 5, 6)
    assert verify_intra_additivity(fam, 3, 4)


def test_intra_branch_sum_root_level():
    fam = new_family(2, 0.0).extend(0, [P0, P1], [1.0, 1.0])
    merged = intra_branch_sum(fam, 1, 2)
    assert len(merged) == 1
    assert_allclose(merged.projectors[0], I2)


def test_trans_branch_sum_refused():
    fam = branch_no_prod_family()
    with pytest.raises(TransBranchError, match="trans-branch sum undefined"):
        intra_branch_sum(fam, 3, 5)
    with pytest.raises(TransBranchError):
        verify_intra_additivity(fam, 4, 6)


def test_intra_branch_sum_argument_errors():
    fam = branch_no_prod_family()
    with pytest.raises(ValueError, match="not a leaf"):
        intra_branch_sum(fam, 1, 3)
    with pytest.raises(ValueError, match="itself"):
        intra_branch_sum(fam, 3, 3)
    with pytest.raises(ValueError, match="no node"):
        intra_branch_sum(fam, 3, 99)


def test_intra_branch_sum_validates_at_the_callers_tol():
    fam = loose_qubit_family()
    merged = intra_branch_sum(fam, 1, 2, tol=1e-6)
    assert merged.times == (0.0,)
    assert_allclose(merged.projectors[0], I2, rtol=0, atol=1e-15)
    assert verify_intra_additivity(fam, 1, 2, tol=1e-6)
    with pytest.raises(InvalidFamilyError):
        intra_branch_sum(fam, 1, 2)


@pytest.mark.parametrize("seed", range(8))
def test_intra_additivity_random_sibling_pairs(seed):
    fam = random_family(np.random.default_rng(5000 + seed))
    by_parent = {}
    for leaf in fam.leaves():
        by_parent.setdefault(leaf.parent, []).append(leaf.id)
    for siblings in by_parent.values():
        for i in range(len(siblings)):
            for j in range(i + 1, len(siblings)):
                assert verify_intra_additivity(fam, siblings[i], siblings[j])


# -- product sums -------------------------------------------------------------

def test_product_sum_merges_single_position():
    s1 = HistorySequence(((0.0, P0), (1.0, P_PLUS)))
    s2 = HistorySequence(((0.0, P0), (1.0, P_MINUS)))
    merged = product_sum(s1, s2)
    assert_allclose(merged.projectors[0], P0)
    assert_allclose(merged.projectors[1], I2, atol=1e-12)


def test_product_sum_interior_position():
    s1 = HistorySequence(((0.0, P0), (1.0, P0), (2.0, P_PLUS)))
    s2 = HistorySequence(((0.0, P0), (1.0, P1), (2.0, P_PLUS)))
    merged = product_sum(s1, s2)
    assert_allclose(merged.projectors[1], I2)


def test_product_sum_errors():
    s1 = HistorySequence(((0.0, P0), (1.0, P_PLUS)))
    with pytest.raises(ValueError, match="identical"):
        product_sum(s1, s1)
    # Differing at two positions.
    s2 = HistorySequence(((0.0, P1), (1.0, P_MINUS)))
    with pytest.raises(ValueError, match="exactly one"):
        product_sum(s1, s2)
    # Not orthogonal at the differing position.
    s3 = HistorySequence(((0.0, P0), (1.0, P1)))
    with pytest.raises(ValueError, match="orthogonal"):
        product_sum(s1, s3)
    # Different times.
    s4 = HistorySequence(((0.0, P0), (2.0, P_MINUS)))
    with pytest.raises(ValueError, match="times"):
        product_sum(s1, s4)
    with pytest.raises(ValueError, match="length"):
        product_sum(s1, HistorySequence(((0.0, P0),)))
    with pytest.raises(ValueError, match="empty"):
        product_sum(HistorySequence(()), HistorySequence(()))


def test_product_merges_of_mixed_dimensions_name_both():
    # Refused before any arithmetic, where numpy would fail to broadcast.
    s2 = HistorySequence(((0.0, P0),))
    s3 = HistorySequence(((0.0, np.diag([1.0, 0.0, 0.0])),))
    for merge in (lambda: product_sum(s2, s3),
                  lambda: verify_product_additivity(s2, s3, TrivialEvolution(2), I2 / 2)):
        with pytest.raises(ValueError, match="different dimensions 2 and 3"):
            merge()


def test_final_position_merge_is_always_additive():
    # Merging at the last position is the intra-branch case, additive
    # regardless of dynamics or state.
    fam = engineered_product_family(np.random.default_rng(60), dim=2, steps=2)
    hists = fam.histories()
    evolution, rho = fam.evolution, fam.initial_state
    additive, discrepancy = verify_product_additivity(
        hists[0], hists[1], evolution, rho)
    assert additive
    assert abs(discrepancy) < 1e-9


def test_interior_merge_discrepancy_matches_decoherence():
    # The failure of additivity is exactly twice the real part of the
    # pair's decoherence entry.
    rng = np.random.default_rng(61)
    fam = engineered_product_family(rng, dim=2, steps=3)
    hists = fam.histories()
    evolution, rho = fam.evolution, fam.initial_state
    d = decoherence_matrix(hists, evolution, rho)
    found_nontrivial = False
    for a in range(len(hists)):
        for b in range(a + 1, len(hists)):
            try:
                _, discrepancy = verify_product_additivity(
                    hists[a], hists[b], evolution, rho)
            except ValueError:
                continue
            expected = 2.0 * d[a, b].real
            assert discrepancy == pytest.approx(expected, abs=1e-9)
            if abs(discrepancy) > 1e-3:
                found_nontrivial = True
    assert found_nontrivial, "expected at least one interfering pair"


def test_consistent_product_family_merges_additively():
    # Same question twice under trivial dynamics: every summable pair
    # is additive.
    fam = from_product(2, [0.0, 1.0], [[P0, P1], [P0, P1]])
    hists = fam.histories()
    prov, rho = fam.evolution, fam.initial_state
    checked = 0
    for a in range(len(hists)):
        for b in range(a + 1, len(hists)):
            try:
                additive, _ = verify_product_additivity(hists[a], hists[b], prov, rho)
            except ValueError:
                continue
            assert additive
            checked += 1
    assert checked > 0


def test_product_sum_weight_matches_event_probability_when_consistent():
    fam = from_product(2, [0.0, 1.0], [[P0, P1], [P0, P1]])
    hists = fam.histories()
    table = weight_table(fam)
    merged = product_sum(hists[0], hists[1])
    w = weight(merged, fam.evolution, fam.initial_state)
    assert w == pytest.approx(event_probability(table, [0, 1]), abs=1e-12)


# -- merges read from chains --------------------------------------------------

def test_merges_build_no_chain_twice():
    # A sibling merge reads the family's leaf chains and builds no history;
    # a product merge builds the pair's two chains and adds them.
    fam = branch_no_prod_family()
    with mock.patch.object(BranchingFamily, "history_of_leaf", side_effect=AssertionError):
        assert verify_intra_additivity(fam, 5, 6)
    # The merged history is read from the node store, through no Moment view.
    expected = sibling_merge(fam, 5, 6)[2]
    with mock.patch.object(BranchingFamily, "_views", side_effect=AssertionError):
        merged = intra_branch_sum(fam, 5, 6)
    assert merged.times == expected.times
    assert all(_same_bytes(p, q) for p, q in zip(merged.projectors, expected.projectors))
    hists = engineered_product_family(np.random.default_rng(62), dim=2, steps=2).histories()
    with mock.patch.object(coarse, "chain_operator", wraps=coarse.chain_operator) as built:
        verify_product_additivity(hists[0], hists[1], fam.evolution, fam.initial_state)
    assert built.call_count == 2


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _fresh(provider):
    """A new provider built from what ``provider`` was built from."""
    if isinstance(provider, TrivialEvolution):
        return TrivialEvolution(provider.dim)
    if isinstance(provider, ConstantHamiltonian):
        return ConstantHamiltonian(provider.hamiltonian)
    return PiecewiseUnitary(provider.breakpoints, provider.unitaries)


def _additive(w_1: float, w_2: float, w_sum: float) -> bool:
    return abs(w_sum - (w_1 + w_2)) <= 1e-9


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(PROVIDER_KINDS))
def test_merges_from_chains_match_the_weight_oracle(seed, kind):
    rng = np.random.default_rng(seed)
    fam = random_family(rng, kind=kind, max_depth=3)
    leaves = fam.leaves()[:10]
    for a in leaves:
        for b in leaves:
            if a.id == b.id:
                continue
            if a.parent != b.parent:
                with pytest.raises(TransBranchError):
                    verify_intra_additivity(fam, a.id, b.id)
                continue
            w_a, w_b, w_sum = sibling_merge_weights(fam, a.id, b.id)
            assert verify_intra_additivity(fam, a.id, b.id) == _additive(w_a, w_b, w_sum)
            merged = intra_branch_sum(fam, a.id, b.id, 1e-9)
            got_sum, got_a, got_b = _sibling_weights(fam, a.id, b.id, 1e-9)
            assert _additive(got_a, got_b, got_sum) == _additive(w_a, w_b, w_sum)
            assert_allclose([got_a, got_b, got_sum], [w_a, w_b, w_sum], rtol=0, atol=1e-12)
            oracle = sibling_merge(fam, a.id, b.id)[2]
            assert merged.times == oracle.times
            assert len(merged) == len(oracle)
            assert all(_same_bytes(p, q) for p, q in zip(merged.projectors, oracle.projectors))

    chains = fam._chains
    assert not chains.flags.writeable
    assert _same_bytes(chains, leaf_chains(fam))

    # A product family under the same dynamics, for merges at every slot.
    evolution = fam.evolution
    if isinstance(evolution, PiecewiseUnitary):
        times = list(evolution.breakpoints[:3])
    else:
        times = np.cumsum(rng.uniform(0.1, 1.0, size=3)).tolist()
    parts = [int(rng.integers(1, fam.dim + 1)) for _ in times]
    product = from_product(fam.dim, times, [random_decomposition(fam.dim, k, rng) for k in parts],
                           random_density(fam.dim, rng), evolution)
    hist, rho = product.histories(), product.initial_state
    for i, j in rng.integers(len(hist), size=(12, 2)).tolist():
        try:
            w_1, w_2, w_sum = product_merge_weights(hist[i], hist[j], evolution, rho)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                verify_product_additivity(hist[i], hist[j], evolution, rho)
            assert str(raised.value) == str(exc)
            continue
        additive, gap = verify_product_additivity(hist[i], hist[j], evolution, rho)
        assert additive == _additive(w_1, w_2, w_sum)
        assert abs(gap - (w_sum - (w_1 + w_2))) <= 1e-12

    fresh = _fresh(evolution)
    node_times = sorted({m.time for m in fam.moments})[:4]
    for t_from in node_times:
        for t_to in node_times:
            for u in (evolution.propagator(t_from, t_to), evolution.propagator(t_from, t_to)):
                assert not u.flags.writeable
                assert _same_bytes(u, fresh.propagator(t_from, t_to))
