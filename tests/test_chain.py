"""Chain operators, weights and decoherence matrices."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import helpers
from helpers import (
    PROVIDER_KINDS,
    haar_unitary,
    hs_inner,
    random_decomposition,
    random_family,
    random_hermitian,
)
from qhistories import (
    ConstantHamiltonian,
    EvolutionProvider,
    HistorySequence,
    PiecewiseUnitary,
    TrivialEvolution,
    chain_operator,
    decoherence_matrix,
    evolved_state,
    family_decoherence_matrix,
    from_product,
    is_consistent,
    is_dynamically_impossible,
    is_weakly_consistent,
    new_family,
    verify_intra_additivity,
    weight,
    weight_table,
)
from qhistories.demos import P0, P1, P_PLUS
from qhistories.hpo import isham_histories

I2 = np.eye(2, dtype=complex)
RHO0 = P0  # the pure state |0><0|


def test_chain_empty_sequence_is_identity():
    prov = TrivialEvolution(2)
    assert_allclose(chain_operator(HistorySequence(()), prov), I2)
    assert weight(HistorySequence(()), prov, np.eye(2) / 2) == pytest.approx(1.0)


def test_chain_operator_oracle_hadamard_then_up():
    # K = |1><1| . |+><+| = (1/sqrt2)|1><+|, worked out by hand.
    seq = HistorySequence(((0.0, P_PLUS), (1.0, P1)))
    k = chain_operator(seq, TrivialEvolution(2))
    assert_allclose(k, np.array([[0, 0], [0.5, 0.5]]), atol=1e-12)


def test_chain_operator_annihilated_pair():
    seq = HistorySequence(((0.0, P1), (1.0, P0)))
    k = chain_operator(seq, TrivialEvolution(2))
    assert_allclose(k, np.zeros((2, 2)), atol=1e-15)


def test_chain_operator_uses_propagators_in_time_order():
    # One half-turn of sigma_x maps |0> to |1>, so the history
    # "|0> then |1>" becomes dynamically certain.
    h = np.array([[0, 1], [1, 0]], dtype=complex) * (np.pi / 2)
    prov = ConstantHamiltonian(h)
    seq = HistorySequence(((0.0, P0), (1.0, P1)))
    assert weight(seq, prov, RHO0) == pytest.approx(1.0, abs=1e-12)


def test_chain_dimension_mismatch():
    seq = HistorySequence(((0.0, P0),))
    with pytest.raises(ValueError, match="dimension"):
        chain_operator(seq, TrivialEvolution(3))


def test_isham_weights_match_published_values():
    # (1/4, 1/4, 1, 0): exclusive and exhaustive, yet summing to 3/2.
    prov = TrivialEvolution(2)
    weights = [weight(h, prov, RHO0) for h in isham_histories()]
    assert_allclose(weights, [0.25, 0.25, 1.0, 0.0], atol=1e-12)
    assert sum(weights) == pytest.approx(1.5, abs=1e-12)


def test_evolved_state_oracle():
    prov = TrivialEvolution(2)
    h1, _, h3, h4 = isham_histories()
    # K1 rho K1^dag = (1/4)|1><1|.
    assert_allclose(evolved_state(h1, prov, RHO0),
                    np.array([[0, 0], [0, 0.25]]), atol=1e-12)
    assert_allclose(evolved_state(h4, prov, RHO0), np.zeros((2, 2)), atol=1e-15)
    # Trace of the conditioned state is the weight.
    assert np.trace(evolved_state(h3, prov, RHO0)).real == pytest.approx(
        weight(h3, prov, RHO0))


def test_evolved_state_empty_sequence_returns_state():
    rho = np.eye(2) / 2
    assert_allclose(evolved_state(HistorySequence(()), TrivialEvolution(2), rho), rho)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)],
                         ids=["nan", "inf", "nan-imag"])
def test_weight_refuses_non_finite_values(bad):
    # Checks written as > tol and < -tol let NaN through as a weight.
    p = P0.copy()
    p[0, 0] = bad
    for rho in (np.eye(2) / 2, RHO0):
        with pytest.raises(ValueError, match="is not finite"):
            weight(HistorySequence(((0.0, p), (1.0, P0))), TrivialEvolution(2), rho)


def test_weight_table_binary_mixed():
    fam = new_family(2, 0.0).extend(0, [P0, P1], [1.0, 1.0])
    assert_allclose(weight_table(fam), [0.5, 0.5])


@pytest.mark.parametrize("seed", range(10))
def test_weight_table_sums_to_one(seed):
    fam = random_family(np.random.default_rng(3000 + seed))
    table = weight_table(fam)
    assert np.all(table >= 0)
    assert sum(table) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_extension_splits_weight(seed):
    # The induction step: the weight of a leaf's history equals the sum
    # of its children's weights after any extension.
    rng = np.random.default_rng(4000 + seed)
    fam = random_family(rng, kind="hamiltonian")
    before = weight_table(fam)
    leaves = fam.leaves()
    pick = int(rng.integers(len(leaves)))
    leaf = leaves[pick]
    parts = int(rng.integers(1, fam.dim + 1))
    decomp = random_decomposition(fam.dim, parts, rng)
    extended = fam.extend(leaf.id, decomp,
                          [leaf.time + 1.0] * len(decomp))
    after = weight_table(extended)
    assert abs(before[pick] - sum(after[pick:pick + len(decomp)])) < 1e-9
    # All other weights are untouched.
    assert_allclose(np.delete(before, pick),
                    np.concatenate([after[:pick], after[pick + len(decomp):]]),
                    atol=1e-12)


def test_decoherence_matrix_isham_values():
    prov = TrivialEvolution(2)
    d = decoherence_matrix(isham_histories(), prov, RHO0)
    assert_allclose(np.diag(d).real, [0.25, 0.25, 1.0, 0.0], atol=1e-12)
    # Hand oracle: D_12 = -(1/2)<0|+><-|0> = -1/4.
    assert d[0, 1] == pytest.approx(-0.25, abs=1e-12)
    assert not is_consistent(d)
    assert not is_weakly_consistent(d)


def _reference_decoherence(family):
    """The definition: one chain per history and pairwise ``hs_inner``."""
    ks = [chain_operator(h, family.evolution) for h in family.histories()]
    rho = family.initial_state
    return np.array([[hs_inner(rho, ka, kb) for kb in ks] for ka in ks])


def _history_lengths(family):
    return {len(h) for h in family.histories()}


@pytest.mark.parametrize("kind", PROVIDER_KINDS)
def test_family_matrices_match_per_history_definition(kind):
    unequal_depths = 0
    for seed in range(8):
        fam = random_family(np.random.default_rng(5000 + seed), kind=kind)
        ref = _reference_decoherence(fam)
        assert np.max(np.abs(family_decoherence_matrix(fam) - ref)) <= 1e-12
        assert np.max(np.abs(weight_table(fam) - ref.diagonal().real)) <= 1e-12
        unequal_depths += len(_history_lengths(fam)) > 1
    assert unequal_depths > 0


def test_bare_root_family_has_one_certain_history():
    fam = new_family(3, 0.0, evolution=ConstantHamiltonian(np.diag([0.0, 1.0, 2.0])))
    assert weight_table(fam).tolist() == [1.0]
    assert family_decoherence_matrix(fam).tolist() == [[1.0]]


def test_unitary_table_interval_shared_by_branches():
    # Both children of the root branch again at t=1, so the interval
    # (0, 1) enters four chains from two nodes; node 2 skips to t=2 and
    # its children see (0, 2) instead.
    rng = np.random.default_rng(33)
    table = PiecewiseUnitary([0.0, 1.0, 2.0, 3.0],
                             [haar_unitary(2, rng) for _ in range(3)])
    fam = new_family(2, 0.0, np.eye(2) / 2, table)
    fam = fam.extend(0, random_decomposition(2, 2, rng), [1.0, 2.0])
    fam = fam.extend(1, random_decomposition(2, 2, rng), [2.0, 2.0])
    fam = fam.extend(2, random_decomposition(2, 2, rng), [3.0, 3.0])
    fam = fam.extend(3, random_decomposition(2, 2, rng), [3.0, 3.0])
    fam = fam.extend(4, random_decomposition(2, 2, rng), [3.0, 3.0])
    assert _history_lengths(fam) == {2, 3}
    ref = _reference_decoherence(fam)
    assert np.max(np.abs(family_decoherence_matrix(fam) - ref)) <= 1e-12
    assert np.max(np.abs(weight_table(fam) - ref.diagonal().real)) <= 1e-12


class _CountingEvolution(EvolutionProvider):
    """Delegates to another provider and counts propagator requests."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()

    @property
    def dim(self):
        return self.inner.dim

    def propagator(self, t_from, t_to):
        self.calls[(t_from, t_to)] += 1
        return self.inner.propagator(t_from, t_to)


def _product_under_count(rng):
    counting = _CountingEvolution(ConstantHamiltonian(random_hermitian(2, rng)))
    times = [0.0, 0.5, 1.5, 2.0, 3.0, 3.25]
    fam = from_product(2, times, [random_decomposition(2, 2, rng) for _ in times],
                       evolution=counting)
    assert len(fam.leaves()) == 64
    return fam, counting, list(zip(times, times[1:]))


def _branching_under_count(rng):
    counting = _CountingEvolution(PiecewiseUnitary([0.0, 1.0, 2.0, 3.0],
                                                   [haar_unitary(2, rng) for _ in range(3)]))
    fam = new_family(2, 0.0, np.eye(2) / 2, counting)
    fam = fam.extend(0, random_decomposition(2, 2, rng), [1.0, 2.0])
    fam = fam.extend(1, random_decomposition(2, 2, rng), [2.0, 2.0])
    for leaf in (2, 3, 4):
        fam = fam.extend(leaf, random_decomposition(2, 2, rng), [3.0, 3.0])
    assert _history_lengths(fam) == {2, 3}
    return fam, counting, [(0.0, 1.0), (0.0, 2.0), (1.0, 2.0)]


def test_each_propagator_is_computed_once_per_pass():
    # The first weight table or decoherence matrix of a family asks for each
    # propagator once; the family keeps its chains, so no later call asks.
    for build in (_product_under_count, _branching_under_count):
        for first, second in ((family_decoherence_matrix, weight_table),
                              (weight_table, family_decoherence_matrix)):
            fam, counting, keys = build(np.random.default_rng(34))
            first(fam)
            assert counting.calls == Counter(keys)
            counting.calls.clear()
            first(fam)
            second(fam)
            a, b = fam.leaves()[:2]
            assert a.parent == b.parent and verify_intra_additivity(fam, a.id, b.id)
            assert not counting.calls


def test_decoherence_matrix_is_hermitian_with_weight_diagonal():
    rng = np.random.default_rng(31)
    fam = random_family(rng, kind="unitary_table")
    d = family_decoherence_matrix(fam)
    assert np.max(np.abs(d - d.conj().T)) < 1e-12
    assert_allclose(np.diag(d).real, weight_table(fam), atol=1e-12)
    assert np.max(np.abs(np.diag(d).imag)) < 1e-12


def test_repeated_decomposition_is_consistent():
    # Asking the same question twice with no dynamics in between cannot
    # interfere: chains are the projectors themselves or vanish.
    fam = from_product(2, [0.0, 1.0], [[P0, P1], [P0, P1]])
    d = family_decoherence_matrix(fam)
    assert is_consistent(d, tol=1e-12)
    assert is_weakly_consistent(d, tol=1e-12)


def test_weak_consistency_is_weaker():
    d = np.array([[0.5, 0.3j], [-0.3j, 0.5]])
    assert is_weakly_consistent(d)
    assert not is_consistent(d)


_PART = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-12, -5e-10, 2e-9, 0.25, -1.0, 1e300,
                     math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 5), data=st.data(),
       tol=st.sampled_from([0.0, 1e-9, 1e-3, 1.0, math.inf]))
def test_verdicts_match_the_difference_oracle(n, data, tol):
    # NaN and inf anywhere, on the diagonal too, in either part.
    parts = data.draw(st.lists(st.tuples(_PART, _PART), min_size=n * n, max_size=n * n))
    d = np.array([complex(re, im) for re, im in parts], dtype=complex).reshape(n, n)
    for m in (d, d.real):
        assert is_consistent(m, tol) == helpers.is_consistent(m, tol)
        assert is_weakly_consistent(m, tol) == helpers.is_weakly_consistent(m, tol)


@pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 2), ()])
def test_verdicts_refuse_a_non_square_matrix(shape):
    d = np.zeros(shape)
    for verdict, oracle in ((is_consistent, helpers.is_consistent),
                            (is_weakly_consistent, helpers.is_weakly_consistent)):
        with pytest.raises(ValueError) as expected:
            oracle(d)
        with pytest.raises(ValueError) as got:
            verdict(d)
        assert str(got.value) == str(expected.value)


def test_single_history_matrix():
    prov = TrivialEvolution(2)
    d = decoherence_matrix([HistorySequence(((0.0, I2),))], prov, RHO0)
    assert d.shape == (1, 1)
    assert d[0, 0] == pytest.approx(1.0)
    assert decoherence_matrix([], prov, RHO0).shape == (0, 0)


def test_weight_invariant_under_global_conjugation():
    # Conjugating every projector, the state and the Hamiltonian by one
    # unitary leaves all weights unchanged.
    rng = np.random.default_rng(32)
    u = haar_unitary(2, rng)
    h = random_hermitian(2, rng)
    seq = HistorySequence(((0.0, P0), (1.0, P_PLUS)))
    rho = np.eye(2) / 2
    w = weight(seq, ConstantHamiltonian(h), rho)
    conj = lambda m: u @ m @ u.conj().T
    seq_c = HistorySequence(((0.0, conj(P0)), (1.0, conj(P_PLUS))))
    w_c = weight(seq_c, ConstantHamiltonian(conj(h)), conj(rho))
    assert w_c == pytest.approx(w, abs=1e-10)


def test_is_dynamically_impossible():
    prov = TrivialEvolution(2)
    blocked = HistorySequence(((0.0, P1), (1.0, P0)))
    allowed = HistorySequence(((0.0, P0), (1.0, P0)))
    assert is_dynamically_impossible(blocked, prov)
    assert not is_dynamically_impossible(allowed, prov)
    # A zero projector kills the chain trivially; the dynamics is not
    # to blame, so the answer is False.
    with_zero = HistorySequence(((0.0, np.zeros((2, 2))), (1.0, P0)))
    assert not is_dynamically_impossible(with_zero, prov)
    assert not is_dynamically_impossible(HistorySequence(()), prov)
