"""Evolution provider tests: construction, invariants, oracles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import haar_unitary, random_hermitian
from qhistories import ConstantHamiltonian, PiecewiseUnitary, TrivialEvolution, dynamics

SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_trivial_is_identity_everywhere():
    prov = TrivialEvolution(3)
    assert prov.dim == 3
    assert_allclose(prov.propagator(0.0, 5.0), np.eye(3))
    assert_allclose(prov.propagator(2.0, -1.0), np.eye(3))


def test_trivial_rejects_bad_dimension():
    with pytest.raises(ValueError):
        TrivialEvolution(0)


def test_constant_hamiltonian_sigma_z_oracle():
    # Same spectral oracle as the matrix-function test: a pi interval of
    # sigma_z gives -I, independent of the absolute times.
    prov = ConstantHamiltonian(SIGMA_Z)
    assert_allclose(prov.propagator(1.0, 1.0 + np.pi), -np.eye(2), atol=1e-12)


def test_constant_hamiltonian_same_time_is_identity():
    prov = ConstantHamiltonian(SIGMA_Z)
    assert_allclose(prov.propagator(5.0, 5.0), np.eye(2))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_constant_hamiltonian_rejects_non_hermitian():
    # A NaN entry fails the check: it passes only when the norm is <= tol.
    for h in ([[0, 1], [0, 0]], [[0, np.nan], [np.nan, 1]]):
        with pytest.raises(ValueError, match="Hermitian"):
            ConstantHamiltonian(np.array(h))


@pytest.mark.parametrize("seed", range(5))
def test_constant_hamiltonian_invariants(seed):
    rng = np.random.default_rng(100 + seed)
    dim = int(rng.integers(2, 5))
    prov = ConstantHamiltonian(random_hermitian(dim, rng))
    t1, t2, t3 = np.sort(rng.uniform(-2, 2, size=3))
    composed = prov.propagator(t2, t3) @ prov.propagator(t1, t2)
    assert_allclose(composed, prov.propagator(t1, t3), atol=1e-9)
    forward = prov.propagator(t1, t2)
    assert_allclose(prov.propagator(t2, t1), forward.conj().T, atol=1e-9)
    assert_allclose(forward.conj().T @ forward, np.eye(dim), atol=1e-9)


def _table(rng, dim=2, n_intervals=3):
    breakpoints = [0.0, 1.0, 2.0, 3.0][: n_intervals + 1]
    unitaries = [haar_unitary(dim, rng) for _ in range(n_intervals)]
    return PiecewiseUnitary(breakpoints, unitaries), unitaries


def test_piecewise_forward_composition():
    rng = np.random.default_rng(21)
    prov, us = _table(rng)
    assert_allclose(prov.propagator(0.0, 2.0), us[1] @ us[0], atol=1e-12)
    assert_allclose(prov.propagator(0.0, 3.0), us[2] @ us[1] @ us[0], atol=1e-12)
    assert_allclose(prov.propagator(1.0, 2.0), us[1], atol=1e-12)


def test_piecewise_same_time_and_reversal():
    rng = np.random.default_rng(22)
    prov, us = _table(rng)
    assert_allclose(prov.propagator(1.0, 1.0), np.eye(2))
    assert_allclose(prov.propagator(2.0, 0.0),
                    (us[1] @ us[0]).conj().T, atol=1e-12)


def test_piecewise_invariant_chain():
    rng = np.random.default_rng(23)
    prov, _ = _table(rng)
    left = prov.propagator(1.0, 3.0) @ prov.propagator(0.0, 1.0)
    assert_allclose(left, prov.propagator(0.0, 3.0), atol=1e-12)


def test_piecewise_rejects_unaligned_times():
    rng = np.random.default_rng(24)
    prov, _ = _table(rng)
    with pytest.raises(ValueError, match="align"):
        prov.propagator(0.0, 1.5)
    with pytest.raises(ValueError, match="align"):
        prov.propagator(-1.0, 2.0)
    assert prov.covers(2.0)
    assert not prov.covers(2.5)


def test_piecewise_construction_errors():
    rng = np.random.default_rng(25)
    u = haar_unitary(2, rng)
    with pytest.raises(ValueError, match="increasing"):
        PiecewiseUnitary([0.0, 0.0], [u])
    with pytest.raises(ValueError, match="unitaries"):
        PiecewiseUnitary([0.0, 1.0, 2.0], [u])
    with pytest.raises(ValueError, match="unitary"):
        PiecewiseUnitary([0.0, 1.0], [2 * np.eye(2)])
    with pytest.raises(ValueError, match="breakpoints"):
        PiecewiseUnitary([0.0], [])
    # NaN defeats the ordering check, and an infinite end passes it.
    for breakpoints, bad in (([0.0, np.nan, 0.5], "nan"), ([0.0, 0.5, np.inf], "inf"),
                             ([-np.inf, 0.0, 0.5], "-inf"), ([0, 1, 10 ** 400], 10 ** 400)):
        with pytest.raises(ValueError, match=f"breakpoint {bad} is not finite"):
            PiecewiseUnitary(breakpoints, [u, u])


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_providers_remember_read_only_propagators(monkeypatch):
    # Two entries at most: asking for a third step forgets the oldest,
    # which is then computed again, equal in bytes to a fresh provider's.
    monkeypatch.setattr(dynamics, "_MEMO_ENTRIES", 2)
    rng = np.random.default_rng(26)
    h = random_hermitian(3, rng)
    table, us = _table(rng)
    fresh_table = PiecewiseUnitary(table.breakpoints, us)
    for prov, fresh in ((ConstantHamiltonian(h), ConstantHamiltonian(h)),
                        (table, fresh_table), (TrivialEvolution(3), TrivialEvolution(3))):
        first = prov.propagator(0.0, 2.0)
        assert prov.propagator(0.0, 2.0) is first
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 0.0
        for t_from, t_to in ((2.0, 0.0), (1.0, 3.0), (0.0, 2.0), (0.0, -0.0), (1.0, 1.0)):
            u = prov.propagator(t_from, t_to)
            assert not u.flags.writeable
            assert _same_bytes(u, fresh.propagator(t_from, t_to))
    assert len(table._memo) == 2
    assert _same_bytes(us[0], fresh_table.unitaries[0]) and us[0].flags.writeable
