"""Matrix primitive tests with hand-computed oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import decomposition_defects as oracle_defects
from helpers import hs_inner, random_decomposition, random_hermitian
from qhistories import (
    ConstantHamiltonian,
    adjoint,
    is_decomposition,
    is_density_matrix,
    is_hermitian,
    is_projector,
    is_unitary,
    kron,
    kron_all,
    maximally_mixed,
    projector_onto,
)
from qhistories import linalg
from qhistories.linalg import (
    DEFAULT_TOL,
    _exclusive,
    _projector_norms,
    decomposition_defects,
    max_abs,
    require_decomposition,
    require_density_matrix,
    require_projector,
)

I2 = np.eye(2, dtype=complex)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)
P_PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
P_MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_adjoint_conjugate_transposes():
    m = np.array([[1, 2j], [3, 4]], dtype=complex)
    assert_allclose(adjoint(m), np.array([[1, 3], [-2j, 4]], dtype=complex))
    assert_allclose(adjoint(adjoint(m)), m)


def test_is_projector_accepts_projectors():
    assert is_projector(I2)
    assert is_projector(P_PLUS)
    assert is_projector(np.zeros((3, 3)))


def test_is_projector_rejects_non_projectors():
    assert not is_projector(np.array([[0, 1], [0, 0]]))   # not Hermitian
    assert not is_projector(0.5 * I2)                     # not idempotent
    with pytest.raises(ValueError):
        is_projector(np.zeros((2, 3)))


def test_is_hermitian():
    assert is_hermitian(SIGMA_X)
    assert not is_hermitian(np.array([[0, 1], [0, 0]]))


def test_is_unitary():
    assert is_unitary(I2)
    assert is_unitary(SIGMA_X)
    assert not is_unitary(2 * I2)


def test_is_decomposition_basic_cases():
    assert is_decomposition([P0, P1])
    assert is_decomposition([P_PLUS, P_MINUS])
    assert is_decomposition([I2])
    assert not is_decomposition([P0, P_PLUS])   # not orthogonal
    assert not is_decomposition([P0])           # incomplete


def test_is_decomposition_zero_member_flag():
    # A zero member is never part of a decomposition; at a large tol, a
    # member whose entries are all within tol counts as zero.
    assert not is_decomposition([np.zeros((2, 2)), I2])
    assert is_decomposition([P_PLUS, P_MINUS], tol=0.4)
    assert not is_decomposition([P_PLUS, P_MINUS], tol=0.5)


def test_is_decomposition_input_errors():
    with pytest.raises(ValueError):
        is_decomposition([])
    with pytest.raises(ValueError):
        is_decomposition([I2, np.eye(3)])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_is_decomposition_rejects_nan_and_inf_members():
    for bad in (np.nan, np.inf, complex(np.nan, 0.0)):
        member = P0.copy()
        member[1, 1] = bad
        assert not is_decomposition([member, P1])


def _groups_and_loose_rows(rng, d):
    """Sibling-like groups of (d, d) projectors, damaged at random, then loose rows.

    The first group repeats two orthogonal projectors in mirrored order,
    so its clashes (0, 3) and (1, 2) differ between row and column order.
    """
    a, b = random_decomposition(d, 2, rng)
    groups = [[a, b, b, a]]
    for _ in range(int(rng.integers(1, 5))):
        group = random_decomposition(d, int(rng.integers(1, d + 1)), rng)
        damage = rng.integers(4)
        if damage == 1:
            group.insert(int(rng.integers(len(group) + 1)), group[int(rng.integers(len(group)))])
        elif damage == 2 and len(group) > 1:
            group.pop(int(rng.integers(len(group))))
        elif damage == 3:
            group.append(random_decomposition(d, d, rng)[0])
        groups.append(group)
    # Rows outside every group, neither orthogonal to the last group nor
    # completing it.
    loose = random_decomposition(d, d, rng)[:int(rng.integers(1, d))]
    return groups, loose


@pytest.mark.parametrize("pairs", [1, 3, None])
def test_decomposition_defects_matches_the_pairwise_oracle(monkeypatch, pairs):
    d = 4
    if pairs is not None:
        monkeypatch.setattr(linalg, "_CHUNK_BYTES", pairs * 16 * d * d)
    rng = np.random.default_rng(17)
    for _ in range(25):
        groups, loose = _groups_and_loose_rows(rng, d)
        bounds = np.cumsum([0] + [len(g) for g in groups])
        expected_pairs, expected_complete = [], []
        for start, group in zip(bounds, groups):
            clashes, complete = oracle_defects(group, DEFAULT_TOL)
            expected_pairs += [[start + i, start + j] for i, j in clashes]
            expected_complete.append(complete)
        assert expected_pairs[:2] == [[0, 3], [1, 2]]
        stack = np.stack([p for g in groups for p in g] + loose)
        clashes, complete = decomposition_defects(stack, _projector_norms(stack), bounds,
                                                  DEFAULT_TOL)
        assert clashes.tolist() == expected_pairs
        assert complete.tolist() == expected_complete


def _damaged_member(p: np.ndarray, rng) -> np.ndarray:
    """``p`` made a non-projector (scaled, skewed or NaN) or the zero matrix."""
    kind = rng.integers(4)
    if kind == 0:
        return p * (1 + 1e-6)
    if kind == 1:
        skew = np.zeros_like(p)
        skew[0, -1] = 1e-6j
        return p + skew
    if kind == 2:
        q = p.copy()
        q[-1, -1] = np.nan
        return q
    return np.zeros_like(p)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("chunk_bytes", [0, None])
def test_is_decomposition_matches_the_pairwise_oracle(monkeypatch, chunk_bytes):
    # 0 forms the pair products the bound leaves open one pair at a time.
    if chunk_bytes is not None:
        monkeypatch.setattr(linalg, "_CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(23)
    verdicts = set()
    for d in (2, 3, 4, 8):
        for _ in range(15):
            groups, _ = _groups_and_loose_rows(rng, d)
            for group in groups:
                if rng.random() < 0.3:
                    k = int(rng.integers(len(group)))
                    group = group[:k] + [_damaged_member(group[k], rng)] + group[k + 1:]
                clashes, complete = oracle_defects(group, DEFAULT_TOL)
                expected = (not clashes and complete and all(
                    is_projector(p) and max_abs(p) > DEFAULT_TOL for p in group))
                assert is_decomposition(group) == expected
                verdicts.add(expected)
    assert verdicts == {False, True}


def _tilted(group: list[np.ndarray], angle: float, rng) -> list[np.ndarray]:
    """``group`` with one member turned by ``angle`` about a random axis: still
    a projector, but off its siblings and the sum off the identity by about
    ``angle``."""
    w, v = np.linalg.eigh(random_hermitian(len(group[0]), rng))
    turn = (v * np.exp(1j * angle * w / np.abs(w).max())) @ v.conj().T
    k = int(rng.integers(len(group)))
    return group[:k] + [turn @ group[k] @ turn.conj().T] + group[k + 1:]


def _expected_defect(group: list[np.ndarray], tol: float) -> str | None:
    """The first failing check, in the order of the ``require_decomposition`` table."""
    zero = [i for i, p in enumerate(group) if max_abs(p) <= tol]
    if zero:
        return f"zero member {zero[0]}"
    bad = [i for i, p in enumerate(group) if not is_projector(p, tol)]
    if bad:
        return f"member {bad[0]} not a projector"
    clashes, complete = oracle_defects(group, tol)
    if clashes:
        return "members {} and {} not orthogonal".format(*clashes[0])
    return None if complete else "sum not the identity"


def _bound_stats(group: list[np.ndarray]) -> list[float]:
    """The residual and the largest member norms :func:`_exclusive` reads."""
    stack = np.array(group)
    residual = max_abs(stack.sum(axis=0) - np.eye(len(stack[0])))
    return [residual, *_projector_norms(stack).max(axis=1).tolist()]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 32), st.integers(2, 6),
       st.floats(-12.0, -6.0), st.booleans())
def test_sibling_checks_match_the_pairwise_oracle_around_tol(seed, d, k, log_angle, damaged):
    # One member tilted by 1e-12 to 1e-6 puts its clashes on both sides of
    # tol; a damaged member is no projector, or zero.
    rng = np.random.default_rng(seed)
    k = min(k, d)
    group = _tilted(random_decomposition(d, k, rng), 10.0 ** log_angle, rng)
    if damaged:
        j = int(rng.integers(k))
        group[j] = _damaged_member(group[j], rng)
    other = random_decomposition(d, int(rng.integers(1, d + 1)), rng)
    stack = np.array(group + other)
    clashes, complete = decomposition_defects(stack, _projector_norms(stack),
                                              [0, k, len(stack)], DEFAULT_TOL)
    expected, expected_complete = oracle_defects(group, DEFAULT_TOL)
    assert clashes.tolist() == [list(pair) for pair in expected]
    assert complete.tolist() == [expected_complete, True]

    defect = _expected_defect(group, DEFAULT_TOL)
    assert is_decomposition(group) == (defect is None)
    if defect is None:
        require_decomposition(group)
    else:
        with pytest.raises(ValueError) as info:
            require_decomposition(group)
        assert str(info.value) == ("projectors do not form a decomposition of the identity "
                                   f"within tol={DEFAULT_TOL}: {defect}")

    # Whatever tolerance the bound certifies, no pair product exceeds it;
    # one group's floats and arrays over groups give the same answers.
    stats = _bound_stats(group)
    worst = max(max_abs(group[i] @ group[j]) for i in range(k) for j in range(i + 1, k))
    for tol in (DEFAULT_TOL, 1e-6, np.nextafter(worst, 0.0)):
        if worst > tol:
            assert not _exclusive(d, k, *stats, tol)
    both = np.array([stats, _bound_stats(other)]).T
    assert (_exclusive(d, np.array([k, len(other)]), *both, DEFAULT_TOL).tolist()
            == [_exclusive(d, k, *stats, DEFAULT_TOL),
                _exclusive(d, len(other), *_bound_stats(other), DEFAULT_TOL)])


def test_decomposition_defects_reads_nan_as_incomplete_not_clashing():
    nan = P0.copy()
    nan[0, 0] = np.nan
    stack = np.stack([nan, P1, I2])
    clashes, complete = decomposition_defects(stack, _projector_norms(stack), [0, 2, 3],
                                              DEFAULT_TOL)
    assert clashes.shape == (0, 2)
    assert complete.tolist() == [False, True]
    clashes, complete = decomposition_defects(np.zeros((0, 2, 2)), np.zeros((4, 0)), [0],
                                              DEFAULT_TOL)
    assert clashes.shape == (0, 2) and complete.shape == (0,)


def test_require_helpers_raise_with_context():
    with pytest.raises(ValueError, match="projector"):
        require_projector(0.5 * I2)
    with pytest.raises(ValueError, match="decomposition"):
        require_decomposition([P0, P0])
    with pytest.raises(ValueError, match="density"):
        require_density_matrix(np.diag([0.5, 0.4]))
    with pytest.raises(ValueError, match="dimension"):
        require_decomposition([P0, P1], dim=3)


@pytest.mark.parametrize("members, check", [
    ([np.zeros((2, 2)), I2], "zero member 0"),
    ([P0, 0.5 * I2], "member 1 not a projector"),
    ([P0, P0], "members 0 and 1 not orthogonal"),
    ([P0, P_PLUS, P1], "members 0 and 1 not orthogonal"),
    ([P0], "sum not the identity"),
])
def test_require_decomposition_names_the_failing_check(members, check):
    with pytest.raises(ValueError) as info:
        require_decomposition(members)
    assert str(info.value) == ("projectors do not form a decomposition of the identity "
                               f"within tol={DEFAULT_TOL}: {check}")


def test_is_density_matrix():
    assert is_density_matrix(maximally_mixed(2))
    assert is_density_matrix(P0)
    assert not is_density_matrix(np.diag([0.5, 0.4]))          # trace 0.9
    assert not is_density_matrix(np.diag([1.5, -0.5]))         # negative eigenvalue
    assert not is_density_matrix(np.array([[1, 1], [0, 0]]))   # not Hermitian


def test_hs_inner_simple_values():
    assert hs_inner(maximally_mixed(2), I2, I2) == pytest.approx(1.0)
    assert hs_inner(maximally_mixed(2), P0, P1) == 0


def test_hs_inner_chain_overlap_oracle():
    # Chains of the two Hadamard-then-computational histories against
    # |0><0|.  By hand: K1 = (1/sqrt2)|1><+| and K2 = -(1/sqrt2)|1><-|,
    # so Tr[rho K1^dag K2] = -(1/2) <0|+><-|0> = -1/4.
    rho = P0
    k1 = np.array([[0, 0], [0.5, 0.5]], dtype=complex)
    k2 = np.array([[0, 0], [-0.5, 0.5]], dtype=complex)
    assert hs_inner(rho, k1, k2) == pytest.approx(-0.25, abs=1e-12)


def test_hs_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        hs_inner(maximally_mixed(2), I2, np.eye(3))


def test_hs_inner_weight_is_real_nonnegative():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        k = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        value = hs_inner(rho, k, k)
        assert abs(value.imag) < 1e-9
        assert value.real > -1e-9


def test_hs_inner_conjugate_symmetry():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    k1 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    k2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert hs_inner(rho, k1, k2) == pytest.approx(np.conj(hs_inner(rho, k2, k1)))


def test_kron_identities():
    assert_allclose(kron(I2, I2), np.eye(4))
    assert_allclose(kron(P0, P1), np.diag([0, 1, 0, 0]).astype(complex))


def test_kron_preserves_projectors():
    assert is_projector(kron(P_PLUS, P1))


def test_kron_associative_on_exact_entries():
    # Dyadic entries multiply without rounding, so both groupings agree
    # exactly.
    mats = [P_PLUS, P1, P_MINUS]
    left = kron(kron(mats[0], mats[1]), mats[2])
    right = kron(mats[0], kron(mats[1], mats[2]))
    assert np.array_equal(left, right)
    assert np.array_equal(kron_all(mats), left)


def test_kron_all_requires_input():
    with pytest.raises(ValueError):
        kron_all([])


def test_projector_onto():
    p = projector_onto([1, 1])
    assert_allclose(p, P_PLUS, atol=1e-15)
    assert is_projector(p)
    with pytest.raises(ValueError):
        projector_onto([0, 0])


def test_maximally_mixed():
    assert_allclose(maximally_mixed(4), np.eye(4) / 4)
    with pytest.raises(ValueError):
        maximally_mixed(0)


def _propagator_from_hamiltonian(h, t):
    # exp(-i h t) for a constant Hermitian generator.
    return ConstantHamiltonian(h).propagator(0.0, t)


def test_propagator_from_hamiltonian_zero_generator():
    assert_allclose(_propagator_from_hamiltonian(np.zeros((2, 2)), 5.0), I2)


def test_propagator_from_hamiltonian_sigma_z_half_turn():
    # Spectral oracle: exp(-i*pi*sigma_z) = diag(e^{-i pi}, e^{i pi}) = -I.
    u = _propagator_from_hamiltonian(SIGMA_Z, np.pi)
    assert_allclose(u, -I2, atol=1e-12)


def test_propagator_from_hamiltonian_sigma_x_quarter_turn():
    # exp(-i (pi/2) sigma_x) = cos(pi/2) I - i sin(pi/2) sigma_x = -i sigma_x.
    u = _propagator_from_hamiltonian(SIGMA_X, np.pi / 2)
    assert_allclose(u, -1j * SIGMA_X, atol=1e-12)


def test_conjugated_projector_stays_projector():
    rng = np.random.default_rng(12)
    for dim in (2, 3, 4):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, r = np.linalg.qr(g)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        p = np.zeros((dim, dim), dtype=complex)
        p[0, 0] = 1.0
        assert is_projector(u @ p @ u.conj().T, tol=1e-10)


def test_max_abs_handles_empty():
    assert max_abs(np.zeros((0, 0))) == 0.0
