"""History-projector embeddings, sums and the homogeneity test."""

import math
import pickle
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import (
    PROVIDER_KINDS,
    decomposition_defects,
    random_decomposition,
    random_provider,
    run_capped,
    tree_bounds,
)
from qhistories import (
    EmbeddingError,
    HistoryProjector,
    HistorySequence,
    HPOFamily,
    embed,
    embed_family,
    extended_weight,
    from_product,
    is_homogeneous,
    is_hpo_family,
    isham_counterexample,
    isham_histories,
    new_family,
    sum_hpo,
)
from qhistories.chain import decoherence_matrix
from qhistories.demos import P0, P1, P_MINUS, P_PLUS, fig2_family
from qhistories.dynamics import TrivialEvolution
from qhistories import hpo
from qhistories.hpo import (
    RANK1_CUTOFF,
    _dense_sum,
    _factor_table,
    _factors_certified,
    _factors_clash,
    _schmidt_rank_one,
    _telescoped,
    _tree_verdict,
)
from qhistories.linalg import DEFAULT_TOL, is_projector, kron_all

I2 = np.eye(2, dtype=complex)
RHO0 = P0


def _realigned_singular_values(matrix, d):
    """Independent operator-Schmidt oracle for one (d | rest) split."""
    e = matrix.shape[0] // d
    blocks = np.empty((d * d, e * e), dtype=complex)
    for i1 in range(d):
        for i2 in range(d):
            block = matrix[i1 * e:(i1 + 1) * e, i2 * e:(i2 + 1) * e]
            blocks[i1 * d + i2] = block.reshape(-1)
    return np.linalg.svd(blocks, compute_uv=False)


def test_embed_single_step_is_the_projector():
    y = embed(HistorySequence(((0.0, I2),)))
    assert y.slots == 1
    assert y.base_dim == 2
    assert_allclose(y.matrix, I2)


def test_embed_two_steps_kronecker_oracle():
    # |+><+| (x) |1><1| written out by hand in the product basis
    # {00, 01, 10, 11}.
    y = embed(HistorySequence(((0.0, P_PLUS), (1.0, P1))))
    expected = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.5],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.5],
    ])
    assert np.array_equal(y.matrix, expected)
    assert y.slot_times == (0.0, 1.0)
    assert y.dim == 4


def test_embed_rejects_empty_and_oversized():
    with pytest.raises(ValueError, match="empty"):
        embed(HistorySequence(()))
    steps = tuple((float(t), I2) for t in range(21))
    with pytest.raises(ValueError, match="exceeds"):
        embed(HistorySequence(steps))


def test_embeds_of_orthogonal_first_steps_are_orthogonal():
    y1 = embed(HistorySequence(((0.0, P0), (1.0, P_PLUS))))
    y2 = embed(HistorySequence(((0.0, P1), (1.0, P_PLUS))))
    assert np.max(np.abs(y1.matrix @ y2.matrix)) < 1e-15


def test_isham_family_is_exclusive_and_exhaustive():
    family, weights = isham_counterexample()
    assert is_hpo_family(family)
    assert_allclose(weights, [0.25, 0.25, 1.0, 0.0], atol=1e-12)
    assert sum(weights) == pytest.approx(1.5, abs=1e-12)


def test_three_members_are_not_exhaustive():
    family, _ = isham_counterexample()
    assert not is_hpo_family(HPOFamily(family.members[:3]))


def test_hpo_family_rejects_mismatched_slots():
    one = embed(HistorySequence(((0.0, P0),)))
    two = embed(HistorySequence(((0.0, P0), (1.0, P1))))
    with pytest.raises(ValueError, match="slots"):
        HPOFamily((one, two))


def test_product_family_embeds_to_hpo_family():
    fam = from_product(2, [0.0, 1.0], [[P0, P1], [P_PLUS, P_MINUS]])
    embedded = embed_family(fam)
    assert len(embedded) == 4
    assert is_hpo_family(embedded)


def _embedding_error(family) -> str:
    with pytest.raises(EmbeddingError) as raised:
        embed_family(family)
    return str(raised.value)


def test_embed_family_needs_shared_times():
    fam = new_family(2, 0.0).extend(0, [P0, P1], [1.0, 2.0])
    first, second = (m.id for m in fam.leaves())
    assert _embedding_error(fam.extend(first, [P0, P1], [3.0, 3.0])) == (
        "histories do not share one time grid: found [(0.0,), (0.0, 1.0)]")
    fam = fam.extend(first, [P0, P1], [3.0, 3.0])
    fam = fam.extend(second, [P0, P1], [3.0, 3.0])
    assert _embedding_error(fam) == (
        "histories do not share one time grid: found [(0.0, 1.0), (0.0, 2.0)]")
    assert _embedding_error(fig2_family()) == (
        "histories do not share one time grid: found [(0.0, 1.0), (0.0, 1.5)]")
    assert _embedding_error(new_family(2, 0.0)) == (
        "family contains the empty history (bare root)")


def test_sum_hpo_all_ones_is_history_identity():
    family, _ = isham_counterexample()
    total = sum_hpo(family, [1, 1, 1, 1])
    assert np.array_equal(total.matrix, np.eye(4))


def test_sum_hpo_all_zeros_is_zero():
    family, _ = isham_counterexample()
    zero = sum_hpo(family, [0, 0, 0, 0])
    assert np.array_equal(zero.matrix, np.zeros((4, 4)))


def test_sum_hpo_rank_counts_members():
    family, _ = isham_counterexample()
    picked = sum_hpo(family, [1, 0, 1, 0])
    eigenvalues = np.linalg.eigvalsh(picked.matrix)
    assert int(np.sum(eigenvalues > 0.5)) == 2


def test_sum_hpo_selector_errors():
    family, _ = isham_counterexample()
    with pytest.raises(ValueError, match="length"):
        sum_hpo(family, [1, 0])
    with pytest.raises(ValueError, match="0 or 1"):
        sum_hpo(family, [1, 2, 0, 0])


def test_single_embeddings_are_homogeneous():
    for h in isham_histories():
        assert is_homogeneous(embed(h))


def test_inhomogeneous_sum_detected():
    # h1 + h3 is a projector on the history space but factors into no
    # single product of projectors; the realignment oracle shows a
    # genuine second singular value.
    family, _ = isham_counterexample()
    summed = sum_hpo(family, [1, 0, 1, 0])
    s = _realigned_singular_values(summed.matrix, 2)
    assert s[1] > 0.5  # decisively rank >= 2
    assert not is_homogeneous(summed)


def test_sum_collapsing_to_product_is_homogeneous():
    # h1 + h2 = (chi + chi')(x)psi = I (x) |1><1|, a product again.
    family, _ = isham_counterexample()
    summed = sum_hpo(family, [1, 1, 0, 0])
    expected = np.kron(I2, P1)
    assert np.array_equal(summed.matrix, expected)
    s = _realigned_singular_values(summed.matrix, 2)
    assert s[1] < 1e-12 * s[0]
    assert is_homogeneous(summed)


@pytest.mark.parametrize("seed", range(5))
def test_random_product_embeddings_homogeneous(seed):
    rng = np.random.default_rng(7000 + seed)
    dim = int(rng.integers(2, 4))
    decomps = [random_decomposition(dim, dim, rng) for _ in range(2)]
    fam = from_product(dim, [0.0, 1.0], decomps)
    embedded = embed_family(fam)
    assert is_hpo_family(embedded)
    for member in embedded.members:
        assert is_homogeneous(member)


def test_extended_weight_single_and_pairs():
    family, weights = isham_counterexample()
    d = decoherence_matrix(isham_histories(), TrivialEvolution(2), RHO0)
    for i in range(4):
        selector = [0] * 4
        selector[i] = 1
        assert extended_weight(d, selector) == pytest.approx(weights[i], abs=1e-12)
    # W(h1 + h2) = 1/4 + 1/4 + 2(-1/4) = 0.
    assert extended_weight(d, [1, 1, 0, 0]) == pytest.approx(0.0, abs=1e-12)
    # The full sum telescopes back to Tr[rho] = 1.
    assert extended_weight(d, [1, 1, 1, 1]) == pytest.approx(1.0, abs=1e-9)


def test_extended_weight_matches_direct_weight_of_sum():
    # For the summable pair (h1, h2) the quadratic form agrees with the
    # weight of the literal sum, whose chain operator is K1 + K2.
    from qhistories import product_sum, weight
    h = isham_histories()
    d = decoherence_matrix(h, TrivialEvolution(2), RHO0)
    merged = product_sum(h[0], h[1])
    w = weight(merged, TrivialEvolution(2), RHO0)
    assert extended_weight(d, [1, 1, 0, 0]) == pytest.approx(w, abs=1e-12)


def test_extended_weight_input_checks():
    with pytest.raises(ValueError, match="square"):
        extended_weight(np.zeros((2, 3)), [1, 1])
    with pytest.raises(ValueError, match="length"):
        extended_weight(np.eye(2), [1])


def test_history_projector_validation():
    with pytest.raises(ValueError, match="projector"):
        HistoryProjector(np.array([[0.5, 0], [0, 0.5]]), 1, (0.0,), 2)
    with pytest.raises(ValueError, match="shape"):
        HistoryProjector(np.eye(2), 2, (0.0, 1.0), 2)
    with pytest.raises(ValueError, match="increasing"):
        HistoryProjector(np.eye(4), 2, (1.0, 0.0), 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 10 ** 400],
                         ids=["nan", "inf", "-inf", "overflow"])
def test_history_projectors_refuse_non_finite_times(bad):
    for slots, times in ((1, (bad,)), (2, (0.0, bad)), (2, (bad, 0.0))):
        with pytest.raises(ValueError, match=f"slot time {bad} is not finite"):
            HistoryProjector(np.eye(2 ** slots), slots, times, 2)
    with pytest.raises(ValueError, match=f"step time {bad} is not finite"):
        embed(HistorySequence(((0.0, P0), (bad, P1))))
    # embed checks the times of a sequence that skipped the constructor too.
    with pytest.raises(ValueError, match=f"slot time {bad} is not finite"):
        embed(HistorySequence._trusted(((0.0, P0), (bad, P1))))


def test_is_homogeneous_long_history_fits_in_one_gib():
    # The first Schmidt split of an 8-slot qubit history is 4 x 16384; a
    # full right singular factor of it alone would take 4 GiB.  The dense
    # copy takes the Schmidt test, the factored member needs none.
    pytest.importorskip("resource")
    result = run_capped("""
        from qhistories import HistoryProjector, HistorySequence, embed, is_homogeneous
        from qhistories.demos import P0, P_PLUS
        seq = HistorySequence(tuple((float(t), (P0, P_PLUS)[t % 2]) for t in range(8)))
        y = embed(seq)
        dense = HistoryProjector(y.matrix, y.slots, y.slot_times, y.base_dim)
        print(is_homogeneous(y), is_homogeneous(dense))
    """)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "True True"


# -- factored members against the dense matrices -------------------------------

def _dense_defects(histories):
    """(any clash, completeness) of the histories' dense embeddings."""
    clashes, complete = decomposition_defects([kron_all(h.projectors) for h in histories],
                                              DEFAULT_TOL)
    return bool(clashes), complete


def _product_histories(rng, dim, slots, kind):
    """Histories of a random product family of at most 16 members."""
    parts = [int(rng.integers(1, dim + 1)) for _ in range(slots)]
    while math.prod(parts) > 16:
        parts[parts.index(max(parts))] = 1
    times = np.cumsum(rng.uniform(0.2, 1.0, size=slots)).tolist()
    provider = random_provider(dim, rng, kind, grid=times + [times[-1] + 1.0])
    decomps = [random_decomposition(dim, k, rng) for k in parts]
    return parts, from_product(dim, times, decomps, evolution=provider).histories()


def _check_sums(rng, members, histories):
    """The tree sum of random selections equals the sum of dense matrices."""
    for _ in range(3):
        picked = [i for i in range(len(members)) if rng.random() < 0.5] or [0]
        assert_allclose(_dense_sum([members[i] for i in picked], members[0].dim),
                        sum(kron_all(histories[i].projectors) for i in picked), atol=1e-12)


@pytest.mark.parametrize("slots", range(1, 6))
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("kind", PROVIDER_KINDS)
def test_factored_members_match_dense_oracle(kind, dim, slots, monkeypatch):
    rng = np.random.default_rng(100 * dim + 10 * slots + PROVIDER_KINDS.index(kind))
    parts, histories = _product_histories(rng, dim, slots, kind)
    for h in histories:
        y = embed(h)
        dense = kron_all(h.projectors)
        assert y.matrix.tobytes() == dense.tobytes()
        assert is_homogeneous(y) == _schmidt_rank_one(dense, dim, slots, RANK1_CUTOFF)

    # (histories, any clash, complete)
    groups = [(histories, False, True)]
    n = len(histories)
    if n > 1:
        k = int(rng.integers(n))
        groups.append((histories[:k] + histories[k + 1:], False, False))
        # One slot factor of member k swapped for a projector that overlaps
        # the factor of a member differing from k in that slot only.
        s = int(rng.choice([i for i, p in enumerate(parts) if p > 1]))
        steps = list(histories[k].steps)
        steps[s] = (steps[s][0], random_decomposition(dim, dim, rng)[0])
        swapped = histories[:k] + [HistorySequence(tuple(steps))] + histories[k + 1:]
        groups.append((swapped, True, False))
    for group, clash, complete in groups:
        assert _dense_defects(group) == (clash, complete)
        members = [embed(h) for h in group]
        stacks = np.stack([np.stack(m.factors) for m in members])
        assert _factors_clash(stacks, DEFAULT_TOL) == clash
        with monkeypatch.context() as m:  # one row per GEMM block
            m.setattr(hpo, "_MAX_DENSE_BYTES", 0)
            assert _factors_clash(stacks, DEFAULT_TOL) == clash
        assert is_hpo_family(members) == (not clash and complete)
        # The tree's bounds certify the whole family and nothing the dense
        # check rejects.
        clash_bound, bound = tree_bounds(stacks)
        assert (clash_bound <= DEFAULT_TOL) == (not clash)
        assert (bound <= DEFAULT_TOL) == (group is histories)
        assert _tree_verdict(HPOFamily(tuple(members)), DEFAULT_TOL) == (
            not clash and complete, bound)
        total = sum(kron_all(h.projectors) for h in group)
        assert_allclose(_dense_sum(members, members[0].dim), total, atol=1e-12)
        _check_sums(rng, members, group)
        with monkeypatch.context() as m:  # one row of R, one factor pair at a time
            m.setattr(hpo, "_CHUNK_BYTES", 0)
            assert_allclose(_dense_sum(members, members[0].dim), total, atol=1e-12)
            assert tree_bounds(stacks) == (clash_bound, bound)


def test_isham_family_needs_the_dense_fallback(monkeypatch):
    # The first-step factors chi, chi', phi, psi sum to 2 I: neither bound
    # certifies, the exact factor products find no clash and the dense
    # total decides.
    family, _ = isham_counterexample()
    stacks = np.stack([np.stack(m.factors) for m in family.members])
    clash_bound, bound = tree_bounds(stacks)
    assert clash_bound > DEFAULT_TOL and bound >= 1.0
    assert not _factors_clash(stacks, DEFAULT_TOL)
    assert _tree_verdict(family, DEFAULT_TOL) == (True, bound)
    assert is_hpo_family(family)
    _check_sums(np.random.default_rng(3), family.members, isham_histories())
    # Over the budget the fallback is refused: no verdict without it.
    monkeypatch.setattr(hpo, "_MAX_DENSE_BYTES", 16 * 3 * 3)
    assert _tree_verdict(family, DEFAULT_TOL) == (None, bound)
    with pytest.raises(ValueError, match="budget"):
        is_hpo_family(family)


def _rotated(p, rng, angle):
    """exp(i angle H) p exp(-i angle H) for a random Hermitian H: an exact projector near p."""
    a = rng.normal(size=p.shape) + 1j * rng.normal(size=p.shape)
    w, v = np.linalg.eigh(a + a.conj().T)
    u = (v * np.exp(1j * angle * w)) @ v.conj().T
    return u @ p @ u.conj().T


def _grid_family(rng, dim, slots, kind, product):
    """A family whose histories share one time grid: a product family, or
    one whose every node branches into its own decomposition."""
    times = np.cumsum(rng.uniform(0.2, 1.0, size=slots)).tolist()
    provider = random_provider(dim, rng, kind, grid=times + [times[-1] + 1.0])
    child_times = times[1:] + [times[-1] + 1.0]
    if product:
        parts = [int(rng.integers(1, dim + 1)) for _ in range(slots)]
        while math.prod(parts) > 24:
            parts[parts.index(max(parts))] = 1
        return from_product(dim, times, [random_decomposition(dim, k, rng) for k in parts],
                            evolution=provider)
    fam = new_family(dim, times[0], evolution=provider)
    frontier = [0]
    for t in child_times:
        grown = []
        for leaf in frontier:
            parts = 1 if len(frontier) * dim > 24 else int(rng.integers(1, dim + 1))
            known = {m.id for m in fam.moments}
            fam = fam.extend(leaf, random_decomposition(dim, parts, rng), [t] * parts)
            grown += [m.id for m in fam.moments if m.id not in known]
        frontier = grown
    return fam


MUTATIONS = ("drop", "duplicate", "overlap", "rotate-1e-12", "rotate-5e-10", "rotate-2e-9",
             "rotate-1e-6")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.sampled_from(PROVIDER_KINDS),
       st.lists(st.sampled_from(MUTATIONS), max_size=2))
def test_tree_verdict_matches_the_dense_verdict(seed, product, kind, mutations):
    rng = np.random.default_rng(seed)
    dim, slots = int(rng.integers(2, 4)), int(rng.integers(1, 5))
    histories = _grid_family(rng, dim, slots, kind, product).histories()
    for mutation in mutations:
        k = int(rng.integers(len(histories)))
        if mutation == "drop" and len(histories) > 1:
            histories = histories[:k] + histories[k + 1:]
        elif mutation == "duplicate":
            histories = histories + [histories[k]]
        elif mutation != "drop":
            steps = list(histories[k].steps)
            s = int(rng.integers(slots))
            p = (random_decomposition(dim, dim, rng)[0] if mutation == "overlap"
                 else _rotated(steps[s][1], rng, float(mutation.split("-", 1)[1])))
            steps[s] = (steps[s][0], p)
            histories = histories[:k] + [HistorySequence(tuple(steps))] + histories[k + 1:]
    try:
        members = [embed(h) for h in histories]
    except ValueError:  # a rotated factor that is no projector within tol
        return
    clash, complete = _dense_defects(histories)
    assert is_hpo_family(members) == (not clash and complete)
    dense = [kron_all(h.projectors) for h in histories]
    assert_allclose(_dense_sum(members, members[0].dim), sum(dense), atol=1e-12)
    _assert_sound_bounds(members, dense)


def _assert_sound_bounds(members, dense):
    """The tree bounds are at least the dense norms they bound, up to the
    dense products' rounding."""
    clash_bound, bound = tree_bounds(np.stack([np.stack(m.factors) for m in members]))
    pairs = [np.abs(a @ b).max() for i, a in enumerate(dense) for b in dense[i + 1:]]
    assert clash_bound >= max(pairs, default=0.0) * (1 - 1e-12) - 1e-14
    excess = np.linalg.norm(sum(dense) - np.eye(len(dense[0])), 2)
    assert bound >= excess * (1 - 1e-12) - 1e-14


def test_tree_bounds_hold_for_overlapping_and_repeated_members():
    # Slot-0 factors |0><0| and a projector at angle theta from it, each
    # over a repeated member: the sum less the identity has norm
    # 1 + 2 cos(theta), which the completeness bound reaches only with its
    # cross term.
    for theta in (0.1, 0.5, 1.2):
        v = np.array([np.cos(theta), np.sin(theta)])
        near = np.outer(v, v).astype(complex)
        rows = [(P0, I2), (P0, I2), (near, I2), (near, I2), (near, P1)]
        members = [embed(HistorySequence(((0.0, a), (1.0, b)))) for a, b in rows]
        for k in range(2, len(rows) + 1):
            _assert_sound_bounds(members[:k], [np.kron(a, b) for a, b in rows[:k]])


def _near_projector(diagonal, corner=0.0):
    """diag(diagonal) with ``corner`` added at entry (0, 1)."""
    p = np.diag(np.asarray(diagonal, dtype=complex))
    p[0, 1] = corner
    return p


# Each factor passes the 1e-9 projector check alone; the telescoped bound
# on their product, about twice that, does not, so the dense check decides.
DELTA = 0.7e-9
FALLBACK_CASES = {
    # Defects in entries the other factor keeps small: dense defect DELTA.
    "idempotence-accepted": ([1.0, DELTA], [DELTA, 1.0], True),
    # Defects in the same entry compound: dense defect 2 DELTA.
    "idempotence-rejected": ([1.0 + DELTA, 0.0], [1.0 + DELTA, 0.0], False),
}


@pytest.mark.parametrize("name", FALLBACK_CASES)
def test_failed_bound_falls_back_to_the_dense_check(name):
    first, second, accepted = FALLBACK_CASES[name]
    factors = [_near_projector(first), _near_projector(second)]
    assert all(is_projector(f) for f in factors)
    assert not _factors_certified(np.stack(factors), DEFAULT_TOL)
    dense = kron_all(factors)
    assert is_projector(dense) == accepted
    seq = HistorySequence(((0.0, factors[0]), (1.0, factors[1])))
    if accepted:
        assert embed(seq).matrix.tobytes() == dense.tobytes()
    else:
        with pytest.raises(ValueError, match="not a projector"):
            embed(seq)


def test_failed_hermiticity_bound_falls_back_to_the_dense_check():
    # [[1, DELTA], [0, 0]] is idempotent and DELTA from Hermitian; the
    # product of two is DELTA from Hermitian too, the bound 2 DELTA.
    factor = _near_projector([1.0, 0.0], corner=DELTA)
    assert is_projector(factor)
    assert not _factors_certified(np.stack([factor, factor]), DEFAULT_TOL)
    assert is_projector(kron_all([factor, factor]))
    y = embed(HistorySequence(((0.0, factor), (1.0, factor))))
    assert is_homogeneous(y)


def test_telescoped_bound_matches_its_definition():
    # sum_k prod_{s<k} x_s e_k prod_{s>k} y_s, row by row, with x and e of
    # two stacked bounds sharing y, as embed_family evaluates them.
    rng = np.random.default_rng(11)
    for slots in (1, 2, 5):
        x, e = rng.random((2, 2, 3, slots))
        y = rng.random((3, slots))
        expected = [[sum(math.prod(x[b, i, :k]) * e[b, i, k] * math.prod(y[i, k + 1:])
                         for k in range(slots)) for i in range(3)] for b in range(2)]
        assert_allclose(_telescoped(x, e, y), expected, rtol=1e-14)


@pytest.mark.parametrize("first", [True, False])
def test_embed_family_takes_the_dense_check_where_a_bound_fails(first):
    # Two slots of {diag(1 + DELTA, 0), |1><1|}: only the history through
    # both near projectors compounds the idempotence defect past tol; the
    # family fails as embedding that history alone does.
    near = _near_projector([1.0 + DELTA, 0.0])
    pair = [near, P1] if first else [P1, near]
    fam = from_product(2, [0.0, 1.0], [pair, pair])
    histories = fam.histories()
    bad = 0 if first else 3
    for k, h in enumerate(histories):
        if k == bad:
            with pytest.raises(ValueError, match="not a projector"):
                embed(h)
        else:
            embed(h)
    with pytest.raises(ValueError, match="not a projector"):
        embed_family(fam)


def test_exact_factors_pass_the_bound():
    for h in isham_histories():
        assert _factors_certified(np.stack(h.projectors), DEFAULT_TOL)


def test_factors_are_read_only_and_the_matrix_is_not_kept():
    h = isham_histories()[0]
    y = embed(h)
    assert len(y.factors) == 2
    for factor, step in zip(y.factors, h.projectors):
        assert np.array_equal(factor, step)
        with pytest.raises(ValueError, match="read-only"):
            factor[0, 0] = 2.0
    with pytest.raises(AttributeError):
        y.factors = None
    with pytest.raises(AttributeError):
        y.slots = 3
    assert y.matrix is not y.matrix
    copied = pickle.loads(pickle.dumps(y))
    assert copied.matrix.tobytes() == y.matrix.tobytes()
    assert copied.slot_times == y.slot_times
    with pytest.raises(ValueError, match="read-only"):
        copied.factors[1][0, 0] = 2.0
    family, _ = isham_counterexample()
    assert sum_hpo(family, [1, 0, 1, 0]).factors is None
    assert HistoryProjector(np.eye(2), 1, (0.0,), 2).factors is None


def test_mixed_dense_and_factored_family_gets_the_dense_answer():
    family, _ = isham_counterexample()
    members = list(family.members)
    overlapping = embed(HistorySequence(((0.0, P_PLUS), (1.0, P0))))
    for k in range(len(members)):
        m = members[k]
        mixed = members[:k] + [HistoryProjector(m.matrix, m.slots, m.slot_times,
                                                m.base_dim)] + members[k + 1:]
        for group in (mixed, mixed[:k] + mixed[k + 1:], mixed[:k] + [overlapping]
                      + mixed[k + 1:], [overlapping] + mixed):
            clashes, complete = decomposition_defects([y.matrix for y in group],
                                                      DEFAULT_TOL)
            assert is_hpo_family(group) == (not clashes and complete)
        assert is_hpo_family(mixed)


# -- sums of factored members -------------------------------------------------

def _slot_indices(histories):
    """Per history, the index of each step among the distinct projectors of its slot."""
    seen = [{} for _ in histories[0].projectors]
    return [tuple(ids.setdefault(p.tobytes(), len(ids)) for ids, p in zip(seen, h.projectors))
            for h in histories]


def _is_product(indices):
    """True iff the (distinct) index rows are all the rows of a product of per-slot sets."""
    return bool(indices) and len(indices) == math.prod(len({ix[s] for ix in indices})
                                                       for s in range(len(indices[0])))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(PROVIDER_KINDS))
def test_product_selections_stay_factored(seed, kind):
    rng = np.random.default_rng(seed)
    dim, slots = int(rng.integers(2, 4)), int(rng.integers(1, 6))
    parts, histories = _product_histories(rng, dim, slots, kind)
    family = HPOFamily(tuple(embed(h) for h in histories))
    indices = _slot_indices(histories)
    for _ in range(4):
        if rng.random() < 0.5:  # a product of random per-slot subsets
            keep = [set(rng.permutation(k)[:int(rng.integers(1, k + 1))].tolist())
                    for k in parts]
            sel = [int(all(i in ks for i, ks in zip(ix, keep))) for ix in indices]
        else:
            sel = rng.integers(0, 2, size=len(histories)).tolist()
        picked = [i for i, flag in enumerate(sel) if flag]
        y = sum_hpo(family, sel)
        assert (y.factors is not None) == _is_product([indices[i] for i in picked])
        dense = sum((kron_all(histories[i].projectors) for i in picked),
                    np.zeros((family.dim, family.dim), dtype=complex))
        assert_allclose(y.matrix, dense, rtol=0, atol=1e-12)
        assert is_homogeneous(y) == _schmidt_rank_one(dense, dim, slots, RANK1_CUTOFF)
        if y.factors is None:
            continue
        # The sum joins the family in place of its summands, or next to them.
        rest = [m for i, m in enumerate(family.members) if not sel[i]]
        for group in (rest + [y], list(family.members) + [y]):
            clashes, complete = decomposition_defects([m.matrix for m in group], DEFAULT_TOL)
            assert is_hpo_family(group) == (not clashes and complete)
        assert is_hpo_family(rest + [y])


def test_repeats_dense_members_and_empty_selections_sum_densely():
    family, _ = isham_counterexample()
    members = list(family.members)
    # h1 + h2 is the product I (x) |1><1|, but not with h1 twice.
    repeated = HPOFamily(tuple(members + [members[0]]))
    assert sum_hpo(repeated, [1, 1, 0, 0, 0]).factors is not None
    for sel in ([1, 0, 0, 0, 1], [1, 1, 0, 0, 1]):  # 2 h1, 2 h1 + h2
        with pytest.raises(ValueError, match="not a projector"):
            sum_hpo(repeated, sel)
    m = members[1]
    mixed = HPOFamily(tuple([members[0], HistoryProjector(m.matrix, m.slots, m.slot_times,
                                                          m.base_dim)] + members[2:]))
    y = sum_hpo(mixed, [1, 1, 0, 0])
    assert y.factors is None and np.array_equal(y.matrix, np.kron(I2, P1))
    assert is_homogeneous(y)
    zero = sum_hpo(family, [0, 0, 0, 0])
    assert zero.factors is None and not zero.matrix.any()


def test_factor_identity_ignores_the_sign_of_zero():
    signed = P0.copy()
    signed[0, 1] = signed[1, 0] = complex(-0.0, -0.0)
    assert np.array_equal(signed, P0) and signed.tobytes() != P0.tobytes()
    rows = [[(0.0, P0), (1.0, P0)], [(0.0, P1), (1.0, signed)]]
    family = HPOFamily(tuple(embed(HistorySequence(tuple(r))) for r in rows))
    plain = np.stack([np.stack([P0, P0]), np.stack([P1, P0])])
    stacks = np.stack([np.stack(m.factors) for m in family.members])
    factors, ids = _factor_table(stacks)
    assert len(factors) == 2 and ids.tolist() == [[0, 0], [1, 0]]
    assert tree_bounds(stacks) == tree_bounds(plain)
    y = sum_hpo(family, [1, 1])
    assert y.factors is not None and np.array_equal(y.matrix, np.kron(I2, P0))


def test_a_product_sum_in_a_twelve_slot_space_takes_no_dense_matrix():
    # The history space has 4096 dimensions, whose dense matrix takes the
    # whole 256 MiB budget.  A one-slot pair sums to a product: neither the
    # sum nor the homogeneity test may build it.
    # Peak RSS is read as VmHWM, which, unlike ru_maxrss, starts afresh
    # at exec rather than carrying the forking test process's peak.
    pytest.importorskip("resource")
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    result = run_capped("""
        import numpy as np
        from qhistories import embed_family, from_product, is_homogeneous, sum_hpo
        from qhistories.demos import P0, P1, P_MINUS, P_PLUS
        decomps = [[P0, P1], [P_PLUS, P_MINUS], [P0, P1]] + [[np.eye(2)]] * 9
        family = embed_family(from_product(2, [float(k) for k in range(12)], decomps))
        y = sum_hpo(family, [1, 0, 1, 0, 0, 0, 0, 0])  # rows 000 and 010
        homogeneous = is_homogeneous(y)
        with open("/proc/self/status") as f:
            peak = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
        print(family.dim, y.factors is not None, homogeneous, peak << 10)
    """)
    assert result.returncode == 0, result.stderr
    dim, factored, homogeneous, peak = result.stdout.split()
    assert (dim, factored, homogeneous) == ("4096", "True", "True")
    assert int(peak) < hpo._MAX_DENSE_BYTES // 2


# -- dense byte budget ---------------------------------------------------------

def test_dense_budget_raises_value_error_before_allocating():
    # Under a 1 GiB cap a missing check shows as MemoryError, not as a
    # 1-4 GiB allocation.
    pytest.importorskip("resource")
    result = run_capped("""
        import numpy as np
        from qhistories import HistoryProjector, HistorySequence, HPOFamily, embed
        from qhistories import is_hpo_family, sum_hpo
        from qhistories.demos import P0
        seq = HistorySequence(tuple((float(t), P0) for t in range(14)))
        thirteen = embed(HistorySequence(seq.steps[:13]))
        # Factors whose bound fails need the dense check, over budget too.
        near = np.diag([1.0 + 1e-10, 0.0]).astype(complex)
        checks = [
            lambda: embed(seq).matrix,
            lambda: sum_hpo(HPOFamily((thirteen,)), [1]),
            lambda: is_hpo_family([thirteen]),
            lambda: HistoryProjector(np.eye(2), 13, tuple(range(13)), 2),
            lambda: embed(HistorySequence(tuple((float(t), near) for t in range(13)))),
        ]
        for check in checks:
            try:
                check()
                print("no error")
            except Exception as exc:
                print(f"{type(exc).__name__}: {exc}")
    """)
    assert result.returncode == 0, result.stderr
    budget = "over the 268435456-byte budget"
    assert result.stdout.splitlines() == [
        f"ValueError: a dense 16384 x 16384 history-space matrix needs 4294967296 bytes, {budget}",
    ] + 4 * [
        f"ValueError: a dense 8192 x 8192 history-space matrix needs 1073741824 bytes, {budget}",
    ]


def test_hpo_check_of_an_eight_step_family_fits_in_one_gib(tmp_path):
    # 256 histories in a 256-dimensional history space; with dense members
    # the pairwise orthogonality check alone took over a minute.
    pytest.importorskip("resource")
    path = tmp_path / "eight.json"
    start = time.monotonic()
    result = run_capped(f"""
        import sys
        from qhistories import cli, from_product, serialize_family
        from qhistories.demos import P0, P1, P_MINUS, P_PLUS
        decomps = [[P0, P1] if k % 2 else [P_PLUS, P_MINUS] for k in range(8)]
        family = from_product(2, [float(k) for k in range(8)], decomps)
        with open({str(path)!r}, "wb") as f:
            f.write(serialize_family(family))
        sys.exit(cli.main(["hpo-check", {str(path)!r}]))
    """, timeout=60)
    elapsed = time.monotonic() - start
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "embeddable: yes (256 histories, 8 slots, base dim 2, history space dim 256)",
        "hpo family: valid",
        "homogeneous members: 256/256",
    ]
    assert elapsed < 60


def test_hpo_check_of_a_thirteen_step_family_needs_no_dense_total(tmp_path):
    # 8192 histories in an 8192-dimensional history space, whose dense
    # completeness total (1 GiB) is over the budget: the tree certificate
    # decides.  The first refusal is then the 2^20 history-space limit.
    pytest.importorskip("resource")
    result = run_capped(f"""
        import sys
        import numpy as np
        from qhistories import cli, from_product, serialize_family
        from qhistories.demos import P0, P1, P_MINUS, P_PLUS
        for steps, parts in ((13, 13), (20, 1), (21, 1)):
            decomps = [[P0, P1] if k % 2 else [P_PLUS, P_MINUS] for k in range(parts)]
            decomps += [[np.eye(2)]] * (steps - parts)
            family = from_product(2, [float(k) for k in range(steps)], decomps)
            path = {str(tmp_path)!r} + f"/q{{steps}}.json"
            with open(path, "wb") as f:
                f.write(serialize_family(family))
            assert cli.main(["hpo-check", path]) == 0
    """, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "embeddable: yes (8192 histories, 13 slots, base dim 2, history space dim 8192)",
        "hpo family: valid",
        "homogeneous members: 8192/8192",
        "embeddable: yes (2 histories, 20 slots, base dim 2, history space dim 1048576)",
        "hpo family: valid",
        "homogeneous members: 2/2",
        "embeddable: no (history space of 21 slots over dimension 2 exceeds the 2^20 limit)",
    ]


def test_a_dense_member_does_not_make_every_member_dense():
    # Six 9-slot members (4 MiB each as dense matrices), the first given
    # dense.  The dense check builds a batch of them at a time: it must
    # run in four members' worth of address space above what is in use.
    pytest.importorskip("resource")
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status")
    result = run_capped("""
        import resource
        import numpy as np
        from qhistories import HistoryProjector, HistorySequence, embed, is_hpo_family
        from qhistories.demos import P0, P1, P_MINUS, P_PLUS
        I = np.eye(2, dtype=complex)
        rows = ([[P_PLUS] + [I] * 8]
                + [[P_MINUS] + [P1] * k + [P0] + [I] * (7 - k) for k in range(4)]
                + [[P_MINUS] + [P1] * 4 + [I] * 4])
        members = [embed(HistorySequence(tuple((float(t), p) for t, p in enumerate(r))))
                   for r in rows]
        m = members[0]
        members[0] = HistoryProjector(m.matrix, m.slots, m.slot_times, m.base_dim)
        with open("/proc/self/status") as f:
            size = next(int(line.split()[1]) for line in f if line.startswith("VmSize:"))
        cap = size * 1024 + 4 * 16 * m.dim ** 2
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        print(is_hpo_family(members), is_hpo_family(members[1:]))
    """, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "True False"
