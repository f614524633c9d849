"""History-projector embeddings, sums and the homogeneity test."""

import math
import pickle
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import PROVIDER_KINDS, random_decomposition, random_provider, run_capped
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
from qhistories.demos import P0, P1, P_MINUS, P_PLUS
from qhistories.dynamics import TrivialEvolution
from qhistories import hpo
from qhistories.hpo import (
    RANK1_CUTOFF,
    _dense_sum,
    _factors_certified,
    _factors_clash,
    _schmidt_rank_one,
)
from qhistories.linalg import DEFAULT_TOL, decomposition_defects, is_projector, kron_all

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


def test_embed_family_needs_shared_times():
    fam = new_family(2, 0.0).extend(0, [P0, P1], [1.0, 2.0])
    first, second = (m.id for m in fam.leaves())
    fam = fam.extend(first, [P0, P1], [3.0, 3.0])
    fam = fam.extend(second, [P0, P1], [3.0, 3.0])
    with pytest.raises(EmbeddingError, match="time grid"):
        embed_family(fam)
    with pytest.raises(EmbeddingError, match="empty"):
        embed_family(new_family(2, 0.0))


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
    """(any clash, HPO-family verdict) of the histories' dense embeddings."""
    clashes, complete = decomposition_defects([kron_all(h.projectors) for h in histories],
                                              DEFAULT_TOL)
    return bool(clashes), not clashes and complete


def _product_histories(rng, dim, slots, kind):
    """Histories of a random product family of at most 16 members."""
    parts = [int(rng.integers(1, dim + 1)) for _ in range(slots)]
    while math.prod(parts) > 16:
        parts[parts.index(max(parts))] = 1
    times = np.cumsum(rng.uniform(0.2, 1.0, size=slots)).tolist()
    provider = random_provider(dim, rng, kind, grid=times + [times[-1] + 1.0])
    decomps = [random_decomposition(dim, k, rng) for k in parts]
    return parts, from_product(dim, times, decomps, evolution=provider).histories()


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

    groups = [(histories, (False, True))]
    n = len(histories)
    if n > 1:
        k = int(rng.integers(n))
        groups.append((histories[:k] + histories[k + 1:], (False, False)))
        # One slot factor of member k swapped for a projector that overlaps
        # the factor of a member differing from k in that slot only.
        s = int(rng.choice([i for i, p in enumerate(parts) if p > 1]))
        steps = list(histories[k].steps)
        steps[s] = (steps[s][0], random_decomposition(dim, dim, rng)[0])
        swapped = histories[:k] + [HistorySequence(tuple(steps))] + histories[k + 1:]
        groups.append((swapped, (True, False)))
    for group, expected in groups:
        assert _dense_defects(group) == expected
        members = [embed(h) for h in group]
        stacks = np.stack([np.stack(m.factors) for m in members])
        assert _factors_clash(stacks, DEFAULT_TOL) == expected[0]
        with monkeypatch.context() as m:  # one row per GEMM block
            m.setattr(hpo, "_MAX_DENSE_BYTES", 0)
            assert _factors_clash(stacks, DEFAULT_TOL) == expected[0]
        assert is_hpo_family(members) == expected[1]
        assert_allclose(_dense_sum(members, members[0].dim),
                        sum(kron_all(h.projectors) for h in group), atol=1e-12)


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
