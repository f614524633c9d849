"""History-projector embeddings, sums and the homogeneity test."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qhistories
from helpers import random_decomposition
from qhistories import (
    EmbeddingError,
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
    from qhistories import HistoryProjector
    with pytest.raises(ValueError, match="projector"):
        HistoryProjector(np.array([[0.5, 0], [0, 0.5]]), 1, (0.0,), 2)
    with pytest.raises(ValueError, match="shape"):
        HistoryProjector(np.eye(2), 2, (0.0, 1.0), 2)
    with pytest.raises(ValueError, match="increasing"):
        HistoryProjector(np.eye(4), 2, (1.0, 0.0), 2)


def test_is_homogeneous_long_history_fits_in_one_gib():
    # The first Schmidt split of an 8-slot qubit history is 4 x 16384; a
    # full right singular factor of it alone would take 4 GiB.
    pytest.importorskip("resource")
    code = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from qhistories import HistorySequence, embed, is_homogeneous
        from qhistories.demos import P0, P_PLUS
        seq = HistorySequence(tuple((float(t), (P0, P_PLUS)[t % 2]) for t in range(8)))
        print(is_homogeneous(embed(seq)))
    """)
    src = str(Path(qhistories.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "True"
