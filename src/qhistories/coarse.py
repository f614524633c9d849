"""Coarse graining: merging histories and checking weight additivity.

Two notions live here.  Sibling leaves of a branching family can always
be merged by adding their final projectors (the result is again a history
of a coarser family, and weights add exactly).  Histories of a product
family that differ at a single position can be merged when the differing
projectors are orthogonal, but then additivity of weights is a genuine
question, answered by the pair's decoherence entry.  Merging histories
from different branches is refused: no decomposition defines their sum.

Both merges are linear in the chain operators: the merge of histories
``a`` and ``b`` has the chain ``K_a + K_b``.  So the additivity checks
build no merged history.  A sibling merge reads ``K_a`` and ``K_b`` from
the family's kept leaf chains, and a product merge builds the pair's two
chains, with no third for the sum.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .chain import _weights, chain_operator
from .dynamics import EvolutionProvider
from .errors import TransBranchError
from .linalg import DEFAULT_TOL, max_abs
from .structure import BranchingFamily, HistorySequence

__all__ = [
    "event_probability",
    "intra_branch_sum",
    "verify_intra_additivity",
    "product_sum",
    "verify_product_additivity",
]


def event_probability(weights: Sequence[float], subset: Iterable[int]) -> float:
    """Probability of an event, i.e. the summed weights of a subset of histories.

    ``subset`` holds indices into ``weights`` (duplicates collapse); the
    empty set has probability zero.  Summation runs over increasing index
    with compensated accumulation, so disjoint events add up exactly as
    well as floating point permits.
    """
    table = [float(w) for w in weights]
    indices = sorted(set(int(i) for i in subset))
    for i in indices:
        if not 0 <= i < len(table):
            raise ValueError(f"history index {i} out of range 0..{len(table) - 1}")
    return math.fsum(table[i] for i in indices)


def _sibling_leaves(family: BranchingFamily, leaf_a: int, leaf_b: int,
                    tol: float) -> tuple[int, int]:
    """Positions in leaf order of two sibling leaves; raises as
    :func:`intra_branch_sum` does, in its order."""
    family.ensure_valid(tol)
    rows = family._row(leaf_a), family._row(leaf_b)
    tree = family._tree
    for leaf, r in zip((leaf_a, leaf_b), rows):
        if tree.children[r]:
            raise ValueError(f"node {leaf} is not a leaf")
    if leaf_a == leaf_b:
        raise ValueError("cannot sum a leaf with itself")
    parent = family._nodes.parent
    if parent[rows[0]] != parent[rows[1]]:
        raise TransBranchError(leaf_a, leaf_b)
    leaves = tree.leaves.tolist()
    return leaves.index(rows[0]), leaves.index(rows[1])


def _merged_history(family: BranchingFamily, leaf_a: int, leaf_b: int) -> HistorySequence:
    """The history of ``leaf_a`` with its last projector replaced by the sum
    of the two leaves' projectors."""
    base = family.history_of_leaf(leaf_a)
    p = family.moment(leaf_a).projector + family.moment(leaf_b).projector
    return HistorySequence(base.steps[:-1] + ((base.steps[-1][0], p),))


def intra_branch_sum(family: BranchingFamily, leaf_a: int, leaf_b: int,
                     tol: float = DEFAULT_TOL) -> HistorySequence:
    """Merge two sibling leaves into one history.

    The result shares the common prefix of both histories and ends in the
    sum of the two final projectors, which is again a projector because
    siblings are orthogonal.  An unknown id, a node that is not a leaf or
    the same leaf twice raise ValueError; leaves that do not share a
    parent raise :class:`TransBranchError`.
    """
    _sibling_leaves(family, leaf_a, leaf_b, tol)
    return _merged_history(family, leaf_a, leaf_b)


def _sum_weights(k_1: np.ndarray, k_2: np.ndarray, rho,
                 tol: float) -> tuple[float, float, float]:
    """W(1 + 2), W(1) and W(2) of two chains, checked as :func:`weight` checks.

    Chains are linear in each projector, so the chain of a merge that sums
    one projector of otherwise equal histories is ``k_1 + k_2``.
    """
    return tuple(_weights(np.stack([k_1 + k_2, k_1, k_2]), rho, tol).tolist())


def _sibling_weights(family: BranchingFamily, leaf_a: int, leaf_b: int,
                     tol: float) -> tuple[float, float, float]:
    """W(a + b), W(a) and W(b) of two sibling leaves, read from the family's
    leaf chains; raises as :func:`intra_branch_sum` does."""
    a, b = _sibling_leaves(family, leaf_a, leaf_b, tol)
    chains = family._chains
    return _sum_weights(chains[a], chains[b], family.initial_state, tol)


def verify_intra_additivity(family: BranchingFamily, leaf_a: int, leaf_b: int,
                            tol: float = DEFAULT_TOL) -> bool:
    """Check W(merged) == W(a) + W(b) for two sibling leaves.

    True whenever the weights agree within ``tol``; for sibling leaves
    this holds without any consistency assumption.  Raises as
    :func:`intra_branch_sum` does.
    """
    w_sum, w_a, w_b = _sibling_weights(family, leaf_a, leaf_b, tol)
    return abs(w_sum - (w_a + w_b)) <= tol


def _merged_weights(family: BranchingFamily, leaf_a: int, leaf_b: int,
                    tol: float) -> tuple[HistorySequence, float, float, float, bool]:
    """The merge of two sibling leaves, W(a), W(b), W(merge), and whether they add within ``tol``."""
    w_sum, w_a, w_b = _sibling_weights(family, leaf_a, leaf_b, tol)
    merged = _merged_history(family, leaf_a, leaf_b)
    return merged, w_a, w_b, w_sum, abs(w_sum - (w_a + w_b)) <= tol


def _differing_slot(seq1: HistorySequence, seq2: HistorySequence, tol: float) -> int:
    """The one position where two summable histories differ; raises as
    :func:`product_sum` documents."""
    if len(seq1) != len(seq2):
        raise ValueError(
            f"sequences have different lengths {len(seq1)} and {len(seq2)}")
    if len(seq1) == 0:
        raise ValueError("cannot sum empty sequences")
    for k, (t1, t2) in enumerate(zip(seq1.times, seq2.times)):
        if abs(t1 - t2) > tol:
            raise ValueError(f"step {k}: times {t1} and {t2} differ")
    differing = [
        k for k, (p, q) in enumerate(zip(seq1.projectors, seq2.projectors))
        if max_abs(p - q) > tol
    ]
    if not differing:
        raise ValueError("sequences are identical; nothing to sum")
    if len(differing) > 1:
        raise ValueError(
            f"sequences differ at positions {differing}; "
            f"summation needs exactly one")
    j = differing[0]
    if max_abs(seq1.projectors[j] @ seq2.projectors[j]) > tol:
        raise ValueError(
            f"projectors at position {j} are not orthogonal; sum is not a projector")
    return j


def product_sum(seq1: HistorySequence, seq2: HistorySequence,
                tol: float = DEFAULT_TOL) -> HistorySequence:
    """Merge two equal-time histories differing at exactly one position.

    The differing projectors must be orthogonal; their sum replaces them
    and every other step is kept.  Differing at zero positions, at more
    than one, or with non-orthogonal projectors is an error.
    """
    j = _differing_slot(seq1, seq2, tol)
    steps = list(seq1.steps)
    steps[j] = (steps[j][0], seq1.projectors[j] + seq2.projectors[j])
    return HistorySequence(tuple(steps))


def verify_product_additivity(seq1: HistorySequence, seq2: HistorySequence,
                              evolution: EvolutionProvider, rho,
                              tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Check weight additivity for a summable pair of histories.

    Returns ``(additive, discrepancy)`` where ``discrepancy`` is
    ``W(sum) - W(seq1) - W(seq2)``.  Because chain operators are linear
    in each slot, the sum's chain is the sum of the pair's chains, and the
    discrepancy equals twice the real part of the pair's decoherence
    entry, so it vanishes exactly when the pair does not interfere.
    Raises as :func:`product_sum` does.
    """
    _differing_slot(seq1, seq2, tol)
    w_sum, w_1, w_2 = _sum_weights(chain_operator(seq1, evolution),
                                   chain_operator(seq2, evolution), rho, tol)
    discrepancy = w_sum - (w_1 + w_2)
    return (abs(discrepancy) <= tol, float(discrepancy))
