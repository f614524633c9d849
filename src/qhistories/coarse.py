"""Coarse graining: merging histories and checking weight additivity.

Two notions live here.  Sibling leaves of a branching family can always
be merged by adding their final projectors (the result is again a history
of a coarser family, and weights add exactly).  Histories of a product
family that differ at a single position can be merged when the differing
projectors are orthogonal, but then additivity of weights is a genuine
question, answered by the pair's decoherence entry.  Merging histories
from different branches is refused: no decomposition defines their sum.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .chain import weight
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


def intra_branch_sum(family: BranchingFamily, leaf_a: int, leaf_b: int,
                     tol: float = DEFAULT_TOL) -> HistorySequence:
    """Merge two sibling leaves into one history.

    The result shares the common prefix of both histories and ends in the
    sum of the two final projectors, which is again a projector because
    siblings are orthogonal.  Leaves that do not share a parent raise
    :class:`TransBranchError`.
    """
    family.ensure_valid(tol)
    a = family.moment(leaf_a)
    b = family.moment(leaf_b)
    for m in (a, b):
        if not family.is_leaf(m.id):
            raise ValueError(f"node {m.id} is not a leaf")
    if leaf_a == leaf_b:
        raise ValueError("cannot sum a leaf with itself")
    if a.parent != b.parent:
        raise TransBranchError(leaf_a, leaf_b)
    base = family.history_of_leaf(leaf_a)
    merged = base.steps[:-1] + ((base.steps[-1][0], a.projector + b.projector),)
    return HistorySequence(merged)


def verify_intra_additivity(family: BranchingFamily, leaf_a: int, leaf_b: int,
                            tol: float = DEFAULT_TOL) -> bool:
    """Check W(merged) == W(a) + W(b) for two sibling leaves.

    True whenever the weights agree within ``tol``; for sibling leaves
    this holds without any consistency assumption.
    """
    return _merged_weights(family, leaf_a, leaf_b, tol)[-1]


def _merged_weights(family: BranchingFamily, leaf_a: int, leaf_b: int,
                    tol: float) -> tuple[HistorySequence, float, float, float, bool]:
    """The merge of two sibling leaves, W(a), W(b), W(merge), and whether they add within ``tol``."""
    merged = intra_branch_sum(family, leaf_a, leaf_b, tol)
    evolution, rho = family.evolution, family.initial_state
    w_a = weight(family.history_of_leaf(leaf_a), evolution, rho, tol)
    w_b = weight(family.history_of_leaf(leaf_b), evolution, rho, tol)
    w_sum = weight(merged, evolution, rho, tol)
    return merged, w_a, w_b, w_sum, abs(w_sum - (w_a + w_b)) <= tol


def product_sum(seq1: HistorySequence, seq2: HistorySequence,
                tol: float = DEFAULT_TOL) -> HistorySequence:
    """Merge two equal-time histories differing at exactly one position.

    The differing projectors must be orthogonal; their sum replaces them
    and every other step is kept.  Differing at zero positions, at more
    than one, or with non-orthogonal projectors is an error.
    """
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
    p, q = seq1.projectors[j], seq2.projectors[j]
    if max_abs(p @ q) > tol:
        raise ValueError(
            f"projectors at position {j} are not orthogonal; sum is not a projector")
    steps = list(seq1.steps)
    steps[j] = (steps[j][0], p + q)
    return HistorySequence(tuple(steps))


def verify_product_additivity(seq1: HistorySequence, seq2: HistorySequence,
                              evolution: EvolutionProvider, rho,
                              tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Check weight additivity for a summable pair of histories.

    Returns ``(additive, discrepancy)`` where ``discrepancy`` is
    ``W(sum) - W(seq1) - W(seq2)``.  Because chain operators are linear
    in each slot, the discrepancy equals twice the real part of the
    pair's decoherence entry, so it vanishes exactly when the pair does
    not interfere.
    """
    merged = product_sum(seq1, seq2, tol)
    w_sum = weight(merged, evolution, rho, tol)
    w_1 = weight(seq1, evolution, rho, tol)
    w_2 = weight(seq2, evolution, rho, tol)
    discrepancy = w_sum - (w_1 + w_2)
    return (abs(discrepancy) <= tol, float(discrepancy))
