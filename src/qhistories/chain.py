"""Chain operators, weights and decoherence matrices.

The chain operator of a history is built incrementally in time order: it
starts as the first projector (no propagator in front of it) and each
later step left-multiplies the propagator from the previous step's time
followed by the step's projector.

For a valid family the chains come from one pass per tree level rather
than one pass per history: every shared prefix of histories is a single
node, so a node's chain is computed once, as its projector times its
parent's chain carried forward by one propagator, a whole level in one
batched product over the family's projector stack.  The leaves' chains
form a stack ``K`` of shape ``(n, d, d)``, computed once per family and
kept by it, read-only, for every later weight table, decoherence matrix
and sibling merge.  Each propagator is computed once per provider: the
providers remember them, and a tree level asks for each distinct pair
of times once.

Weights and decoherence entries are the Gell-Mann--Hartle decoherence
functional ``D_ab = Tr[rho K_a^dag K_b]``.  With ``A = K`` and
``B = K rho``, each flattened to ``(n, d*d)``, the whole matrix is the
Gram form ``D = conj(A) @ B.T``, one matrix product, and the weights are
its diagonal taken row by row.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .dynamics import EvolutionProvider
from .linalg import DEFAULT_TOL, adjoint, as_operator, max_abs
from .structure import BranchingFamily, HistorySequence

__all__ = [
    "chain_operator",
    "weight",
    "evolved_state",
    "weight_table",
    "decoherence_matrix",
    "family_decoherence_matrix",
    "is_consistent",
    "is_weakly_consistent",
    "is_dynamically_impossible",
]


def chain_operator(seq: HistorySequence, evolution: EvolutionProvider) -> np.ndarray:
    """Chain operator of ``seq`` under the given dynamics.

    For steps ``(t_1, P_1), ..., (t_n, P_n)`` the result is

        P_n U(t_{n-1}, t_n) ... P_2 U(t_1, t_2) P_1

    with ``U(a, b)`` the propagator from ``a`` to ``b``.  The empty
    sequence yields the identity.
    """
    d = evolution.dim
    if len(seq) == 0:
        return np.eye(d, dtype=complex)
    if seq.dim != d:
        raise ValueError(
            f"sequence dimension {seq.dim} does not match evolution dimension {d}")
    steps = seq.steps
    k = np.array(steps[0][1], dtype=complex)
    for (t_prev, _), (t_cur, p_cur) in zip(steps, steps[1:]):
        k = p_cur @ evolution.propagator(t_prev, t_cur) @ k
    return k


def _leaf_chains(family: BranchingFamily) -> np.ndarray:
    """Chain operators of a valid family's leaves, stacked in leaf order.

    One pass per tree level: the root's chain is the identity and a
    level's chains are, in one batched product, its projectors times the
    chains their parents carry, where a node ``p`` below ``g`` carries
    ``U(t_g, t_p) K_p`` and the root carries its identity.  The provider,
    which remembers its propagators, is asked once per level and distinct
    ``(t_from, t_to)``.  A bare root yields one identity.  Each call
    computes afresh; ``BranchingFamily._chains`` keeps the first result.
    """
    nodes, tree = family._nodes, family._tree
    children, parent = tree.children.tolist(), nodes.parent.tolist()
    times = nodes.time.tolist()
    # chains[r]: node r's chain, carried forward by its propagator if r has children.
    chains = np.empty(nodes.projectors.shape, dtype=complex)
    chains[tree.levels[0]] = np.eye(family.dim)
    # ``take`` gathers rows at a fraction of fancy indexing's fixed cost.
    for rows in tree.levels[1:]:
        parents = chains.take(nodes.parent[rows], axis=0)
        chains[rows] = nodes.projectors.take(rows, axis=0) @ parents
        groups: dict[tuple[float, float], list[int]] = {}
        for r in rows.tolist():
            if children[r]:
                groups.setdefault((times[parent[r]], times[r]), []).append(r)
        for key, sel in groups.items():
            chains[sel] = family.evolution.propagator(*key) @ chains.take(sel, axis=0)
    return chains[tree.leaves]


def _flat_sides(ks: np.ndarray, rho) -> tuple[np.ndarray, np.ndarray]:
    """``K`` and ``K rho`` for a stack of chains, each flattened to ``(n, d*d)``.

    ``Tr[rho K_a^dag K_b]`` is the sum over entries of ``conj(K_a) * (K_b rho)``.
    """
    r = as_operator(rho)
    n, d, _ = ks.shape
    if r.shape != (d, d):
        raise ValueError(
            f"dimension mismatch: rho {r.shape}, chain operators {(d, d)}")
    return ks.reshape(n, d * d), (ks @ r).reshape(n, d * d)


def _weights(ks: np.ndarray, rho, tol: float) -> np.ndarray:
    """Weights of a stack of chains, checked and clamped as :func:`weight` says."""
    a, b = _flat_sides(ks, rho)
    values = np.einsum("ij,ij->i", a.conj(), b)
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"weight {values[~finite][0]} is not finite")
    imag = values.imag[np.abs(values.imag) > tol]
    if imag.size:
        raise ValueError(f"weight has imaginary part {imag[0]}")
    w = values.real
    negative = w[w < -tol]
    if negative.size:
        raise ValueError(f"weight {negative[0]} is negative beyond -tol")
    return np.where(w < 0.0, 0.0, w)


def _gram(ks: np.ndarray, rho) -> np.ndarray:
    """Decoherence matrix of a stack of chains as one matrix product."""
    a, b = _flat_sides(ks, rho)
    return a.conj() @ b.T


def weight(seq: HistorySequence, evolution: EvolutionProvider, rho,
           tol: float = DEFAULT_TOL) -> float:
    """Weight Tr[rho K^dag K] of one history.

    The value is real and nonnegative up to roundoff; tiny negative
    values (above ``-tol``) are clamped to zero, anything worse is an
    error, as is a non-negligible imaginary part or a value that is not
    finite.
    """
    return float(_weights(chain_operator(seq, evolution)[np.newaxis], rho, tol)[0])


def evolved_state(seq: HistorySequence, evolution: EvolutionProvider, rho) -> np.ndarray:
    """Unnormalized state K rho K^dag conditioned on the history.

    Its trace equals the history's weight.
    """
    k = chain_operator(seq, evolution)
    return k @ as_operator(rho) @ adjoint(k)


def weight_table(family: BranchingFamily, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Weights of every history of a valid family, in depth-first leaf order."""
    family.ensure_valid(tol)
    return _weights(family._chains, family.initial_state, tol)


def decoherence_matrix(seqs: Sequence[HistorySequence],
                       evolution: EvolutionProvider, rho) -> np.ndarray:
    """Matrix of pairwise inner products Tr[rho K_a^dag K_b].

    The diagonal holds the weights; the matrix is Hermitian up to
    roundoff.
    """
    d = evolution.dim
    ks = np.array([chain_operator(s, evolution) for s in seqs], dtype=complex)
    return _gram(ks.reshape(-1, d, d), rho)


def family_decoherence_matrix(family: BranchingFamily,
                              tol: float = DEFAULT_TOL) -> np.ndarray:
    """Decoherence matrix of a valid family's histories in leaf order."""
    family.ensure_valid(tol)
    return _gram(family._chains, family.initial_state)


def _off_diagonal_max(d, real_part: bool) -> float:
    """Largest |D_ab| (or |Re D_ab|) over a != b, 0.0 when there is none.

    NaN when a diagonal entry (its real part) is not finite, as the norm
    of ``d - diag(d)`` reads it (inf - inf), without forming that matrix.
    """
    d = np.asarray(d, dtype=complex)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {d.shape}")
    magnitudes = np.abs(d.real if real_part else d)
    if not np.isfinite(magnitudes.diagonal()).all():
        return math.nan
    np.fill_diagonal(magnitudes, 0.0)
    return float(magnitudes.max(initial=0.0))


def is_consistent(d, tol: float = DEFAULT_TOL) -> bool:
    """Medium consistency: every off-diagonal entry vanishes within ``tol``."""
    return _off_diagonal_max(d, real_part=False) <= tol


def is_weakly_consistent(d, tol: float = DEFAULT_TOL) -> bool:
    """Weak consistency: off-diagonal entries have vanishing real part.

    Strictly weaker than medium consistency, so anything passing
    :func:`is_consistent` passes here too.
    """
    return _off_diagonal_max(d, real_part=True) <= tol


def is_dynamically_impossible(seq: HistorySequence,
                              evolution: EvolutionProvider,
                              tol: float = DEFAULT_TOL) -> bool:
    """True iff the dynamics alone annihilates the chain operator.

    Every step projector must be nonzero; a vanishing chain operator is
    then attributable to the propagators, not to a trivially empty
    question.  Sequences containing a zero projector return False.
    """
    if len(seq) == 0:
        return False
    if any(max_abs(p) <= tol for p in seq.projectors):
        return False
    return max_abs(chain_operator(seq, evolution)) <= tol
