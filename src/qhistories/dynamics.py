"""Unitary time development between the moments of a history.

A provider answers one question: what unitary carries states from time
``t_from`` to time ``t_to``?  All providers satisfy

* ``propagator(t, t)`` is the identity,
* ``propagator(t2, t3) @ propagator(t1, t2) == propagator(t1, t3)``,
* ``propagator(t_b, t_a) == adjoint(propagator(t_a, t_b))``,

so running a history backwards undoes running it forwards.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from .linalg import DEFAULT_TOL, as_operator, is_hermitian, is_unitary

__all__ = [
    "EvolutionProvider",
    "TrivialEvolution",
    "ConstantHamiltonian",
    "PiecewiseUnitary",
]

# Times are matched against stored breakpoints within this tolerance.
TIME_ALIGN_TOL = 1e-9


def _finite_times(times: Sequence[float], what: str) -> list[float]:
    """``times`` as floats; raises ValueError naming the first NaN or
    infinite one, or an integer beyond the float range, as given."""
    out = []
    for t in times:
        try:
            out.append(float(t))
        except OverflowError:  # an integer beyond the float range
            out.append(math.inf)
        if not math.isfinite(out[-1]):
            raise ValueError(f"{what} {t} is not finite")
    return out


class EvolutionProvider(ABC):
    """Interface for the dynamics attached to a branching family."""

    @property
    @abstractmethod
    def dim(self) -> int:
        """Hilbert-space dimension the propagators act on."""

    @abstractmethod
    def propagator(self, t_from: float, t_to: float) -> np.ndarray:
        """Unitary mapping states at ``t_from`` to states at ``t_to``."""


class TrivialEvolution(EvolutionProvider):
    """No dynamics: every propagator is the identity."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        self._dim = int(dim)

    @property
    def dim(self) -> int:
        return self._dim

    def propagator(self, t_from: float, t_to: float) -> np.ndarray:
        return np.eye(self._dim, dtype=complex)

    def __repr__(self) -> str:
        return f"TrivialEvolution(dim={self._dim})"


class ConstantHamiltonian(EvolutionProvider):
    """Evolution exp(-i H (t_to - t_from)) under a fixed Hermitian generator.

    The eigendecomposition of ``H`` is cached at construction so each
    propagator is a cheap reassembly.
    """

    def __init__(self, hamiltonian, tol: float = DEFAULT_TOL):
        h = as_operator(hamiltonian)
        if not is_hermitian(h, tol):
            raise ValueError("hamiltonian is not Hermitian within tol")
        self.hamiltonian = h
        self._dim = h.shape[0]
        self._eigenvalues, self._eigenvectors = np.linalg.eigh(h)

    @property
    def dim(self) -> int:
        return self._dim

    def propagator(self, t_from: float, t_to: float) -> np.ndarray:
        dt = float(t_to) - float(t_from)
        phases = np.exp(-1j * self._eigenvalues * dt)
        v = self._eigenvectors
        return (v * phases) @ v.conj().T

    def __repr__(self) -> str:
        return f"ConstantHamiltonian(dim={self._dim})"


class PiecewiseUnitary(EvolutionProvider):
    """Explicit unitaries on the intervals of an ordered breakpoint grid.

    ``breakpoints`` are strictly increasing times ``t_0 < ... < t_k`` and
    ``unitaries[i]`` carries states from ``t_i`` to ``t_{i+1}``.  Times
    passed to :meth:`propagator` must coincide with breakpoints; there is
    no interpolation inside an interval, and asking for an uncovered or
    unaligned time is an error.  Backward propagation is the adjoint of
    the forward product.
    """

    def __init__(self, breakpoints: Sequence[float], unitaries: Sequence,
                 tol: float = DEFAULT_TOL):
        times = tuple(_finite_times(breakpoints, "breakpoint"))
        if len(times) < 2:
            raise ValueError("a unitary table needs at least two breakpoints")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        mats = [as_operator(u) for u in unitaries]
        if len(mats) != len(times) - 1:
            raise ValueError(
                f"{len(times)} breakpoints need {len(times) - 1} unitaries, "
                f"got {len(mats)}"
            )
        dims = {u.shape[0] for u in mats}
        if len(dims) > 1:
            raise ValueError("unitaries have mixed dimensions")
        for i, u in enumerate(mats):
            if not is_unitary(u, tol):
                raise ValueError(f"interval {i}: matrix is not unitary within tol")
        self.breakpoints = times
        self.unitaries = tuple(mats)
        self._dim = mats[0].shape[0]

    @property
    def dim(self) -> int:
        return self._dim

    def covers(self, t: float) -> bool:
        """True iff ``t`` coincides with one of the stored breakpoints."""
        return any(abs(t - b) <= TIME_ALIGN_TOL for b in self.breakpoints)

    def _index_of(self, t: float) -> int:
        for i, b in enumerate(self.breakpoints):
            if abs(t - b) <= TIME_ALIGN_TOL:
                return i
        raise ValueError(
            f"time {t} does not align with any breakpoint of the unitary table"
        )

    def propagator(self, t_from: float, t_to: float) -> np.ndarray:
        i = self._index_of(float(t_from))
        j = self._index_of(float(t_to))
        if i == j:
            return np.eye(self._dim, dtype=complex)
        if i < j:
            u = self.unitaries[i]
            for k in range(i + 1, j):
                u = self.unitaries[k] @ u
            return u
        return self.propagator(t_to, t_from).conj().T

    def __repr__(self) -> str:
        return (f"PiecewiseUnitary(dim={self._dim}, "
                f"breakpoints={list(self.breakpoints)})")
