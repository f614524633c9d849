"""Unitary time development between the moments of a history.

A provider answers one question: what unitary carries states from time
``t_from`` to time ``t_to``?  All providers satisfy

* ``propagator(t, t)`` is the identity,
* ``propagator(t2, t3) @ propagator(t1, t2) == propagator(t1, t3)``,
* ``propagator(t_b, t_a) == adjoint(propagator(t_a, t_b))``,

so running a history backwards undoes running it forwards.

The providers of this module remember the propagators they have
computed, so each is computed once per provider: the Hamiltonian by
time step, the unitary table by breakpoint pair, the trivial provider
its one identity.  A remembered propagator is handed out as a
read-only array, equal in bytes to what a fresh provider computes.  A
provider keeps at most a fixed number of them (fewer at large
dimensions) and forgets the oldest first.
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
# A provider remembers at most this many propagators, and at most this
# many bytes of them.
_MEMO_ENTRIES = 256
_MEMO_BYTES = 8 << 20


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


class _Memo(dict):
    """Read-only propagators by key, at most a fixed number for the dimension;
    the oldest is forgotten first."""

    def __init__(self, dim: int):
        super().__init__()
        self.size = max(1, min(_MEMO_ENTRIES, _MEMO_BYTES // (16 * dim * dim)))

    def keep(self, key, u: np.ndarray) -> np.ndarray:
        """Remember ``u`` under ``key`` and return it as a read-only view."""
        if len(self) >= self.size:
            self.pop(next(iter(self)), None)
        u = u.view()
        u.flags.writeable = False
        self[key] = u
        return u


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
        self._identity = np.eye(self._dim, dtype=complex)
        self._identity.flags.writeable = False

    @property
    def dim(self) -> int:
        return self._dim

    def propagator(self, t_from: float, t_to: float) -> np.ndarray:
        return self._identity

    def __repr__(self) -> str:
        return f"TrivialEvolution(dim={self._dim})"


class ConstantHamiltonian(EvolutionProvider):
    """Evolution exp(-i H (t_to - t_from)) under a fixed Hermitian generator.

    The eigendecomposition of ``H`` is cached at construction so each
    propagator is a cheap reassembly, and each is remembered by its time
    step ``t_to - t_from``.
    """

    def __init__(self, hamiltonian, tol: float = DEFAULT_TOL):
        h = as_operator(hamiltonian)
        if not is_hermitian(h, tol):
            raise ValueError("hamiltonian is not Hermitian within tol")
        self.hamiltonian = h
        self._dim = h.shape[0]
        self._eigenvalues, self._eigenvectors = np.linalg.eigh(h)
        self._memo = _Memo(self._dim)

    @property
    def dim(self) -> int:
        return self._dim

    def propagator(self, t_from: float, t_to: float) -> np.ndarray:
        dt = float(t_to) - float(t_from)
        key = (dt, math.copysign(1.0, dt))  # a step of -0.0 may differ in the signs of zeros
        u = self._memo.get(key)
        if u is None:
            phases = np.exp(-1j * self._eigenvalues * dt)
            v = self._eigenvectors
            u = self._memo.keep(key, (v * phases) @ v.conj().T)
        return u

    def __repr__(self) -> str:
        return f"ConstantHamiltonian(dim={self._dim})"


class PiecewiseUnitary(EvolutionProvider):
    """Explicit unitaries on the intervals of an ordered breakpoint grid.

    ``breakpoints`` are strictly increasing times ``t_0 < ... < t_k`` and
    ``unitaries[i]`` carries states from ``t_i`` to ``t_{i+1}``.  Times
    passed to :meth:`propagator` must coincide with breakpoints; there is
    no interpolation inside an interval, and asking for an uncovered or
    unaligned time is an error.  Backward propagation is the adjoint of
    the forward product.  Propagators are remembered by breakpoint pair.
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
        self._memo = _Memo(self._dim)

    @property
    def dim(self) -> int:
        return self._dim

    def covers(self, t: float) -> bool:
        """True iff ``t`` coincides with one of the stored breakpoints."""
        return self._index_of(t) is not None

    def _index_of(self, t: float) -> int | None:
        """The index of the breakpoint ``t`` coincides with, or None."""
        return next((i for i, b in enumerate(self.breakpoints)
                     if abs(t - b) <= TIME_ALIGN_TOL), None)

    def propagator(self, t_from: float, t_to: float) -> np.ndarray:
        i, j = self._index_of(float(t_from)), self._index_of(float(t_to))
        for t, index in ((t_from, i), (t_to, j)):
            if index is None:
                raise ValueError(
                    f"time {float(t)} does not align with any breakpoint of the unitary table")
        u = self._memo.get((i, j))
        if u is not None:
            return u
        if i == j:
            u = np.eye(self._dim, dtype=complex)
        elif i < j:
            u = self.unitaries[i]
            for k in range(i + 1, j):
                u = self.unitaries[k] @ u
        else:
            u = self.propagator(t_to, t_from).conj().T
        return self._memo.keep((i, j), u)

    def __repr__(self) -> str:
        return (f"PiecewiseUnitary(dim={self._dim}, "
                f"breakpoints={list(self.breakpoints)})")
