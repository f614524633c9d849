"""Reference chain operators, weights and decoherence matrices in plain numpy.

Nothing here imports qhistories.  The benchmark describes every family it
generates twice: once as calls into the library and once as a
:class:`Tree` built from the same random inputs.  The correctness gate
compares the library's numbers with the ones computed here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Dynamics:
    """Propagators of one of the three kinds the library knows.

    ``kind`` is ``"trivial"``, ``"hamiltonian"`` (``matrix`` holds H) or
    ``"unitary_table"`` (``breakpoints`` and ``unitaries``).
    """

    kind: str
    dim: int
    matrix: np.ndarray | None = None
    breakpoints: tuple[float, ...] = ()
    unitaries: tuple[np.ndarray, ...] = ()
    _eig: tuple | None = field(default=None, repr=False)

    def propagator(self, t_from: float, t_to: float) -> np.ndarray:
        """Forward propagator; every chain in a family runs forward in time."""
        if self.kind == "trivial":
            return np.eye(self.dim, dtype=complex)
        if self.kind == "hamiltonian":
            if self._eig is None:
                self._eig = np.linalg.eigh(self.matrix)
            energies, vecs = self._eig
            return (vecs * np.exp(-1j * energies * (t_to - t_from))) @ vecs.conj().T
        i = self.breakpoints.index(t_from)
        j = self.breakpoints.index(t_to)
        u = np.eye(self.dim, dtype=complex)
        for k in range(i, j):
            u = self.unitaries[k] @ u
        return u


@dataclass
class Tree:
    """A branching family as plain data.

    ``nodes`` lists ``(id, parent, time, projector)`` in insertion order,
    the root first with parent and projector None.  Children keep their
    insertion order, which fixes the depth-first leaf order.
    """

    dim: int
    rho: np.ndarray
    dynamics: Dynamics
    nodes: list

    def leaf_chains(self) -> tuple[list[int], np.ndarray]:
        """Leaf ids in depth-first order and their chain operators, stacked."""
        root = self.nodes[0][0]
        time = {nid: t for nid, _, t, _ in self.nodes}
        parent_of = {nid: parent for nid, parent, _, _ in self.nodes}
        children: dict[int, list[int]] = {nid: [] for nid, _, _, _ in self.nodes}
        chain: dict[int, np.ndarray] = {}
        for nid, parent, _, proj in self.nodes[1:]:
            children[parent].append(nid)
            if parent == root:
                chain[nid] = proj
            else:
                u = self.dynamics.propagator(time[parent_of[parent]], time[parent])
                chain[nid] = proj @ u @ chain[parent]
        leaves = []
        stack = [root]
        while stack:
            nid = stack.pop()
            kids = children[nid]
            if not kids:
                leaves.append(nid)
            stack.extend(reversed(kids))
        return leaves, np.array([chain[nid] for nid in leaves])

    def decoherence(self) -> np.ndarray:
        """D[a, b] = Tr[rho K_a^dag K_b] over the leaves in depth-first order."""
        _, ks = self.leaf_chains()
        return decoherence(ks, self.rho)


def decoherence(ks: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Decoherence matrix of a stack of chain operators of shape (n, d, d)."""
    n = ks.shape[0]
    left = ks.reshape(n, -1)
    right = (ks @ rho).reshape(n, -1)
    return left.conj() @ right.T


def product_tree(dim: int, rho: np.ndarray, dynamics: Dynamics,
                 times: list[float], decompositions: list[list[np.ndarray]]) -> Tree:
    """The tree of a product family, laid out as the library lays it out.

    Level by level, each leaf receives the next decomposition; leaves end
    at ``times[-1] + 1``.  Leaves come out in lexicographic order, the
    first decomposition slowest.
    """
    nodes = [(0, None, times[0], None)]
    level = [0]
    next_id = 1
    for i, parts in enumerate(decompositions):
        t_next = times[i + 1] if i + 1 < len(times) else times[-1] + 1.0
        new_level = []
        for leaf in level:
            for proj in parts:
                nodes.append((next_id, leaf, t_next, proj))
                new_level.append(next_id)
                next_id += 1
        level = new_level
    return Tree(dim, rho, dynamics, nodes)


def chain_of_steps(dynamics: Dynamics, times: list[float],
                   projectors: list[np.ndarray]) -> np.ndarray:
    """P_n U(t_{n-1}, t_n) ... P_2 U(t_1, t_2) P_1 for one history."""
    k = projectors[0]
    for t_prev, t_cur, proj in zip(times, times[1:], projectors[1:]):
        k = proj @ dynamics.propagator(t_prev, t_cur) @ k
    return k


def weight_of_chain(k: np.ndarray, rho: np.ndarray) -> float:
    return float(np.trace(rho @ k.conj().T @ k).real)


def is_cartesian(indices: list[tuple[int, ...]]) -> bool:
    """True iff a set of multi-indices is a product of per-slot index sets.

    Members of a product family are orthogonal products of nonzero
    projectors, so their sum is itself a product operator exactly when
    the selected multi-indices form such a set.
    """
    chosen = set(indices)
    size = 1
    for slot in range(len(indices[0])):
        size *= len({ix[slot] for ix in chosen})
    return size == len(chosen)
