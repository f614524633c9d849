"""The three benchmark workloads: inputs, the calls each document makes, checks.

Each workload runs documents in cycles of a fixed schedule.  The
schedule fixes every size (dimension, slots, parts, nodes), so the mix of
small and large documents, and with it every percentile, is the same for
every seed; the seed only draws the bases, dynamics, states, times and
which pairs are merged.  Cycle ``c`` of seed ``s`` draws from
``default_rng([s, workload, c])``, so no two cycles repeat a document.

Every call into qhistories goes through the :class:`~harness.Batch`
passed in, which counts it and, when tracing, records its span.  The
checks run after the document's timer stops.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from harness import Batch, SpeedProbe
from reference import (Dynamics, Tree, chain_of_steps, decoherence, is_cartesian, product_tree,
                       weight_of_chain)

# Library answers must match the reference to this max-abs distance.
REF_TOL = 1e-10
# The library's default tolerance; verdicts and weight sums are judged at it.
LIB_TOL = 1e-9


@dataclass
class Doc:
    """One document: its kind, its size bucket and its generated inputs."""

    kind: str
    bucket: str
    inputs: dict = field(default_factory=dict)


# -- random inputs -------------------------------------------------------------

def random_unitary(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (z + z.conj().T) / 2


def random_density(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


def decomposition(rng, d: int, parts: int, diagonal: bool = False,
                  random_ranks: bool = False) -> list[np.ndarray]:
    """``parts`` orthogonal projectors summing to the identity.

    Ranks are as equal as possible, or cut at random points; the basis is
    random, or the computational one (shuffled) when ``diagonal``.
    """
    if random_ranks and parts > 1:
        cuts = np.sort(rng.choice(np.arange(1, d), parts - 1, replace=False))
    else:
        cuts = np.cumsum([len(c) for c in np.array_split(np.arange(d), parts)])[:-1]
    basis = np.eye(d, dtype=complex)[:, rng.permutation(d)] if diagonal else random_unitary(rng, d)
    return [basis[:, cols] @ basis[:, cols].conj().T for cols in np.split(np.arange(d), cuts)]


def history_bucket(n: int) -> str:
    """Power-of-two bucket of a history count: n16, n32, ... n256."""
    return f"n{max(16, 1 << (n - 1).bit_length())}"


def max_abs(m) -> float:
    return float(np.max(np.abs(m))) if np.size(m) else 0.0


class Workload:
    """Shared machinery: cycles of documents, the warm-up document, checks."""

    name = ""
    salt = 0
    schedule: list = []

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib = lib
        self.q = lib.q
        self.seed = seed
        self.workdir = workdir
        self.path = workdir / "current.json"
        self.probe = SpeedProbe()
        self._cycle0: list[Doc] | None = None

    def prepare(self) -> None:
        """Generate the first cycle and write the fixed documents."""
        self._cycle0 = self.generate(0)

    def cycle(self, index: int) -> list[Doc]:
        if index == 0 and self._cycle0 is not None:
            return self._cycle0
        return self.generate(index)

    def generate(self, index: int) -> list[Doc]:
        rng = np.random.default_rng([self.seed, self.salt, index])
        docs = [self.make(rng, *entry) for entry in self.schedule]
        return [docs[i] for i in rng.permutation(len(docs))]

    def warmup_doc(self) -> Doc:
        """The first (smallest) schedule entry, drawn from its own stream."""
        rng = np.random.default_rng([self.seed, self.salt, 1 << 30])
        return self.make(rng, *self.schedule[0])

    def process(self, doc: Doc, b: Batch) -> None:
        with b.document(doc.kind, doc.bucket) as res:
            self.run(doc, b, res)
        if res["done"]:
            self.check(doc, b, res)
        b.end_document()
        b.probe_seconds.append(self.probe())

    def make(self, rng, *entry) -> Doc:
        raise NotImplementedError

    def run(self, doc: Doc, b: Batch, res: dict) -> None:
        raise NotImplementedError

    def check(self, doc: Doc, b: Batch, res: dict) -> None:
        raise NotImplementedError

    # -- pieces shared by the product-family workloads -----------------------

    def _dynamics(self, rng, kind: str, dim: int, times: list[float], diagonal: bool):
        """A library provider and the reference description of the same dynamics."""
        q = self.q
        if kind == "trivial":
            return q.TrivialEvolution(dim), Dynamics("trivial", dim)
        if kind == "ham":
            h = (np.diag(rng.normal(size=dim)).astype(complex) if diagonal
                 else random_hermitian(rng, dim))
            return q.ConstantHamiltonian(h), Dynamics("hamiltonian", dim, matrix=h)
        us = [np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, dim))) if diagonal
              else random_unitary(rng, dim) for _ in range(len(times) - 1)]
        return (q.PiecewiseUnitary(times, us),
                Dynamics("unitary_table", dim, breakpoints=tuple(times), unitaries=tuple(us)))

    def _product_inputs(self, rng, dim: int, parts: list[int], kind: str,
                        diagonal: bool = False) -> dict:
        times = [0.0] + list(np.cumsum(rng.uniform(0.25, 1.0, len(parts) - 1)))
        decomps = [decomposition(rng, dim, k, diagonal) for k in parts]
        rho = "maximally_mixed" if rng.random() < 0.5 else random_density(rng, dim)
        evolution, dynamics = self._dynamics(rng, kind, dim, times, diagonal)
        return {"dim": dim, "parts": parts, "times": times, "decomps": decomps,
                "rho": rho, "evolution": evolution, "dynamics": dynamics,
                "n": math.prod(parts)}

    @staticmethod
    def _tree(inputs: dict) -> Tree:
        dim, rho = inputs["dim"], inputs["rho"]
        rho = np.eye(dim, dtype=complex) / dim if isinstance(rho, str) else rho
        return product_tree(dim, rho, inputs["dynamics"], inputs["times"], inputs["decomps"])

    def _from_product(self, doc: Doc, b: Batch):
        x = doc.inputs
        fam = b.call("structure.from_product", self.q.from_product, x["dim"], x["times"],
                     x["decomps"], initial_state=x["rho"], evolution=x["evolution"])
        b.count("structure.nodes", len(fam))
        b.count("structure.leaves", x["n"])
        return fam

    def _write(self, b: Batch, fam) -> str:
        data = b.call("fileio.serialize_family", self.q.serialize_family, fam)
        self.path.write_bytes(data)
        b.count("fileio.bytes_out", len(data))
        b.count("fileio.bytes_in", len(data))  # the CLI reads it back
        return str(self.path)

    @staticmethod
    def _check_verdict(b: Batch, worst: float, verdict: bool, name: str) -> None:
        """A verdict at tol 1e-9 against the reference's largest off-diagonal
        magnitude, unless that sits within 1% of the tolerance."""
        if abs(worst - LIB_TOL) > 0.01 * LIB_TOL:
            b.check(verdict == (worst <= LIB_TOL), name,
                    f"verdict {verdict} but the reference gives {worst:.3g}")


def _off_diagonal(d: np.ndarray) -> np.ndarray:
    return d - np.diag(np.diag(d))


def _multi_index(parts: list[int], index: int) -> tuple[int, ...]:
    return tuple(int(i) for i in np.unravel_index(index, parts))


def _flat_index(parts: list[int], ix: tuple[int, ...]) -> int:
    return int(np.ravel_multi_index(ix, parts))


def _one_slot_pair(rng, parts: list[int]) -> tuple[int, int]:
    """Two leaves (lexicographic indices) that differ in exactly one slot."""
    slot = int(rng.choice([s for s, k in enumerate(parts) if k > 1]))
    ix = [int(rng.integers(k)) for k in parts]
    other = list(ix)
    other[slot] = (ix[slot] + 1 + int(rng.integers(parts[slot] - 1))) % parts[slot]
    return _flat_index(parts, tuple(ix)), _flat_index(parts, tuple(other))


# -- product-consistency ------------------------------------------------------

class ProductConsistency(Workload):
    """Product families: weights, decoherence, consistency, additivity, CLI."""

    name = "product-consistency"
    salt = 1
    # (dim, parts per slot, dynamics, diagonal).  Sorted by cost, a cycle
    # holds 6 documents of 16-18 histories, 8 alike of 32 (the median falls
    # in the middle of them), 2 of 64, 3 alike of 128 (p90 falls among
    # them) and one of 256.  Documents around a percentile share their
    # shape, so the percentile does not sit on a step between shapes.
    # Diagonal entries are consistent families (CLI exit 0), the others
    # inconsistent (exit 2).
    schedule = [
        (2, [2, 2, 2, 2], "ham", False),
        (2, [2, 2, 2, 2], "table", True),
        (4, [4, 4], "table", False),
        (4, [4, 4], "ham", True),
        (4, [2, 2, 4], "table", False),
        (3, [3, 2, 3], "ham", False),
        (2, [2, 2, 2, 2, 2], "ham", False),
        (2, [2, 2, 2, 2, 2], "ham", False),
        (2, [2, 2, 2, 2, 2], "ham", False),
        (2, [2, 2, 2, 2, 2], "ham", True),
        (2, [2, 2, 2, 2, 2], "ham", False),
        (2, [2, 2, 2, 2, 2], "ham", False),
        (2, [2, 2, 2, 2, 2], "ham", False),
        (2, [2, 2, 2, 2, 2], "ham", True),
        (4, [4, 4, 4], "table", False),
        (2, [2, 2, 2, 2, 2, 2], "table", True),
        (2, [2, 2, 2, 2, 2, 2, 2], "ham", False),
        (2, [2, 2, 2, 2, 2, 2, 2], "ham", False),
        (2, [2, 2, 2, 2, 2, 2, 2], "ham", True),
        (2, [2, 2, 2, 2, 2, 2, 2, 2], "table", False),
    ]
    pairs_per_doc = 3

    def make(self, rng, dim, parts, kind, diagonal) -> Doc:
        x = self._product_inputs(rng, dim, parts, kind, diagonal)
        n, k = x["n"], parts[-1]
        first_leaf = 1 + sum(math.prod(parts[:i]) for i in range(1, len(parts)))
        siblings = []
        for _ in range(self.pairs_per_doc):
            a = int(rng.integers(n))
            c = a - a % k + (a % k + 1 + int(rng.integers(k - 1))) % k
            siblings.append((first_leaf + a, first_leaf + c))
        x["sibling_ids"] = siblings
        x["pairs"] = [_one_slot_pair(rng, parts) for _ in range(self.pairs_per_doc)]
        return Doc("product", history_bucket(n), x)

    def run(self, doc: Doc, b: Batch, res: dict) -> None:
        q, x = self.q, doc.inputs
        fam = self._from_product(doc, b)
        hist = b.call("structure.histories", fam.histories)
        res["weights"] = b.call("chain.weight_table", q.weight_table, fam)
        d = b.call("chain.family_decoherence_matrix", q.family_decoherence_matrix, fam)
        b.count("chain.decoherence_entries", d.size)
        res["d"] = d
        res["consistent"] = b.call("chain.is_consistent", q.is_consistent, d)
        res["weak"] = b.call("chain.is_weakly_consistent", q.is_weakly_consistent, d)
        res["intra"] = [b.call("coarse.verify_intra_additivity", q.verify_intra_additivity,
                               fam, a, c) for a, c in x["sibling_ids"]]
        res["product"] = [b.call("coarse.verify_product_additivity", q.verify_product_additivity,
                                 hist[i], hist[j], x["evolution"], fam.initial_state)
                          for i, j in x["pairs"]]
        path = self._write(b, fam)
        res["stdout"] = b.cli(self.lib.cli.main, ["consistency", path],
                              expect=0 if res["consistent"] else 2)

    def check(self, doc: Doc, b: Batch, res: dict) -> None:
        x = doc.inputs
        n = x["n"]
        dref = self._tree(x).decoherence()
        d = res["d"]
        b.check(d.shape == (n, n) and max_abs(d - dref) <= REF_TOL,
                "chain.family_decoherence_matrix", "differs from the reference")
        w = res["weights"]
        b.check(len(w) == n and abs(w.sum() - 1.0) <= LIB_TOL
                and max_abs(w - dref.diagonal().real) <= REF_TOL,
                "chain.weight_table", "weights do not sum to 1 or differ from the reference")
        off = _off_diagonal(dref)
        self._check_verdict(b, max_abs(off), res["consistent"], "chain.is_consistent")
        self._check_verdict(b, max_abs(off.real), res["weak"], "chain.is_weakly_consistent")
        for additive in res["intra"]:
            b.check(additive, "coarse.verify_intra_additivity",
                    "sibling merge is not weight-additive")
        for (i, j), (additive, gap) in zip(x["pairs"], res["product"]):
            b.check(abs(gap - 2 * dref[i, j].real) <= REF_TOL
                    and additive == (abs(gap) <= LIB_TOL),
                    "coarse.verify_product_additivity",
                    f"discrepancy {gap:.3g} is not 2 Re D_ab = {2 * dref[i, j].real:.3g}")
        self._check_consistency_output(b, res["stdout"], d, res["consistent"])

    @staticmethod
    def _check_consistency_output(b: Batch, text: str | None, d: np.ndarray,
                                  consistent: bool) -> None:
        if text is None:
            return
        n = d.shape[0]
        lines = text.splitlines()
        ok = len(lines) == n + 2 and lines[0] == f"|D| ({n} histories):"
        if ok:
            printed = np.array(" ".join(lines[1:n + 1]).split(), dtype=float)
            ok = printed.size == n * n and np.allclose(
                printed.reshape(n, n), np.abs(d), rtol=1e-5, atol=1e-12)
            verdict = "consistent" if consistent else "inconsistent"
            ok = ok and lines[-1].startswith(f"verdict: {verdict} ")
        b.check(ok, "cli.consistency", "printed |D| or verdict differs from the library")


# -- branching-roundtrip --------------------------------------------------------

class BranchingRoundtrip(Workload):
    """Branch-dependent families: build, write, read, validate, weigh, export."""

    name = "branching-roundtrip"
    salt = 2
    # (dim, parts of each extension, dynamics, maximally mixed state);
    # nodes = 1 + sum(parts).  Sorted by cost, a cycle holds the 4 hostile
    # documents, 3 of dim 8, 6 alike of dim 16 (the median falls in the
    # middle of them), 4 of dim 24 and 3 alike of dim 32 (p90 falls among
    # them).  Documents around a percentile share their shape and byte
    # count, so the percentile does not sit on a step between shapes.
    schedule = [
        (8, [3, 4, 3, 4, 3, 4, 3, 4], "trivial", True),
        (8, [4, 3, 4, 3, 4, 3, 4, 3], "ham", False),
        (8, [3, 3, 3, 3, 3, 3, 3, 3, 3], "table", False),
        (16, [3, 2, 4, 3, 2, 4], "ham", False),
        (16, [3, 2, 4, 3, 2, 4], "ham", False),
        (16, [3, 2, 4, 3, 2, 4], "ham", False),
        (16, [2, 4, 3, 2, 4, 3], "ham", False),
        (16, [2, 4, 3, 2, 4, 3], "ham", False),
        (16, [2, 4, 3, 2, 4, 3], "ham", False),
        (24, [3, 3, 4, 3], "trivial", True),
        (24, [3, 3, 4, 3], "ham", False),
        (24, [4, 3, 3, 3], "table", True),
        (24, [4, 3, 3, 3], "table", False),
        (32, [4, 3, 3, 3], "ham", False),
        (32, [3, 4, 3, 3], "ham", False),
        (32, [3, 3, 4, 3], "ham", False),
        ("nonorth",), ("trans",), ("malformed",), ("huge",),
    ]
    # Moment times are whole numbers up to this horizon, so that unitary
    # tables (breakpoints 0..HORIZON) cover every non-leaf time.
    horizon = 6

    def prepare(self) -> None:
        """Write the hostile documents, then generate the first cycle."""
        rng = np.random.default_rng([self.seed, self.salt, 1 << 31])
        trans = self._branching_inputs(rng, 8, [3, 3, 2], "trivial", True)
        fam = self._build_untimed(trans)
        parents = {}
        for leaf in fam.leaves():
            parents.setdefault(leaf.parent, leaf.id)
        a, c = list(parents.values())[:2]
        self.trans_leaves = f"{a},{c}"
        trans_bytes = self.q.serialize_family(fam)
        self.hostile = {
            "trans": trans_bytes,
            "malformed": trans_bytes[: len(trans_bytes) * 3 // 5],
            "nonorth": self._nonorthogonal_doc(rng, 8),
            "huge": (b'{"dim": 100000000, "dynamics": {"kind": "trivial"}, '
                     b'"initial_state": "maximally_mixed", "nodes": [{"id": 0, "time": 0.0}]}'),
        }
        self.hostile_paths = {}
        for kind, data in self.hostile.items():
            path = self.workdir / f"hostile-{kind}.json"
            path.write_bytes(data)
            self.hostile_paths[kind] = str(path)
        super().prepare()

    def _nonorthogonal_doc(self, rng, dim: int) -> bytes:
        """Root with three children; the middle projector is tilted off its siblings."""
        parts = decomposition(rng, dim, 3)
        tilt = random_unitary(rng, dim)
        basis = np.linalg.qr(np.eye(dim) + 0.2 * (tilt - np.eye(dim)))[0]
        rank = int(round(np.trace(parts[1]).real))
        cols = basis[:, :rank]
        parts[1] = cols @ cols.conj().T

        def matrix(m):
            return [[[float(v.real), float(v.imag)] for v in row] for row in m]

        nodes = [{"id": 0, "time": 0.0}] + [
            {"id": i + 1, "parent": 0, "time": 1.0, "projector": matrix(p)}
            for i, p in enumerate(parts)]
        return json.dumps({"dim": dim, "initial_state": "maximally_mixed",
                           "dynamics": {"kind": "trivial"}, "nodes": nodes}).encode()

    def _branching_inputs(self, rng, dim: int, splits: list[int], kind: str,
                          mixed: bool) -> dict:
        """A random branch-dependent tree: which leaf splits, into what, and when."""
        grid = [float(t) for t in range(self.horizon + 1)]
        evolution, dynamics = self._dynamics(rng, kind, dim, grid, False)
        rho = "maximally_mixed" if mixed else random_density(rng, dim)
        nodes = [(0, None, 0.0, None)]
        leaves = {0: 0.0}
        plan = []
        for k in splits:
            open_leaves = sorted(nid for nid, t in leaves.items() if t < self.horizon)
            leaf = open_leaves[int(rng.integers(len(open_leaves)))]
            t_leaf = leaves.pop(leaf)
            projs = decomposition(rng, dim, k, random_ranks=True)
            times = [float(min(self.horizon, t_leaf + rng.integers(1, 3))) for _ in range(k)]
            first = len(nodes)
            for i, (p, t) in enumerate(zip(projs, times)):
                nodes.append((first + i, leaf, t, p))
                leaves[first + i] = t
            plan.append((leaf, projs, times))
        rho_m = np.eye(dim, dtype=complex) / dim if isinstance(rho, str) else rho
        return {"dim": dim, "rho": rho, "evolution": evolution, "plan": plan,
                "tree": Tree(dim, rho_m, dynamics, nodes), "nodes": len(nodes)}

    def _build_untimed(self, x: dict):
        fam = self.q.new_family(x["dim"], 0.0, x["rho"], x["evolution"])
        for leaf, projs, times in x["plan"]:
            fam = fam.extend(leaf, projs, times)
        return fam

    def make(self, rng, dim, splits=None, kind=None, mixed=True) -> Doc:
        if isinstance(dim, str):
            return Doc(dim, "hostile")
        return Doc("valid", f"dim{dim}", self._branching_inputs(rng, dim, splits, kind, mixed))

    def run(self, doc: Doc, b: Batch, res: dict) -> None:
        q, main = self.q, self.lib.cli.main
        if doc.kind != "valid":
            self._run_hostile(doc.kind, b, res)
            return
        x = doc.inputs
        fam = b.call("structure.new_family", q.new_family, x["dim"], 0.0, x["rho"], x["evolution"])
        for leaf, projs, times in x["plan"]:
            fam = b.call("structure.extend", fam.extend, leaf, projs, times)
        b.count("structure.nodes", len(fam))
        data = b.call("fileio.serialize_family", q.serialize_family, fam)
        self.path.write_bytes(data)
        text = self.path.read_bytes()
        b.count("fileio.bytes_out", len(data))
        b.count("fileio.bytes_in", 2 * len(text))  # load_document, then the CLI
        loaded = b.call("fileio.load_document", q.load_document, text)
        res["data"], res["loaded"] = data, loaded
        res["report"] = b.call("structure.validate", loaded.validate)
        res["weights"] = w = b.call("chain.weight_table", q.weight_table, loaded)
        b.count("structure.leaves", len(w))
        res["dot"] = b.call("fileio.export_dot", q.export_dot, loaded, annotate_weights=True)
        res["stdout"] = b.cli(main, ["weights", "--csv", str(self.path)], expect=0)

    def _run_hostile(self, kind: str, b: Batch, res: dict) -> None:
        q, main = self.q, self.lib.cli.main
        path = self.hostile_paths[kind]
        text = Path(path).read_bytes()
        b.count("fileio.bytes_in", 2 * len(text))
        if kind in ("malformed", "huge"):
            b.probe("fileio.load_document", q.load_document, text, raises=(q.ParseError,))
            b.cli(main, ["weights", "--csv", path], expect=66)
            return
        fam = b.call("fileio.load_document", q.load_document, text)
        res["report"] = b.call("structure.validate", fam.validate)
        if kind == "nonorth":
            b.cli(main, ["weights", "--csv", path], expect=1)
        else:
            b.cli(main, ["coarse", path, "--leaves", self.trans_leaves], expect=3)

    def check(self, doc: Doc, b: Batch, res: dict) -> None:
        if doc.kind == "nonorth":
            kinds = {found.kind for found in res["report"].issues}
            b.check("orthogonality" in kinds, "structure.validate",
                    f"non-orthogonal siblings not reported (found: {sorted(kinds)})")
            return
        if doc.kind == "trans":
            b.check(res["report"].ok, "structure.validate", "valid document rejected")
            return
        if doc.kind != "valid":
            return
        x = doc.inputs
        b.check(self.q.serialize_family(res["loaded"]) == res["data"],
                "fileio.serialize_family", "serialize -> load -> serialize changed the bytes")
        b.check(res["report"].ok, "structure.validate", f"valid family rejected: {res['report']}")
        leaf_ids, ks = x["tree"].leaf_chains()
        wref = decoherence(ks, x["tree"].rho).diagonal().real
        w = res["weights"]
        b.check(len(w) == len(wref) and abs(w.sum() - 1.0) <= LIB_TOL
                and max_abs(w - wref) <= REF_TOL,
                "chain.weight_table", "weights do not sum to 1 or differ from the reference")
        dot = res["dot"]
        b.check(dot.count("\\nW=") == len(leaf_ids) and dot.count(" -> ") == x["nodes"] - 1,
                "fileio.export_dot", "graph lacks weight labels or edges")
        self._check_csv(b, res["stdout"], leaf_ids, w)

    @staticmethod
    def _check_csv(b: Batch, text: str | None, leaf_ids: list[int], w: np.ndarray) -> None:
        if text is None:
            return
        lines = text.splitlines()
        ok = len(lines) == len(leaf_ids) + 2 and lines[0] == "index,leaf,weight"
        if ok:
            rows = [line.split(",") for line in lines[1:-1]]
            ok = all(int(r[0]) == i and int(r[1]) == leaf and abs(float(r[2]) - wi) <= 1e-15
                     for i, (r, leaf, wi) in enumerate(zip(rows, leaf_ids, w)))
            ok = ok and abs(float(lines[-1].split(",")[-1]) - 1.0) <= LIB_TOL
        b.check(ok, "cli.weights", "CSV rows differ from the library's weight table")


# -- hpo-embed ------------------------------------------------------------------

# Label of the is_homogeneous call on the 8-slot history, a known defect
# today; the other is_homogeneous calls and their checks must not share it.
LONG = "hpo.is_homogeneous.long"


class HpoEmbed(Workload):
    """Product families embedded in the dense d^n history space."""

    name = "hpo-embed"
    salt = 3
    # (dim, parts per slot, dynamics).  A slot with one part asks the
    # trivial question, which keeps the member count down while the
    # history space stays d^slots.  Sorted by cost, a cycle holds 3
    # documents of space dim 8-9, 4 of dim 16, 6 alike of dim 27 (the
    # median falls in the middle of them), 2 of dim 32, 2 of dim 81 and 3
    # alike of dim 64 (p90 falls among them).
    schedule = [
        (2, [2, 2, 2], "trivial"),
        (3, [3, 3], "ham"),
        (2, [2, 2, 2], "ham"),
        (2, [2, 2, 2, 2], "ham"),
        (2, [2, 2, 2, 2], "trivial"),
        (2, [2, 1, 2, 2], "ham"),
        (2, [2, 2, 1, 2], "trivial"),
        (3, [3, 3, 3], "ham"),
        (3, [3, 3, 3], "ham"),
        (3, [3, 3, 3], "ham"),
        (3, [3, 3, 3], "ham"),
        (3, [3, 3, 3], "ham"),
        (3, [3, 3, 3], "ham"),
        (2, [2, 2, 1, 2, 2], "ham"),
        (2, [2, 1, 2, 2, 2], "trivial"),
        (3, [3, 1, 2, 1], "ham"),
        (3, [2, 1, 3, 1], "trivial"),
        (2, [2, 1, 1, 1, 1, 2], "ham"),
        (2, [2, 1, 1, 1, 1, 2], "ham"),
        (2, [2, 1, 1, 1, 1, 2], "ham"),
    ]
    selectors_per_kind = 2
    long_slots = 8

    def make(self, rng, dim, parts, kind) -> Doc:
        x = self._product_inputs(rng, dim, parts, kind)
        n = x["n"]
        # One-slot pairs sum to a product, so the homogeneity test recurses
        # through every slot; all members but a random one never do, so it
        # stops at the first slot that has more than one part.
        picks = [set(_one_slot_pair(rng, parts)) for _ in range(self.selectors_per_kind)]
        for _ in range(self.selectors_per_kind):
            picks.append(set(range(n)) - {int(rng.integers(n))})
        x["selectors"] = [[1 if i in chosen else 0 for i in range(n)] for chosen in picks]
        long_steps = tuple((float(t), decomposition(rng, 2, 2)[0]) for t in range(self.long_slots))
        x["long"] = self.q.HistorySequence(long_steps)
        x["space"] = dim ** len(parts)
        return Doc("hpo", f"dim{x['space']}", x)

    def run(self, doc: Doc, b: Batch, res: dict) -> None:
        q, x = self.q, doc.inputs
        fam = self._from_product(doc, b)
        family = b.call("hpo.embed_family", q.embed_family, fam)
        res["is_hpo"] = b.call("hpo.is_hpo_family", q.is_hpo_family, family)
        res["members"] = [b.call("hpo.is_homogeneous", q.is_homogeneous, m)
                          for m in family.members]
        res["sums"] = []
        for sel in x["selectors"]:
            y = b.call("hpo.sum_hpo", q.sum_hpo, family, sel)
            res["sums"].append(b.call("hpo.is_homogeneous", q.is_homogeneous, y))
        d = b.call("chain.family_decoherence_matrix", q.family_decoherence_matrix, fam)
        b.count("chain.decoherence_entries", d.size)
        res["d"] = d
        res["consistent"] = b.call("chain.is_consistent", q.is_consistent, d)
        res["weights"] = b.call("chain.weight_table", q.weight_table, fam)
        res["extended"] = [b.call("hpo.extended_weight", q.extended_weight, d, sel)
                           for sel in x["selectors"]]
        y = b.call("hpo.embed", q.embed, x["long"])
        res["long"], res["long_error"] = b.probe("hpo.is_homogeneous", q.is_homogeneous, y,
                                                 bucket=f"dim{y.dim}", label=LONG)
        dense = (len(family) + len(x["selectors"])) * x["space"] ** 2 + y.dim ** 2
        b.count("hpo.dense_bytes", 16 * dense)
        path = self._write(b, fam)
        res["stdout"] = b.cli(self.lib.cli.main, ["hpo-check", path], expect=0)

    def check(self, doc: Doc, b: Batch, res: dict) -> None:
        x = doc.inputs
        parts, n = x["parts"], x["n"]
        tree = self._tree(x)
        dref = tree.decoherence()
        b.check(max_abs(res["d"] - dref) <= REF_TOL, "chain.family_decoherence_matrix",
                "differs from the reference")
        w = res["weights"]
        b.check(abs(w.sum() - 1.0) <= LIB_TOL and max_abs(w - dref.diagonal().real) <= REF_TOL,
                "chain.weight_table", "weights do not sum to 1 or differ from the reference")
        self._check_verdict(b, max_abs(_off_diagonal(dref)), res["consistent"],
                            "chain.is_consistent")
        b.check(res["is_hpo"] is True, "hpo.is_hpo_family", "embedded family rejected")
        for hom in res["members"]:
            b.check(hom is True, "hpo.is_homogeneous", "an embedded history is not homogeneous")
        for sel, hom, ew in zip(x["selectors"], res["sums"], res["extended"]):
            picked = [i for i, f in enumerate(sel) if f]
            indices = [_multi_index(parts, i) for i in picked]
            cartesian = is_cartesian(indices)
            b.check(hom is cartesian, "hpo.is_homogeneous",
                    f"sum of {len(picked)} members: homogeneous={hom}, expected {cartesian}")
            s = np.array(sel, dtype=float)
            ok = abs(ew - float((s @ dref @ s).real)) <= REF_TOL
            if cartesian:
                summed = [sum(x["decomps"][slot][k] for k in sorted({ix[slot] for ix in indices}))
                          for slot in range(len(parts))]
                kmat = chain_of_steps(x["dynamics"], x["times"], summed)
                ok = ok and abs(ew - weight_of_chain(kmat, tree.rho)) <= REF_TOL
            b.check(ok, "hpo.extended_weight", "differs from the summed history's weight")
        if res["long_error"] is None:
            b.check(res["long"] is True, LONG, "an embedded 8-slot history is not homogeneous")
        text = res["stdout"]
        if text is not None:
            expected = [
                f"embeddable: yes ({n} histories, {len(parts)} slots, base dim {x['dim']}, "
                f"history space dim {x['space']})",
                "hpo family: valid",
                f"homogeneous members: {n}/{n}",
            ]
            b.check(text.splitlines() == expected, "cli.hpo-check", "unexpected report")


WORKLOADS = {w.name: w for w in (ProductConsistency, BranchingRoundtrip, HpoEmbed)}


def isham_checks(lib) -> list[tuple[str, str | None]]:
    """The paper's two four-history examples: weight sums 3/2 and 1."""
    out = []
    try:
        _, weights = lib.q.isham_counterexample()
        total = float(np.sum(weights))
        out.append(("hpo.isham_counterexample",
                    None if abs(total - 1.5) <= 1e-12 else f"weights sum to {total}, not 3/2"))
    except Exception as exc:
        out.append(("hpo.isham_counterexample", f"raised {type(exc).__name__}: {exc}"))
    try:
        total = float(np.sum(lib.q.weight_table(lib.demos.isham_reversed_family())))
        out.append(("demos.isham_reversed_family",
                    None if abs(total - 1.0) <= 1e-12 else f"weights sum to {total}, not 1"))
    except Exception as exc:
        out.append(("demos.isham_reversed_family", f"raised {type(exc).__name__}: {exc}"))
    return out
