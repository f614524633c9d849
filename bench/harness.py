"""Timing, tracing and failure bookkeeping for one benchmark batch.

A batch is a closed loop: one client sends one document at a time and
waits for it.  Every call the benchmark makes into qhistories goes
through :meth:`Batch.call`, :meth:`Batch.probe` or :meth:`Batch.cli`.
Untraced, those only count operations (and time the CLI call, an
end-to-end metric); traced, each call also becomes a span named
``<module>.<function>`` whose parent is the document's span.  Spans stay
in memory until the batch ends.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np


class SpeedProbe:
    """A fixed piece of work, independent of qhistories, timed between documents.

    Shared machines drift in speed by tens of percent over seconds to
    minutes.  The probe mixes the three kinds of work the workloads do
    (small numpy operations, float formatting and JSON, LAPACK) in about a
    millisecond, so its median over a batch measures how fast the machine
    ran during that batch.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        self.wide = rng.normal(size=(4, 512)) + 1j * rng.normal(size=(4, 512))
        self.nested = rng.normal(size=(16, 16, 2)).tolist()

    def __call__(self) -> float:
        start = perf_counter()
        x = self.small
        for _ in range(40):
            x = self.small @ x
            np.trace(x)
        json.loads(json.dumps(self.nested))
        ",".join(format(v, ".17g") for row in self.nested for pair in row for v in pair)
        np.linalg.svd(self.wide, full_matrices=False)
        return perf_counter() - start


class DocAborted(Exception):
    """An operation raised; the rest of its document cannot run."""


@dataclass
class Op:
    name: str
    error: str | None = None
    label: str = ""


@dataclass
class Span:
    doc: int
    name: str
    start: float
    end: float
    bucket: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Batch:
    """Operations, timings, spans and failures of one timed batch.

    ``known_defects`` maps ``(document kind, operation label)`` to the start
    of the error recorded for it in ``rationale.json``.  An operation that
    fails that way is counted in ``known_failures`` and the
    ``known_defects`` count, not in ``failed``; any other failure, or the
    same operation failing another way, is counted in ``failed`` and makes
    the batch incorrect.
    """

    workload: str
    traced: bool
    known_defects: dict
    docs: int = 0
    cycles: int = 0
    cycle_seconds: list = field(default_factory=list)
    probe_seconds: list = field(default_factory=list)
    first_cycle: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    doc_seconds: list = field(default_factory=list)
    cli_seconds: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    known_failures: Counter = field(default_factory=Counter)
    unexpected: list = field(default_factory=list)
    _ops: list = field(default_factory=list)
    _kind: str = ""
    _bucket: str | None = None

    # -- one document ----------------------------------------------------

    @contextlib.contextmanager
    def document(self, kind: str, bucket: str | None):
        """Time one document.  Yields a dict the document fills with results.

        The dict gets ``done = True`` only when every operation ran, so
        the checks that follow know whether they have all results.
        """
        self._ops = []
        self._kind = kind
        self._bucket = bucket
        results: dict = {"done": False}
        start = perf_counter()
        try:
            yield results
            results["done"] = True
        except DocAborted:
            pass
        end = perf_counter()
        self.doc_seconds.append(end - start)
        if self.traced:
            self.spans.append(Span(self.docs, "doc", start, end, bucket))

    def end_document(self) -> None:
        """Tally the operations of the document just checked."""
        self.docs += 1
        self.attempted += len(self._ops)
        for op in self._ops:
            if op.error is None:
                continue
            self.counts[f"{op.name}.failed"] += 1
            label = op.label or op.name
            known = self.known_defects.get((self._kind, label))
            if known is not None and op.error.startswith(known):
                self.known_failures[f"{self._kind}: {label}"] += 1
                self.counts["known_defects"] += 1
                continue
            self.failed += 1
            if len(self.unexpected) < 20:
                self.unexpected.append(f"{self._kind}: {label}: {op.error}")

    def fail(self, label: str, reason: str) -> None:
        """Mark the latest operation with this label as failed (a check failed).

        An operation that has failed already is not marked again: the check
        becomes a failed operation of its own, so that no failure absorbs
        another.
        """
        for op in reversed(self._ops):
            if (op.label or op.name) == label:
                if op.error is None:
                    op.error = reason
                else:
                    self._ops.append(Op(op.name, reason, op.label))
                return
        self._ops.append(Op(label, reason))

    def check(self, ok: bool, name: str, reason: str) -> None:
        if not ok:
            self.fail(name, reason)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] += amount

    # -- calls into the library ------------------------------------------

    def _span(self, name: str, start: float, bucket: str | None) -> None:
        self.spans.append(Span(self.docs, name, start, perf_counter(),
                               bucket or self._bucket))

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn``; an exception fails the operation and aborts the document."""
        op = Op(name)
        self._ops.append(op)
        start = perf_counter() if self.traced else 0.0
        try:
            value = fn(*args, **kwargs)
        except Exception as exc:
            op.error = f"raised {type(exc).__name__}: {exc}"[:300]
            raise DocAborted from exc
        finally:
            if self.traced:
                self._span(name, start, None)
        return value

    def probe(self, name: str, fn, *args, raises: tuple = (), bucket: str | None = None,
              label: str = ""):
        """Call ``fn`` where an exception is part of the answer.

        Returns ``(value, exception)``.  The operation fails when it raises
        something other than ``raises``, or nothing when ``raises`` is
        given.  The document goes on either way.  ``label`` tells the
        operation apart from other calls of ``name`` in failure reports
        and checks; its span is still ``name``.
        """
        op = Op(name, label=label)
        self._ops.append(op)
        start = perf_counter() if self.traced else 0.0
        value, error = None, None
        try:
            value = fn(*args)
        except Exception as exc:
            error = exc
        if self.traced:
            self._span(name, start, bucket)
        if error is not None and not isinstance(error, raises):
            op.error = f"raised {type(error).__name__}: {error}"[:300]
        elif error is None and raises:
            op.error = f"did not raise {raises[0].__name__}"
        return value, error

    def cli(self, main, argv: list[str], expect: int):
        """Run ``qhistories.cli.main(argv)`` in process with output captured.

        Returns the captured stdout, or None when the call raised.  The
        operation fails when the exit code is not ``expect``.
        """
        name = f"cli.{argv[0]}"
        op = Op(name)
        self._ops.append(op)
        out, err = io.StringIO(), io.StringIO()
        code, text = None, None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except Exception as exc:
            op.error = f"raised {type(exc).__name__}: {exc}"[:300]
        else:
            text = out.getvalue()
            if code != expect:
                op.error = f"exit code {code}, expected {expect}"
        self.cli_seconds.append(perf_counter() - start)
        if self.traced:
            self._span(name, start, None)
        self.counts["cli.stdout_bytes"] += len(out.getvalue().encode())
        if code not in (0, 2):
            self.counts["cli.errors"] += 1
        return text

    # -- results -----------------------------------------------------------

    def end_to_end(self) -> dict:
        """Throughput and latency of the batch, in the units BENCHMARK.json names."""
        busy = sum(self.doc_seconds)
        return {
            "docs_per_s": self.docs / busy,
            "doc_ms.p50": 1e3 * statistics.median(self.doc_seconds),
            "doc_ms.p90": 1e3 * p90(self.doc_seconds),
            "cli_ms.p50": 1e3 * statistics.median(self.cli_seconds),
            "cli_ms.p90": 1e3 * p90(self.cli_seconds),
        }


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    Spans of one document nest by interval: a span's parent is the
    innermost span that encloses it.
    """
    out = [0.0] * len(spans)
    by_doc: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        by_doc.setdefault(span.doc, []).append(i)
    for indices in by_doc.values():
        indices.sort(key=lambda i: (spans[i].start, -spans[i].end))
        stack: list[int] = []
        for i in indices:
            span = spans[i]
            while stack and spans[stack[-1]].end < span.end:
                stack.pop()
            out[i] = span.seconds
            if stack:
                out[stack[-1]] -= span.seconds
            stack.append(i)
    return out
