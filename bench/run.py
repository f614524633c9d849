#!/usr/bin/env python3
"""Run one qhistories benchmark workload and print its metrics.

    python3 bench/run.py --workload product-consistency --seed 1 --seconds 40 --trace 0

Run it from the root of a qhistories checkout; it imports the package
from ``src/``.  One process runs one workload as a closed loop: a single
client sends one document at a time, with the BLAS pool pinned to one
thread and the address space capped so that an oversized allocation
becomes a counted ``MemoryError`` instead of an OOM kill.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the same loop untraced for half the time and traced
for the other half, and prints the per-layer metrics computed from the
traced half's spans.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload, each in its own process.

Workloads, layers, known defects and the predictions for the ROADMAP
items are described in ``bench/rationale.json``.
"""

import os
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from harness import Batch, self_times  # noqa: E402
from workloads import WORKLOADS, isham_checks  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / ".runs"

# An 8-slot qubit history asks is_homogeneous for a 4 GiB array; under
# this cap the allocation fails at once while the largest array the
# workloads need (81 x 81 complex) is far below it.
ADDRESS_SPACE_CAP = 2 << 30
# Set-up runs this many times, each in a fresh process and followed by a
# speed probe; the median set-up time, scaled by the median of those
# probes, is setup_s.
SETUP_REPEATS = 7
# Untraced batches hold at least this many documents, so that at least
# ten fall beyond p90.
MIN_DOCS = 100
LAYERS = ("fileio", "structure", "chain", "coarse", "hpo", "cli")
# Median time of harness.SpeedProbe on the machine the benchmark was
# written on.  End-to-end times are reported scaled by this over the
# probe's median in the run, i.e. at that machine's speed; the raw
# figures are in the record line.
PROBE_REFERENCE_S = 3.2e-3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: set up, run the warm-up document and report when it ended.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_library():
    """Import qhistories from ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    q = importlib.import_module("qhistories")
    if Path(q.__file__).resolve().parent != SRC / "qhistories":
        raise ImportError(f"imported qhistories from {q.__file__}, not from {SRC}")
    return types.SimpleNamespace(q=q, cli=importlib.import_module("qhistories.cli"),
                                 demos=importlib.import_module("qhistories.demos"))


def pin_to_one_cpu() -> int:
    """Run on the highest-numbered usable CPU only.

    The loop is single-threaded; pinning stops migrations between CPUs and
    keeps it off CPU 0, where the system's own work tends to land.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def cap_address_space() -> int:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(ADDRESS_SPACE_CAP, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    return cap


def git_sha() -> str:
    """Commit of the checkout; git may not look above it for a repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def blas_threads():
    """Threads in numpy's OpenBLAS pool, asked of the library itself."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def blas_version() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        return "unknown"


def run_batch(wl, seconds: float, traced: bool, known, min_docs: int) -> Batch:
    """Whole cycles of documents until ``seconds`` would be overrun.

    A batch always ends on a cycle boundary, so its mix of document sizes
    is the schedule's exactly.
    """
    b = Batch(wl.name, traced, known)
    start = time.perf_counter()
    while True:
        docs = wl.cycle(b.cycles)
        t0 = time.perf_counter()
        for doc in docs:
            wl.process(doc, b)
        last = time.perf_counter() - t0
        b.cycles += 1
        b.cycle_seconds.append(sum(b.doc_seconds[-len(docs):]))
        if b.cycles == 1:
            b.first_cycle = {"documents": b.docs, "dims": sorted({d.inputs["dim"] for d in docs
                                                                   if "dim" in d.inputs}),
                             **{k: v for k, v in b.counts.items()}}
        if b.docs >= min_docs and time.perf_counter() - start + last > seconds:
            return b


def per_layer(traced: Batch, plain: Batch, names: list[str]) -> dict:
    """Per-layer metrics from the traced batch's spans, per document."""
    docs = traced.docs
    wall = sum(traced.doc_seconds)
    busy, own, calls = Counter(), Counter(), Counter()
    bucket_time, bucket_calls = Counter(), Counter()
    for span, seconds in zip(traced.spans, self_times(traced.spans)):
        busy[span.name] += span.seconds
        own[span.name] += seconds
        calls[span.name] += 1
        if span.bucket:
            bucket_time[span.name, span.bucket] += span.seconds
            bucket_calls[span.name, span.bucket] += 1
    for name in list(busy):
        layer = name.split(".")[0]
        if layer in LAYERS:
            busy[layer] += busy[name]
            own[layer] += own[name]
            calls[layer] += calls[name]
    # Docs per second of each half, scaled by its own speed probes, since
    # the machine's speed can drift between the two halves.
    rate = (plain.docs / sum(plain.doc_seconds) * statistics.median(plain.probe_seconds),
            docs / wall * statistics.median(traced.probe_seconds))
    out = {}
    for metric in names:
        key, _, stat = metric.rpartition(".")
        if metric == "trace.overhead_ratio":
            out[metric] = rate[0] / rate[1]
        elif stat == "busy_s":
            out[metric] = busy[key] / docs
        elif stat == "self_s":
            out[metric] = own[key] / docs
        elif stat == "calls":
            out[metric] = calls[key] / docs
        elif stat == "share":
            out[metric] = busy[key] / wall
        elif stat == "ms":
            function, _, bucket = key.rpartition(".")
            n = bucket_calls[function, bucket]
            out[metric] = 1e3 * bucket_time[function, bucket] / n if n else 0.0
        else:
            out[metric] = traced.counts[metric] / docs
    return out


def report_layers(metrics: dict) -> None:
    def order(key):
        layer = key.split(".")[0]
        return -metrics.get(f"{layer}.busy_s", 0.0), layer, key != layer, -metrics[f"{key}.busy_s"]

    rows = sorted({m.rpartition(".")[0] for m in metrics if m.endswith(".busy_s")}, key=order)
    print(f"{'span':44s} {'ms/doc':>10s} {'self ms':>10s} {'calls/doc':>10s} {'share':>7s}")
    for key in rows:
        if not metrics[f"{key}.busy_s"]:
            continue
        self_ms = metrics.get(f"{key}.self_s")
        print(f"{key:44s} {1e3 * metrics[f'{key}.busy_s']:10.3f} "
              f"{'' if self_ms is None else format(1e3 * self_ms, '10.3f'):>10s} "
              f"{metrics.get(f'{key}.calls', 0):10.2f} {metrics.get(f'{key}.share', 0):7.1%}")


def write_spans(path: Path, b: Batch) -> None:
    with path.open("w") as f:
        for span in b.spans:
            parent = None if span.name == "doc" else "doc"
            f.write(json.dumps({"doc": span.doc, "name": span.name, "start": span.start,
                                "end": span.end, "parent": parent,
                                "bucket": span.bucket}) + "\n")


def set_up(args, known, workdir: Path):
    """Import qhistories, make the inputs, write the documents, run the warm-up
    document.  Returns the library, the workload and the warm-up's speed probe."""
    lib = load_library()
    wl = WORKLOADS[args.workload](lib, args.seed, workdir)
    wl.prepare()
    warmup = Batch(wl.name, False, known)
    wl.process(wl.warmup_doc(), warmup)
    return lib, wl, warmup.probe_seconds[-1]


def time_setups(args) -> tuple[list[float], list[float]]:
    """Set-up times from process start, each in a fresh process.

    A child runs this script with ``--setup-only``: it starts Python,
    imports numpy and qhistories, sets up and prints the time its warm-up
    document ended on the system-wide monotonic clock.  Returns the set-up
    times and the speed probes that followed them.
    """
    times, probes = [], []
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr[-2000:]}")
        child = json.loads(proc.stdout.splitlines()[-1])
        times.append(child["end"] - start)
        probes.append(child["probe_s"])
    return times, probes


def run_workload(args, spec: dict, rationale: dict, workdir: Path) -> int:
    known = {(d["document"], d["operation"]): d["fails_with"]
             for d in rationale["known_defects"] if d["workload"] == args.workload}
    if args.setup_only:
        _, _, probe = set_up(args, known, workdir)
        print(json.dumps({"end": time.monotonic() - probe, "probe_s": probe}))
        return 0
    setups, setup_probes = ([], []) if args.trace else time_setups(args)
    lib, wl, _ = set_up(args, known, workdir)

    if args.trace:
        plain = run_batch(wl, args.seconds / 2, False, known, 0)
        traced = run_batch(wl, args.seconds / 2, True, known, 0)
        batches = [plain, traced]
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer(traced, plain, names)
        RUNS.mkdir(exist_ok=True)
        write_spans(RUNS / f"{args.workload}-spans.jsonl", traced)
    else:
        plain = run_batch(wl, args.seconds, False, known, MIN_DOCS)
        batches = [plain]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    isham = isham_checks(lib)
    attempted = sum(b.attempted for b in batches) + len(isham)
    failed = sum(b.failed for b in batches) + sum(err is not None for _, err in isham)
    unexpected = [u for b in batches for u in b.unexpected]
    unexpected += [f"{name}: {err}" for name, err in isham if err is not None]
    probe_s = statistics.median(plain.probe_seconds)
    raw = {}
    if not args.trace:
        raw = plain.end_to_end()
        slow = probe_s / PROBE_REFERENCE_S
        metrics = {name: value * slow if name == "docs_per_s" else value / slow
                   for name, value in raw.items()}
        raw["setup_s"] = statistics.median(setups)
        metrics["setup_s"] = raw["setup_s"] * PROBE_REFERENCE_S / statistics.median(setup_probes)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "openblas": blas_version(), "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
        "address_space_cap_bytes": resource.getrlimit(resource.RLIMIT_AS)[0],
        "setup_runs_s": setups,
        "setup_probe_ms": [1e3 * p for p in setup_probes],
        "cycles": [b.cycles for b in batches],
        "cycle_busy_s": [b.cycle_seconds for b in batches],
        "documents": [b.docs for b in batches], "per_cycle": plain.first_cycle,
        "probe_ms": 1e3 * probe_s, "probe_reference_ms": 1e3 * PROBE_REFERENCE_S,
        "raw": raw,
    }
    print("record " + json.dumps(record))
    for b in batches:
        for what, n in sorted(b.known_failures.items()):
            print(f"known defect ({'traced' if b.traced else 'untraced'}): {what}: {n} failed")
    for line in unexpected:
        print(f"UNEXPECTED FAILURE: {line}")
    if args.trace:
        report_layers(metrics)
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    for name in units:
        unscaled = f"  (unscaled {raw[name]:.6g})" if name in raw else ""
        print(f"{name:44s} {metrics[name]:14.6g} {units[name]}{unscaled}")
    print(json.dumps({
        "correct": not unexpected, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; a combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        print(f"== {name} (exit {proc.returncode})")
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "qhistories" / "__init__.py").is_file():
        print(f"error: {SRC / 'qhistories'} not found; run from a qhistories checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rationale = json.loads((BENCH / "rationale.json").read_text())
    cap_address_space()
    pin_to_one_cpu()
    workdir = RUNS / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run_workload(args, spec, rationale, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
