"""Command line interface.

Exit codes: 0 success, 1 invalid family, 2 inconsistent family,
3 trans-branch summation, 64 usage errors, 66 unreadable or unparseable
input files, 70 internal errors (any other exception, reported on one
stderr line as ``internal error: <type>: <message>``, or ``internal
error: <type>`` when the exception has no message).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .chain import family_decoherence_matrix, is_consistent, is_weakly_consistent, weight_table
from .coarse import _sibling_weights, intra_branch_sum
from .demos import branch_no_prod_family, fig2_family, isham_reversed_family
from .errors import EmbeddingError, InvalidFamilyError, ParseError, TransBranchError
from .fileio import _print_numbers, export_dot, load_document, serialize_family
from .hpo import _tree_verdict, embed_family, is_homogeneous, is_hpo_family, isham_counterexample
from .linalg import DEFAULT_TOL

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INCONSISTENT = 2
EXIT_TRANS_BRANCH = 3
EXIT_USAGE = 64
EXIT_FILE = 66
EXIT_SOFTWARE = 70

DEMO_NAMES = ("fig2", "branch-no-prod", "isham-hpo", "isham-reversed")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _tolerance(text: str) -> float:
    """argparse type of ``--tol``: a finite number, zero or more."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0.0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return tol


def _load(path: str, tol: float):
    """Read and schema-check a family document, or exit with a file error."""
    try:
        text = Path(path).read_bytes()
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_FILE)
    try:
        return load_document(text, tol)
    except ParseError as exc:
        print(f"cannot parse {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_FILE)


def _load_valid(path: str, tol: float):
    """:func:`_load`, then the validity check; ``main`` maps its refusal to exit 1."""
    family = _load(path, tol)
    family.ensure_valid(tol)
    return family


def _fmt(value: float) -> str:
    return repr(float(value))


def _fmt_weights(weights) -> str:
    return " ".join(_fmt(w) for w in weights)


def _cmd_validate(args) -> int:
    family = _load(args.file, args.tol)
    report = family.validate(args.tol)
    print(report)
    return EXIT_OK if report.ok else EXIT_INVALID


def _cmd_weights(args) -> int:
    family = _load_valid(args.file, args.tol)
    table = weight_table(family, args.tol)
    leaves = [family._nodes.ids[r] for r in family._tree.leaves.tolist()]
    total = sum(float(w) for w in table)
    if args.csv:
        print("index,leaf,weight")
        for i, (leaf, w) in enumerate(zip(leaves, table)):
            print(f"{i},{leaf},{_fmt(w)}")
        print(f"sum,,{_fmt(total)}")
    else:
        print("index  leaf  weight")
        for i, (leaf, w) in enumerate(zip(leaves, table)):
            print(f"{i:<6d} {leaf:<5d} {_fmt(w)}")
        print(f"sum = {_fmt(total)}")
    return EXIT_OK


@functools.lru_cache(maxsize=2)  # full blocks and the last
def _separators(n: int, count: int) -> np.ndarray:
    """The words after ``count`` entries of rows of n: " ", or "\\n" after a
    row's last, in byte 7, where the six-digit printer leaves room."""
    out = np.where(np.arange(count) % n == n - 1, ord("\n") << 56, ord(" ") << 56).astype(np.uint64)
    out.flags.writeable = False
    return out


def _write_magnitudes(d) -> None:
    """Write |d| row by row, entries as ``format(v, ".6g")`` joined by spaces.

    Rows go out in blocks of about 4096 entries, one ``sys.stdout.write``
    each, so the whole text is never held.  The entries are printed by the
    document printer at six digits.
    """
    n = d.shape[1]
    step = max(1, 4096 // n)
    for start in range(0, d.shape[0], step):
        x = np.abs(d[start:start + step]).ravel()
        sys.stdout.write(_print_numbers(x, 6, _separators(n, x.size)).decode("ascii"))


def _cmd_consistency(args) -> int:
    family = _load_valid(args.file, args.tol)
    d = family_decoherence_matrix(family, args.tol)
    print(f"|D| ({d.shape[0]} histories):")
    _write_magnitudes(d)
    if args.weak:
        ok = is_weakly_consistent(d, args.tol)
        label = "weak"
    else:
        ok = is_consistent(d, args.tol)
        label = "medium"
    verdict = "consistent" if ok else "inconsistent"
    print(f"verdict: {verdict} ({label}, tol={args.tol:g})")
    return EXIT_OK if ok else EXIT_INCONSISTENT


def _cmd_coarse(args) -> int:
    family = _load_valid(args.file, args.tol)
    try:
        leaf_a, leaf_b = (int(part) for part in args.leaves.split(","))
    except ValueError:
        print(f"--leaves expects two comma-separated node ids, got {args.leaves!r}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        merged = intra_branch_sum(family, leaf_a, leaf_b, args.tol)
        w_sum, w_a, w_b = _sibling_weights(family, leaf_a, leaf_b, args.tol)
    except TransBranchError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_TRANS_BRANCH
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    parent = family._nodes.ids[family._nodes.parent[family._row(leaf_a)]]
    print(f"sum of leaves {leaf_a} and {leaf_b} (parent {parent}):")
    for t, p in merged.steps:
        rank = int(round(float(np.trace(p).real)))
        print(f"  step t={t:g}: rank {rank}")
    print(f"W(leaf {leaf_a}) = {_fmt(w_a)}")
    print(f"W(leaf {leaf_b}) = {_fmt(w_b)}")
    print(f"W(sum) = {_fmt(w_sum)}")
    additive = abs(w_sum - (w_a + w_b)) <= args.tol
    print(f"additive within {args.tol:g}: {'yes' if additive else 'no'}")
    return EXIT_OK


def _cmd_hpo_check(args) -> int:
    family = _load_valid(args.file, args.tol)
    try:
        embedded = embed_family(family, args.tol)
    except (EmbeddingError, ValueError) as exc:
        print(f"embeddable: no ({exc})")
        return EXIT_OK
    print(f"embeddable: yes ({len(embedded)} histories, {embedded.slots} slots, "
          f"base dim {embedded.base_dim}, history space dim {embedded.dim})")
    verdict, bound = _tree_verdict(embedded, args.tol)
    if verdict is None:
        text = (f"not decided (bound {bound:.3g} > tol {args.tol:g}, "
                f"dense total over the byte budget)")
    else:
        text = "valid" if verdict else "INVALID"
    print(f"hpo family: {text}")
    homogeneous = sum(1 for m in embedded.members if is_homogeneous(m))
    print(f"homogeneous members: {homogeneous}/{len(embedded)}")
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    family = _load_valid(args.file, args.tol)
    sys.stdout.write(export_dot(family, annotate_weights=args.weights, tol=args.tol))
    return EXIT_OK


def _print_family_demo(name: str, family, header_lines: list[str],
                       extra_lines: list[str]) -> None:
    print(f"demo: {name}")
    for line in header_lines:
        print(line)
    print("document:")
    print(serialize_family(family).decode("utf-8"))
    table = weight_table(family)
    print(f"weights: {_fmt_weights(table)}")
    total = sum(float(w) for w in table)
    print(f"sum = {_fmt(total)}; branching family")
    for line in extra_lines:
        print(line)


# The branching-family demos: factory, header lines and extra lines.
_FAMILY_DEMOS = {
    "fig2": (
        fig2_family,
        ["qutrit, two branches asking different questions at different times",
         "times: root 0.0, branches 1.0 and 1.5; initial state: maximally"
         " mixed; dynamics: trivial"],
        []),
    "branch-no-prod": (
        branch_no_prod_family,
        ["bases: step 1 {|0>,|1>}; step 2 after |0>: {|0>,|1>},"
         " after |1>: {|+>,|->}",
         "times: 0.0 and 1.0 (leaf time 2.0); initial state: maximally"
         " mixed; dynamics: trivial"],
        ["product-shaped: no"]),
    "isham-reversed": (
        isham_reversed_family,
        ["bases: step 1 {|1>,|0>}; second step after |1>: {|+>,|->},"
         " after |0>: {|0>,|1>}",
         "times: 0.0 and 1.0 (leaf time 2.0); initial state: |0><0|;"
         " dynamics: trivial"],
        []),
}


def _cmd_demo(args) -> int:
    if args.name in _FAMILY_DEMOS:
        make, header_lines, extra_lines = _FAMILY_DEMOS[args.name]
        _print_family_demo(args.name, make(), header_lines, extra_lines)
        return EXIT_OK
    print("demo: isham-hpo")
    print("basis: phi=|0>, psi=|1>, chi=(|0>+|1>)/sqrt(2),"
          " chi'=(|0>-|1>)/sqrt(2)")
    print("times: 0.0 and 1.0; initial state: |phi><phi|; dynamics: trivial")
    print("histories: chi.psi chi'.psi phi.phi psi.phi")
    family, weights = isham_counterexample()
    print(f"hpo family: {'valid' if is_hpo_family(family) else 'INVALID'}")
    print(f"weights: {_fmt_weights(weights)}")
    total = sum(float(w) for w in weights)
    print(f"sum = {_fmt(total)}; NOT a branching family")
    return EXIT_OK


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="qhistories",
                     description="Analyze branching families of quantum histories.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, handler, help_text: str, needs_file: bool = True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if needs_file:
            p.add_argument("file", help="family document (JSON)")
            p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                           help="tolerance in max-entry norm (default 1e-9)")
        return p

    add("validate", _cmd_validate, "check a family document")
    weights = add("weights", _cmd_weights, "weight table of every history")
    weights.add_argument("--csv", action="store_true", help="emit CSV")
    consistency = add("consistency", _cmd_consistency,
                      "decoherence matrix and consistency verdict")
    consistency.add_argument("--weak", action="store_true",
                             help="check only real parts of off-diagonals")
    coarse = add("coarse", _cmd_coarse, "merge two sibling leaves")
    coarse.add_argument("--leaves", required=True, metavar="A,B",
                        help="the two leaf node ids to merge")
    add("hpo-check", _cmd_hpo_check,
        "embed the family in the history space and test homogeneity")
    dot = add("export-dot", _cmd_export_dot, "Graphviz digraph of the family tree")
    dot.add_argument("--weights", action="store_true",
                     help="annotate leaves with history weights")
    demo = add("demo", _cmd_demo, "print a built-in family and its analysis",
               needs_file=False)
    demo.add_argument("name", choices=DEMO_NAMES)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except InvalidFamilyError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    except TransBranchError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_TRANS_BRANCH
    except Exception as exc:  # anything else is a bug or an exhausted resource
        detail = " ".join(str(exc).splitlines())
        name = type(exc).__name__
        print(f"internal error: {name}: {detail}" if detail else f"internal error: {name}",
              file=sys.stderr)
        return EXIT_SOFTWARE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
