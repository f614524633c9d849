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
from .fileio import export_dot, load_document, serialize_family
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


@functools.cache
def _magnitude_tables():
    """Lookup tables of :func:`_write_magnitudes`, built on first use.

    A value x > 0 of decimal exponent e is printed from its six digits
    q = rint(x * 10**(5 - e)), in [10**5, 10**6].  Layout rows are indexed
    by 2 + (e + 100) * 6 + (significant digits - 1), after row 0 (exact
    zero) and row 1 (left to ``format``); q = 10**6 gets the index of a
    seventh digit, which is the one-digit row of exponent e + 1.  The rows
    of exponents -100, 100 and 101 are left to ``format`` too: they need
    three exponent digits.
    """
    exponents = np.arange(-100, 102)
    scale = np.array([float(f"1e{5 - e}") for e in exponents])
    # q as two ASCII triples, q // 1000 and q % 1000, in the low bytes of a
    # little-endian word; q = 10**6 splits as (1000, 0).
    v = np.append(np.arange(1000), 100)
    triples = ((48 + v // 100) | (48 + v // 10 % 10) << 8 | (48 + v % 10) << 16).astype(np.uint64)
    # Row offsets 2 + (significant digits - 1) by triple: the larger of the
    # two is q's; a low triple of 000 has none of its own.
    trailing = (v % 10 == 0).astype(np.intp) + (v % 100 == 0)
    sig_lo = 7 - trailing[:1000]
    sig_lo[0] = 0
    sig_hi = 4 - trailing
    sig_hi[1000] = 8

    def mask(first, stop):
        return (1 << (8 * stop)) - (1 << (8 * first))

    # A row places digit masks a and b of the word w of six digits as two
    # words, ((w & a) << shift_a | (w & b) << shift_b | lit0) and
    # ((w & a) >> spill | lit1); zero bytes are dropped when printed.
    sep = ord(" ") << 56
    hard_row = (0, 0, 0, 0, 0, 0, sep)
    # Exponent notation: d0 "." d1..d5 "e", then the exponent's sign and digits.
    layout = np.tile(np.array([(mask(0, 1), 0, mask(1, s), 8, 56,
                                (ord(".") << 8 if s > 1 else 0) | ord("e") << 56, sep)
                               for s in range(1, 7)], dtype=np.uint64),
                     (len(exponents), 1, 1))
    size = np.abs(exponents)
    exponent_text = np.where(exponents < 0, ord("-"), ord("+")) | (
        (48 + size // 10) << 8) | ((48 + size % 10) << 16)
    layout[:, :, 6] |= exponent_text.astype(np.uint64)[:, None]
    # Fixed notation for -4 <= e < 6: the integer digits, then "." and the
    # rest; or "0." and -e - 1 zeros, then the digits.
    for e in range(-4, 6):
        for s in range(1, 7):
            if e < 0:
                prefix = b"0." + b"0" * (-e - 1)
                row = (mask(0, s), 8 * len(prefix), 0, 0, 64 - 8 * len(prefix),
                       int.from_bytes(prefix, "little"), sep)
            else:
                shown = max(s, e + 1)
                dot = ord(".") << (8 * (e + 1)) if shown > e + 1 else 0
                row = (mask(0, e + 1), 0, mask(e + 1, shown), 8, 56, dot, sep)
            layout[e + 100, s - 1] = row
    hard = np.abs(exponents) >= 100
    layout[hard] = hard_row
    first = np.array([(0, 0, 0, 0, 0, ord("0"), sep), hard_row], dtype=np.uint64)
    layout = np.concatenate([first, layout.reshape(-1, 7)])
    hard_rows = np.concatenate([[False, True], np.repeat(hard, 6)])
    return scale, triples, triples << np.uint64(24), sig_lo, sig_hi, layout, hard_rows


def _write_magnitudes(d) -> None:
    """Write |d| row by row, entries as ``format(v, ".6g")`` joined by spaces.

    Rows go out in blocks of about 4096 entries, one ``sys.stdout.write``
    each, so the whole text is never held.  The digits come from array
    operations; ``format`` itself runs only for the entries they cannot
    decide: non-finite values, exponents of three digits, and values whose
    scaled digits lie within 1e-7 of a rounding tie.
    """
    scale, triples, triples_up, sig_lo, sig_hi, layout, hard_rows = _magnitude_tables()
    n_rows, n = d.shape
    step = max(1, 4096 // n)
    for start in range(0, n_rows, step):
        x = np.abs(d[start:start + step]).ravel()
        with np.errstate(all="ignore"):  # log10(0), and casts of inf and nan
            e = np.log10(x)
            np.floor(e, out=e)
            e = e.astype(np.intp)
            e += 100
            np.clip(e, 0, len(scale) - 1, out=e)
            m = x * scale.take(e)
            q = np.rint(m)
            # m is x * 10**(5 - e) to a few ulp, so q is x's six digits at
            # exponent e where m is clear of a tie.  Whatever e log10 gave,
            # m >= 99999.95 and q <= 10**6 leave those digits the rounding
            # of x itself: q = 10**5 or 10**6 when x is that close to a
            # power of ten.
            ok = np.abs(m - q) <= 0.4999999
            ok &= m >= 99999.9500001
            ok &= q <= 1e6
            hi, lo = np.divmod(q.astype(np.intp), 1000)
        e *= 6
        e += np.maximum(sig_lo.take(lo, mode="clip"), sig_hi.take(hi, mode="clip"))
        row = np.where(ok, e, x != 0)
        r = layout.take(row, axis=0, mode="clip")
        digits = triples.take(hi, mode="clip")
        digits |= triples_up.take(lo, mode="clip")
        words = np.empty((x.size, 2), dtype="<u8")
        part_a = digits & r[:, 0]
        np.left_shift(part_a, r[:, 1], out=words[:, 0])
        digits &= r[:, 2]
        digits <<= r[:, 3]
        words[:, 0] |= digits
        words[:, 0] |= r[:, 5]
        np.right_shift(part_a, r[:, 4], out=words[:, 1])
        words[:, 1] |= r[:, 6]
        chars = words.view(np.uint8).reshape(-1, 16)
        chars.reshape(-1, n, 16)[:, -1, 15] = ord("\n")
        for i in np.flatnonzero(hard_rows.take(row, mode="clip")):
            text = format(float(x[i]), ".6g").encode("ascii")
            chars[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        sys.stdout.write(chars.tobytes().translate(None, b"\0").decode("ascii"))


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


def _cmd_demo(args) -> int:
    name = args.name
    if name == "fig2":
        _print_family_demo(
            "fig2", fig2_family(),
            ["qutrit, two branches asking different questions at different times",
             "times: root 0.0, branches 1.0 and 1.5; initial state: maximally"
             " mixed; dynamics: trivial"],
            [])
    elif name == "branch-no-prod":
        _print_family_demo(
            "branch-no-prod", branch_no_prod_family(),
            ["bases: step 1 {|0>,|1>}; step 2 after |0>: {|0>,|1>},"
             " after |1>: {|+>,|->}",
             "times: 0.0 and 1.0 (leaf time 2.0); initial state: maximally"
             " mixed; dynamics: trivial"],
            ["product-shaped: no"])
    elif name == "isham-reversed":
        family = isham_reversed_family()
        _print_family_demo(
            "isham-reversed", family,
            ["bases: step 1 {|1>,|0>}; second step after |1>: {|+>,|->},"
             " after |0>: {|0>,|1>}",
             "times: 0.0 and 1.0 (leaf time 2.0); initial state: |0><0|;"
             " dynamics: trivial"],
            [])
    elif name == "isham-hpo":
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
    else:  # unreachable behind argparse choices
        print(f"unknown demo {name!r}", file=sys.stderr)
        return EXIT_USAGE
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
