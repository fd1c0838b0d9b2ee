"""Command-line interface.

Subcommands: convolve, expected, verify, bound, table, sample, certify,
search, descend.  Exit status is 0 on success, 1 when a requested check or
search fails on the merits (a not-ramanujan verdict, a failed identity, an
exhausted trial budget), 2 on usage or parameter errors, and 3 when a
resource budget refuses the work.  The budgets are module constants, not
options: the enumeration budgets ``config.MAX_DET_EVALS`` and
``config.MAX_SWAPS``, and size limits such as ``graphs.MAX_CERTIFY_SIDE``,
``quadrature.MAX_PROBE_SIDE`` and ``MAX_TABLE_CELLS`` below.  A command
whose size alone exceeds one is refused before any matrix is drawn.

Polynomials on the command line are comma-separated rational coefficients in
descending order ("1,0,-1" is x^2 - 1).  Ranges are "lo..hi" with an optional
":step".  Seeds are unsigned 64-bit integers; every randomized command is
deterministic given its seed.  Files written via --out get a sibling
.manifest.json recording argv, seed, the two enumeration budgets, version,
and output digests.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

from .config import PACKAGE_VERSION
from .convolution import asym_convolve, sym_convolve
from .errors import BudgetError, ContractError, ParameterError
from .graphs import certify as certify_graph
from .graphs import sample_bipartite, sample_nonbipartite
from .matrix import RatMatrix
from .perms import RandomSwap, SwapProgram
from .poly import RatPoly
from .quadrature import (
    check_probe_side,
    check_quadrature_budget,
    expected_charpoly_swaps,
    fourier_degree_test,
    random_doubly_regular,
    random_regular_symmetric,
    verify_bip_quadrature,
    verify_sym_quadrature,
)
from .rng import SplitMix64, derive_seed
from .search import (
    expected_poly_for_graph_model,
    interlacing_descent,
    rejection_search,
)
from .serial import (
    FORMAT_VERSION,
    certificate_to_obj,
    decimal_str,
    dumps,
    graph_from_document,
    graph_to_obj,
    manifest_obj,
    manifest_path,
    parse_fraction,
    poly_to_obj,
    read_json,
    search_report_to_obj,
    table_to_obj,
    table_to_tsv,
    write_text,
)
from .sturm import is_real_rooted
from .transforms import mfold_root_bound_table, ramanujan_bound

MODE_CHOICES = ("bipartite", "plain")

# The most (m, d, kind) cells one table may ask for; the grid m 3..30,
# d 4..128:2 in both kinds has 3528.
MAX_TABLE_CELLS = 100_000


def _internal_mode(cli_mode: str) -> str:
    return "bipartite" if cli_mode == "bipartite" else "nonbipartite"


def _checked_seed(seed: int) -> int:
    if not 0 <= seed < 2**64:
        raise ParameterError("seed must be an unsigned 64-bit integer")
    return seed


def _parse_poly_arg(text: str) -> RatPoly:
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(not p for p in parts):
        raise ParameterError(f"cannot parse polynomial {text!r}")
    descending = [parse_fraction(p) for p in parts]
    return RatPoly(tuple(reversed(descending)))


def _parse_range(text: str) -> range:
    """"lo..hi" or "lo..hi:step" or a single integer."""
    step = 1
    body = text
    if ":" in text:
        body, step_text = text.split(":", 1)
        try:
            step = int(step_text)
        except ValueError:
            raise ParameterError(f"bad range step in {text!r}") from None
        if step < 1:
            raise ParameterError("range step must be positive")
    try:
        if ".." in body:
            lo_text, hi_text = body.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(body)
    except ValueError:
        raise ParameterError(f"cannot parse range {text!r}") from None
    if hi < lo:
        raise ParameterError(f"empty range {text!r}")
    return range(lo, hi + 1, step)


def _emit(args, text: str, primary_name: str) -> None:
    """Print, or write to --out plus a manifest next to it."""
    if getattr(args, "out", None) is None:
        sys.stdout.write(text)
        return
    digest = write_text(args.out, text)
    manifest = manifest_obj(
        argv=args.argv,
        seed=getattr(args, "seed", None),
        outputs={Path(args.out).name: digest},
        wall_time=time.perf_counter() - args.t0,
    )
    write_text(manifest_path(args.out), dumps(manifest))
    print(f"wrote {args.out} ({primary_name})")


# -- subcommands -------------------------------------------------------------------


def _cmd_convolve(args) -> int:
    p = _parse_poly_arg(args.p)
    q = _parse_poly_arg(args.q)
    level = args.level if args.level is not None else max(p.degree, q.degree)
    conv = (sym_convolve if args.kind == "sym" else asym_convolve)(p, q, level)
    print(conv)
    if args.out is not None:
        obj = {"version": FORMAT_VERSION, "kind": "polynomial", **poly_to_obj(conv)}
        _emit(args, dumps(obj), "polynomial")
    return 0


def _cmd_expected(args) -> int:
    poly = expected_poly_for_graph_model(_internal_mode(args.mode), args.d, args.m)
    print(poly)
    if args.out is not None:
        obj = {"version": FORMAT_VERSION, "kind": "polynomial", **poly_to_obj(poly)}
        _emit(args, dumps(obj), "polynomial")
    return 0


def _cmd_bound(args) -> int:
    b = ramanujan_bound(args.m)
    print(b)
    print(decimal_str(b))
    return 0


def _cmd_table(args) -> int:
    ms = _parse_range(args.m)
    ds = _parse_range(args.d)
    modes = ("sym", "asym") if args.mode == "both" else (args.mode,)
    # len() of a range past sys.maxsize overflows, so count by hand
    cells = len(modes)
    for r in (ms, ds):
        cells *= (r.stop - r.start - 1) // r.step + 1
    if cells > MAX_TABLE_CELLS:
        raise BudgetError(f"table has {cells} cells, budget allows {MAX_TABLE_CELLS}")
    rows = []
    for mode in modes:
        rows.extend(mfold_root_bound_table(ms, ds, mode))
    text = table_to_tsv(rows) if args.format == "tsv" else dumps(table_to_obj(rows))
    _emit(args, text, "bound table")
    return 0 if all(r.below_bound for r in rows) else 1


def _random_int_matrix(d: int, rng: SplitMix64, span: int = 3) -> RatMatrix:
    return RatMatrix.from_rows(
        [[rng.below(2 * span + 1) - span for _ in range(d)] for _ in range(d)]
    )


def _random_program(d: int, swaps: int, rng: SplitMix64) -> SwapProgram:
    out = []
    for _ in range(swaps):
        s = rng.below(d - 1)
        t = s + 1 + rng.below(d - 1 - s)
        denom = 2 + rng.below(5)
        prob = Fraction(1 + rng.below(denom - 1), denom)
        out.append(RandomSwap(s, t, prob))
    return SwapProgram(d, tuple(out))


def _cmd_verify(args) -> int:
    seed = _checked_seed(args.seed)
    if args.trials < 1:
        raise ParameterError("need at least one trial")
    if args.what == "swapreal" and args.d < 2:
        raise ParameterError("swap programs need dimension at least 2")
    if args.swaps < 0:
        raise ParameterError("swap count must be nonnegative")
    if args.what == "quadrature":
        check_quadrature_budget(args.d, args.bipartite)
    else:
        check_probe_side(args.d)
    failures = 0
    for t in range(args.trials):
        rng = SplitMix64(derive_seed(seed, t))
        if args.what == "quadrature":
            if args.bipartite:
                a = random_doubly_regular(args.d, rng)
                b = random_doubly_regular(args.d, rng)
                report = verify_bip_quadrature(a, b)
            else:
                a = random_regular_symmetric(args.d, rng)
                b = random_regular_symmetric(args.d, rng)
                report = verify_sym_quadrature(a, b)
            ok = report.passed
            detail = f"terms={report.terms} lhs={report.lhs}"
        elif args.what == "fourier":
            a = _random_int_matrix(args.d, rng)
            b = _random_int_matrix(args.d, rng)
            report = fourier_degree_test(a, b)
            ok = report.passed
            detail = "q(-4..4)=" + ",".join(map(str, report.samples))
        else:  # swapreal
            mats = [
                random_regular_symmetric(args.d, rng),
                random_regular_symmetric(args.d, rng),
            ]
            programs = [
                _random_program(args.d, args.swaps, rng),
                _random_program(args.d, args.swaps, rng),
            ]
            poly = expected_charpoly_swaps(mats, programs).poly
            ok = is_real_rooted(poly)
            detail = f"poly={poly}"
        failures += not ok
        print(f"trial {t}: {'PASS' if ok else 'FAIL'} ({detail})")
    print(f"{args.trials - failures}/{args.trials} passed")
    return 1 if failures else 0


def _cmd_sample(args) -> int:
    seed = _checked_seed(args.seed)
    rng = SplitMix64(seed)
    mode = _internal_mode(args.mode)
    sampler = sample_bipartite if mode == "bipartite" else sample_nonbipartite
    g = sampler(args.d, args.m, rng)
    text = dumps(graph_to_obj(g, seed=seed))
    _emit(args, text, "graph")
    return 0


def _cmd_certify(args) -> int:
    g = graph_from_document(read_json(args.path))
    cert = certify_graph(g)
    print(f"mode={cert.mode} d={cert.d} m={cert.m}")
    print(f"bound: {cert.bound} ({decimal_str(cert.bound)})")
    print(
        f"deflated degree {cert.deflated.degree}: "
        f"{cert.interior_count} interior, {cert.boundary_count} boundary"
    )
    print(f"verdict: {cert.verdict}")
    if args.out is not None:
        _emit(args, dumps(certificate_to_obj(cert)), "certificate")
    return 0 if cert.is_ramanujan else 1


def _cmd_search(args) -> int:
    seed = _checked_seed(args.seed)
    report = rejection_search(
        _internal_mode(args.mode),
        args.d,
        args.m,
        args.max_trials,
        seed,
        allow_boundary=args.allow_boundary,
    )
    if report.successes:
        cert = report.certificate
        print(
            f"success at trial {report.first_success_trial} "
            f"({report.trials_run} run, {report.wall_time:.2f}s)"
        )
        print(f"verdict: {cert.verdict}, bound {cert.bound} ({decimal_str(cert.bound)})")
    else:
        print(
            f"no success in {report.trials_run} trials ({report.wall_time:.2f}s); "
            "existence is only guaranteed with nonzero probability, try more trials"
        )
    if args.out is not None:
        _emit(args, dumps(search_report_to_obj(report, seed)), "search report")
    return 0 if report.successes else 1


def _cmd_descend(args) -> int:
    seed = _checked_seed(args.seed)
    report = interlacing_descent(
        _internal_mode(args.mode),
        args.d,
        args.m,
        strategy=args.strategy,
        seed=seed,
        samples_per_program=args.samples,
    )
    print(f"initial expected deflated: {report.initial_deflated}")
    for s in report.steps:
        action = "fire" if s.fired else "stay"
        print(f"program {s.program_index} swap {s.swap_index}: {action} -> {s.deflated}")
    cert = report.certificate
    print(f"verdict: {cert.verdict}, bound {cert.bound} ({decimal_str(cert.bound)})")
    if args.out is not None:
        _emit(args, dumps(search_report_to_obj(report, seed)), "search report")
    return 0 if report.successes else 1


# -- parser ------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffc",
        description="Exact finite free convolutions, root bounds, and "
        "certified Ramanujan matching unions.",
    )
    parser.add_argument(
        "--version", action="version", version=f"ffc {PACKAGE_VERSION}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("convolve", help="additive convolution of two polynomials")
    c.add_argument("--kind", choices=("sym", "asym"), default="sym")
    c.add_argument("--p", required=True, help="descending coefficients, e.g. 1,0,-1")
    c.add_argument("--q", required=True)
    c.add_argument("--level", type=int, default=None, help="convolution level d")
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_convolve)

    c = sub.add_parser(
        "expected", help="expected characteristic polynomial of the graph model"
    )
    c.add_argument("--mode", choices=MODE_CHOICES, required=True)
    c.add_argument("--d", type=int, required=True, help="per-side size (bipartite) or vertex count")
    c.add_argument("--m", type=int, required=True, help="number of matchings")
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_expected)

    c = sub.add_parser("bound", help="print 2*sqrt(m-1) exactly and as a decimal")
    c.add_argument("--m", type=int, required=True)
    c.set_defaults(func=_cmd_bound)

    c = sub.add_parser("table", help="exact root-bound verdicts on an (m, d) grid")
    c.add_argument("--m", required=True, help="range, e.g. 3..8")
    c.add_argument("--d", required=True, help="range, e.g. 4..24:2")
    c.add_argument("--mode", choices=("sym", "asym", "both"), default="both")
    c.add_argument("--format", choices=("tsv", "json"), default="tsv")
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_table)

    c = sub.add_parser("verify", help="randomized exact identity checks")
    c.add_argument("what", choices=("quadrature", "fourier", "swapreal"))
    c.add_argument("--d", type=int, default=3)
    c.add_argument("--bipartite", action="store_true")
    c.add_argument("--trials", type=int, default=5)
    c.add_argument("--swaps", type=int, default=8, help="swapreal program length")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=_cmd_verify)

    c = sub.add_parser("sample", help="sample a union of m random matchings")
    c.add_argument("--mode", choices=MODE_CHOICES, required=True)
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_sample)

    c = sub.add_parser("certify", help="exactly certify a stored graph")
    c.add_argument("path", help="graph file or search report with embedded graph")
    c.add_argument("--out", default=None, help="write the certificate document here")
    c.set_defaults(func=_cmd_certify)

    c = sub.add_parser("search", help="rejection-sample until a certified success")
    c.add_argument("--mode", choices=MODE_CHOICES, required=True)
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--max-trials", type=int, default=10_000)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument(
        "--allow-boundary",
        action="store_true",
        help="accept eigenvalues exactly at the bound",
    )
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_search)

    c = sub.add_parser(
        "descend", help="greedy interlacing descent over swap programs (tiny sizes)"
    )
    c.add_argument("--mode", choices=MODE_CHOICES, required=True)
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--strategy", choices=("exact", "sampled"), default="exact")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--samples", type=int, default=8, help="sampled-mode draws per program")
    c.add_argument("--out", default=None)
    c.set_defaults(func=_cmd_descend)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.argv = list(argv)
    args.t0 = time.perf_counter()
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
