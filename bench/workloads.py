"""The four benchmark workloads: seeded inputs, one operation each, output checks.

Every operation calls the public ``ffc`` entry point that the matching CLI
subcommand calls, then builds that operation's primary document with
``ffc.serial``.  The benchmark seed only derives the inputs; ``ffc`` sees the
generated inputs, never the benchmark seed.  The operation sequence of a seed
is fixed, so operation ``i`` is the same work on every run of that seed.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
raises ImportError when the ffc sources are not there.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "ffc" / "__init__.py").is_file():
    raise ImportError(f"no ffc sources under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import ffc  # noqa: E402
from ffc import serial  # noqa: E402
from ffc.graphs import STRICT  # noqa: E402

DEFAULT_SEED = 0
MAX_TRIALS = 1000  # far above any trial count seen at these sizes

# README grid for the bound table
TABLE_MS = range(3, 9)
TABLE_DS = range(4, 25, 2)
BRACKET_WIDTH = Fraction(1, 1024)
CHECK_WS = (Fraction(1, 4), Fraction(1), Fraction(4))
MARGIN_TOL = 1e-9
CELLS_PER_CHECK = 2


@dataclass(frozen=True)
class Op:
    """One timed operation.

    ``run`` calls the library and returns ``(result, primary document
    text)``; it is the only timed part.  ``check`` returns None when the
    result is correct and a reason otherwise.
    """

    label: str
    run: Callable[[], tuple[object, str]]
    check: Callable[[object], str | None]


def digest(document: str) -> str:
    return hashlib.sha256(document.encode()).hexdigest()


# -- search-bipartite and search-plain ----------------------------------------------


def _search(mode: str, d: int, m: int, seed: int):
    report = ffc.rejection_search(mode, d, m, MAX_TRIALS, seed)
    return report, serial.dumps(serial.search_report_to_obj(report, seed))


def _check_search(report) -> str | None:
    cert = report.certificate
    if not report.successes or cert is None:
        return f"no success in {report.trials_run} trials"
    if cert.verdict != STRICT:
        return f"verdict {cert.verdict}"
    if cert.interior_count != cert.deflated.degree:
        return f"{cert.interior_count} interior roots of {cert.deflated.degree}"
    return None


def search_ops(mode: str, d: int, m: int) -> Callable[[int], Iterator[Op]]:
    """One rejection search per operation, each from its own derived seed."""

    def ops(seed: int) -> Iterator[Op]:
        for i in itertools.count():
            op_seed = ffc.derive_seed(seed, i)
            yield Op(
                f"search:{mode}:{op_seed}",
                lambda s=op_seed: _search(mode, d, m, s),
                _check_search,
            )

    return ops


# -- bounds ---------------------------------------------------------------------------


def _table_cell(m: int, d: int, mode: str):
    rows = ffc.mfold_root_bound_table([m], [d], mode, BRACKET_WIDTH)
    return rows, serial.dumps(serial.table_to_obj(rows))


def _check_table(rows) -> str | None:
    if len(rows) != 1:
        return f"{len(rows)} rows for one cell"
    row = rows[0]
    if not row.below_bound:
        return f"m={row.m} d={row.d} {row.mode}: largest root not below the bound"
    if not 0 < row.bracket_hi - row.bracket_lo <= BRACKET_WIDTH:
        return f"m={row.m} d={row.d} {row.mode}: bracket wider than {BRACKET_WIDTH}"
    return None


def bound_check_document(report, d: int, p, q) -> str:
    """Primary document of one subadditivity check.  ffc has no serializer
    for BoundReport; this one records the exact inputs and the verdict.  The
    two sides are floats that ffc promises only to a tolerance, so they are
    checked by their margin and left out of the document and its digest."""
    obj = {
        "version": serial.FORMAT_VERSION,
        "kind": "bound-check",
        "check": report.kind,
        "d": d,
        "w": str(report.w),
        "p": serial.poly_to_obj(p),
        "q": serial.poly_to_obj(q),
        "passed": report.passed,
    }
    return serial.dumps(obj)


def _bound_check(kind: str, p, q, d: int, w: Fraction):
    check = ffc.check_sym_bound if kind == "sym" else ffc.check_asym_bound
    report = check(p, q, d, w, MARGIN_TOL)
    return report, bound_check_document(report, d, p, q)


def _check_bound_report(report) -> str | None:
    if report.margin < -MARGIN_TOL:
        return f"{report.kind} margin {report.margin!r} at w={report.w}"
    return None


def _check_inputs(seed: int, j: int):
    """Real-rooted inputs with quarter-integer roots, nonnegative for the
    asym kind.  Every 66 checks cover each kind, degree 6..16 and w once, so
    the mix of sizes is the same at every seed; the seed draws the roots."""
    kind = "sym" if j % 2 == 0 else "asym"
    d = 6 + (j // 2) % 11
    w = CHECK_WS[(j // 22) % len(CHECK_WS)]
    rng = ffc.SplitMix64(ffc.derive_seed(seed, j))
    low = -20 if kind == "sym" else 0

    def poly():
        return ffc.RatPoly.from_roots(
            [Fraction(low + rng.below(21 - low), 4) for _ in range(d)]
        )

    return kind, poly(), poly(), d, w


def table_cells(n: int) -> list[tuple[int, int, str]]:
    """Pass ``n`` of the bound-table grid: m 3..8 (pass 0, the README grid),
    then m 9..14, and so on, each with d 4..24:2 and both kinds, in a fixed
    shuffled order.  No cell repeats, and the order does not depend on the
    benchmark seed, so a pass that a run leaves unfinished is the same part
    of it at every seed."""
    ms = [m + len(TABLE_MS) * n for m in TABLE_MS]
    cells = [(m, d, mode) for mode in ("sym", "asym") for m in ms for d in TABLE_DS]
    ffc.SplitMix64(n).shuffle(cells)
    return cells


def bounds_ops(seed: int) -> Iterator[Op]:
    """Table cells, pass after pass, with one bound check after every
    CELLS_PER_CHECK cells.  A pass has 132 cells and so brings 66 checks:
    one of each kind, degree and w.  The ratio is fixed so that the share of
    table work does not depend on how many operations fit in a run."""
    checks = itertools.count()
    for n in itertools.count():
        for k, cell in enumerate(table_cells(n)):
            yield Op(
                "table:{2}:m={0}:d={1}".format(*cell),
                lambda c=cell: _table_cell(*c),
                _check_table,
            )
            if k % CELLS_PER_CHECK == CELLS_PER_CHECK - 1:
                yield _bound_check_op(seed, next(checks))


def _bound_check_op(seed: int, j: int) -> Op:
    kind, p, q, d, w = _check_inputs(seed, j)
    return Op(
        f"check:{kind}:{j}",
        lambda: _bound_check(kind, p, q, d, w),
        _check_bound_report,
    )


# -- descent ------------------------------------------------------------------------

EXACT_DESCENTS = (("nonbipartite", 4, 3), ("bipartite", 3, 2))
SAMPLED = ("nonbipartite", 6, 3)
# With 4 samples an operation takes about 2 s, too few per run for a tail.
SAMPLES_PER_PROGRAM = 2


def _descend(mode: str, d: int, m: int, strategy: str, seed: int):
    report = ffc.interlacing_descent(
        mode, d, m, strategy=strategy, seed=seed, samples_per_program=SAMPLES_PER_PROGRAM
    )
    return report, serial.dumps(serial.search_report_to_obj(report, seed))


def _check_exact_descent(report) -> str | None:
    """Each greedy step keeps the largest conditional root at or below the
    previous one, and the terminal graph is certified Ramanujan."""
    previous = report.initial_deflated
    for k, step in enumerate(report.steps):
        if ffc.compare_max_roots(step.deflated, previous) > 0:
            return f"step {k} raised the largest conditional root"
        previous = step.deflated
    if not report.certificate.is_ramanujan:
        return f"exact descent ended {report.certificate.verdict}"
    return None


def _check_sampled_descent(report) -> str | None:
    """The sampled strategy guarantees no verdict; check that the report is
    complete and its certificate self-consistent."""
    mode, d, m = SAMPLED
    n_swaps = len(ffc.uniform_program(d).swaps)
    cert = report.certificate
    if report.graph is None or cert is None:
        return "descent returned no graph"
    if len(report.steps) != m * n_swaps:
        return f"{len(report.steps)} steps, expected {m * n_swaps}"
    if (cert.mode, cert.d, cert.m) != (mode, d, m):
        return "certificate does not match the requested model"
    strict = cert.interior_count == cert.deflated.degree
    if strict != (cert.verdict == STRICT):
        return f"verdict {cert.verdict} disagrees with {cert.interior_count} interior roots"
    return None


def descent_ops(seed: int) -> Iterator[Op]:
    """The two exact descents once, then sampled descents, one derived seed
    each.  The exact descents ignore the seed, so they are recorded with 0."""
    for mode, d, m in EXACT_DESCENTS:
        yield Op(
            f"descend:exact:{mode}:d={d}:m={m}",
            lambda a=(mode, d, m): _descend(*a, "exact", 0),
            _check_exact_descent,
        )
    for i in itertools.count(len(EXACT_DESCENTS)):
        op_seed = ffc.derive_seed(seed, i)
        yield Op(
            f"descend:sampled:{op_seed}",
            lambda s=op_seed: _descend(*SAMPLED, "sampled", s),
            _check_sampled_descent,
        )


WORKLOADS: dict[str, Callable[[int], Iterator[Op]]] = {
    "search-bipartite": search_ops("bipartite", 20, 3),
    "search-plain": search_ops("nonbipartite", 24, 3),
    "bounds": bounds_ops,
    "descent": descent_ops,
}
