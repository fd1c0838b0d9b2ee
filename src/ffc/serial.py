"""File formats: canonical exact strings, JSON documents, run manifests.

Every document is JSON with sorted keys, two-space indent, and a trailing
newline, so identical data produces identical bytes.  Exact values travel as
strings: rationals in Fraction form ("3", "-7/2"), quadratic irrationals in
the canonical form emitted by QuadScalar ("1/2+3*sqrt(2)").  Decimal
renderings, where present, are 15-significant-digit conveniences that always
sit next to the exact string, never replace it.

Rationals are parsed back (``parse_fraction``); quadratic values are not.
The only quadratic values documents carry are Ramanujan bounds, each a
function of m, so a reader compares the string with ``str`` of the bound it
computes (``_parse_bound``) rather than parse an arbitrary radicand.

Documents carry a version field; readers reject versions they do not know.
The run manifest records what produced an output file: argv, seed, the
budgets ``config.MAX_DET_EVALS`` and ``config.MAX_SWAPS``, the package
version, and digests.  Re-running the same command reproduces the primary
outputs byte for byte, so wall time lives only in the manifest.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from . import config
from .errors import ParameterError
from .graphs import (
    NOT_RAMANUJAN,
    STRICT,
    WITH_BOUNDARY,
    MatchingUnion,
    RamanujanCertificate,
    check_shape,
)
from .perms import Permutation
from .poly import RatPoly
from .quadfield import QuadScalar, as_quad
from .search import SearchReport
from .transforms import TableRow, ramanujan_bound

FORMAT_VERSION = 1


def decimal_str(x) -> str:
    """15-significant-digit decimal rendering of an exact value."""
    return f"{float(x):.15g}"


def parse_fraction(s: str) -> Fraction:
    if not isinstance(s, str):
        raise ParameterError(f"rational value must be a string, found {s!r}")
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"cannot parse rational value {s!r}") from None


# -- document bodies ---------------------------------------------------------------


def poly_to_obj(p: RatPoly) -> dict:
    """Ascending coefficients as exact strings."""
    return {"coeffs": [str(c) for c in p.coeffs]}


def parse_poly(obj) -> RatPoly:
    """Inverse of ``poly_to_obj``, which never writes a trailing zero: one
    would make the stored degree a lie, so it is malformed."""
    if not isinstance(obj, dict) or not isinstance(obj.get("coeffs"), list):
        raise ParameterError("polynomial document needs a 'coeffs' list")
    coeffs = tuple(parse_fraction(c) for c in obj["coeffs"])
    if coeffs and coeffs[-1] == 0:
        raise ParameterError("polynomial document has a trailing zero coefficient")
    return RatPoly(coeffs)


def graph_to_obj(g: MatchingUnion, seed: int | None = None) -> dict:
    obj = {
        "version": FORMAT_VERSION,
        "kind": "matching-union",
        "mode": g.mode,
        "d": g.d,
        "m": g.m,
        "perms": [list(p.image) for p in g.perms],
    }
    if seed is not None:
        obj["seed"] = seed
    return obj


def _expect_kind(obj, kind: str) -> None:
    if not isinstance(obj, dict):
        raise ParameterError(f"{kind} document must be a JSON object")
    if obj.get("kind") != kind:
        raise ParameterError(f"expected kind {kind!r}, found {obj.get('kind')!r}")
    version = obj.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParameterError(
            f"unsupported {kind} version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )


def parse_graph(obj) -> MatchingUnion:
    _expect_kind(obj, "matching-union")
    try:
        perms = tuple(Permutation(tuple(img)) for img in obj["perms"])
        return MatchingUnion(obj["mode"], obj["d"], obj["m"], perms)
    except KeyError as exc:
        raise ParameterError(f"graph document is missing field {exc}") from None
    except TypeError:
        raise ParameterError("graph document has malformed fields") from None


def certificate_to_obj(c: RamanujanCertificate) -> dict:
    return {
        "version": FORMAT_VERSION,
        "kind": "ramanujan-certificate",
        "mode": c.mode,
        "d": c.d,
        "m": c.m,
        "char_poly": poly_to_obj(c.char_poly),
        "deflated": poly_to_obj(c.deflated),
        "bound": {"exact": str(c.bound), "decimal": decimal_str(c.bound)},
        "interior_count": c.interior_count,
        "boundary_count": c.boundary_count,
        "verdict": c.verdict,
    }


def _int_in(v, lo: int, hi: int | None = None) -> bool:
    """Whether v is an int, not a bool, with lo <= v (and v < hi if given)."""
    return type(v) is int and lo <= v and (hi is None or v < hi)


def _parse_bound(bound, m: int) -> QuadScalar:
    """The bound a document for this m must carry: 2*sqrt(m-1), or 0 when
    m = 1.  The bound is a function of m, so a different one is malformed,
    and parsing an arbitrary radicand could take unbounded time."""
    if not isinstance(bound, dict):
        raise ParameterError("certificate bound must be an object")
    expected = ramanujan_bound(m) if m >= 2 else as_quad(0)
    if bound.get("exact") != str(expected):
        raise ParameterError(
            f"certificate bound {bound.get('exact')!r} is not {str(expected)!r}, "
            f"the bound for m = {m}"
        )
    return expected


def parse_certificate(obj) -> RamanujanCertificate:
    _expect_kind(obj, "ramanujan-certificate")
    try:
        check_shape(obj["mode"], obj["d"], obj["m"])
        cert = RamanujanCertificate(
            mode=obj["mode"],
            d=obj["d"],
            m=obj["m"],
            char_poly=parse_poly(obj["char_poly"]),
            deflated=parse_poly(obj["deflated"]),
            bound=_parse_bound(obj["bound"], obj["m"]),
            interior_count=obj["interior_count"],
            boundary_count=obj["boundary_count"],
            verdict=obj["verdict"],
        )
    except KeyError as exc:
        raise ParameterError(f"certificate document is missing field {exc}") from None
    # one trivial eigenvalue is deflated, and its negative too in bipartite mode
    n, trivial = (cert.d, 1) if cert.mode == "nonbipartite" else (2 * cert.d, 2)
    if cert.char_poly.degree != n or cert.deflated.degree != n - trivial:
        raise ParameterError("certificate polynomials do not match d")
    counts = (cert.interior_count, cert.boundary_count)
    if not all(_int_in(c, 0) for c in counts) or sum(counts) > n - trivial:
        raise ParameterError("certificate root counts are out of range")
    if cert.verdict not in (STRICT, WITH_BOUNDARY, NOT_RAMANUJAN):
        raise ParameterError(f"unknown verdict {cert.verdict!r}")
    return cert


def search_report_to_obj(r: SearchReport, seed: int) -> dict:
    """Search outcome with the graph and certificate embedded.

    Wall time is deliberately omitted: the document must be byte-identical
    across re-runs with the same seed.
    """
    return {
        "version": FORMAT_VERSION,
        "kind": "search-report",
        "mode": r.mode,
        "d": r.d,
        "m": r.m,
        "seed": seed,
        "trials_run": r.trials_run,
        "successes": r.successes,
        "first_success_trial": r.first_success_trial,
        "graph": None if r.graph is None else graph_to_obj(r.graph),
        "certificate": (
            None if r.certificate is None else certificate_to_obj(r.certificate)
        ),
    }


def parse_search_report(obj) -> SearchReport:
    """Inverse of ``search_report_to_obj``, up to what the document omits:
    wall time, descent steps and counters read as their defaults."""
    _expect_kind(obj, "search-report")
    try:
        mode, d, m = obj["mode"], obj["d"], obj["m"]
        seed, trials, successes = obj["seed"], obj["trials_run"], obj["successes"]
        first = obj["first_success_trial"]
        graph = None if obj["graph"] is None else parse_graph(obj["graph"])
        cert = obj["certificate"]
        cert = None if cert is None else parse_certificate(cert)
    except KeyError as exc:
        raise ParameterError(f"search report is missing field {exc}") from None
    check_shape(mode, d, m)
    if not _int_in(seed, 0, 1 << 64):
        raise ParameterError("search report seed must be an unsigned 64-bit integer")
    if not (_int_in(trials, 1) and _int_in(successes, 0, 2)):
        raise ParameterError("search report trial counts are out of range")
    if not (_int_in(first, 0, trials) if successes else first is None):
        raise ParameterError("search report first_success_trial is inconsistent")
    if (graph is None) != (cert is None) or (successes and graph is None):
        raise ParameterError("search report needs a graph and certificate together")
    for part in (graph, cert):
        if part is not None and (part.mode, part.d, part.m) != (mode, d, m):
            raise ParameterError("embedded document does not match the search report")
    return SearchReport(
        mode=mode,
        d=d,
        m=m,
        trials_run=trials,
        successes=successes,
        first_success_trial=first,
        graph=graph,
        certificate=cert,
        wall_time=0.0,
    )


def graph_from_document(obj) -> MatchingUnion:
    """Accept either a graph document or a search report embedding one."""
    if isinstance(obj, dict) and obj.get("kind") == "search-report":
        graph = parse_search_report(obj).graph
        if graph is None:
            raise ParameterError("search report contains no graph")
        return graph
    return parse_graph(obj)


def table_row_to_obj(row: TableRow) -> dict:
    return {
        "m": row.m,
        "d": row.d,
        "mode": row.mode,
        "poly": poly_to_obj(row.poly),
        "bracket_lo": str(row.bracket_lo),
        "bracket_hi": str(row.bracket_hi),
        "bound": {"exact": str(row.bound), "decimal": decimal_str(row.bound)},
        "below_bound": row.below_bound,
    }


def table_to_obj(rows) -> dict:
    return {
        "version": FORMAT_VERSION,
        "kind": "bound-table",
        "rows": [table_row_to_obj(r) for r in rows],
    }


TABLE_TSV_HEADER = "m\td\tmode\tbelow_bound\tbracket_lo\tbracket_hi\tbound\tbound_decimal"


def table_to_tsv(rows) -> str:
    lines = [TABLE_TSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.m}\t{r.d}\t{r.mode}\t{str(r.below_bound).lower()}"
            f"\t{r.bracket_lo}\t{r.bracket_hi}\t{r.bound}\t{decimal_str(r.bound)}"
        )
    return "\n".join(lines) + "\n"


# -- reading and writing -----------------------------------------------------------


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def read_json(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc.strerror}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParameterError(
            f"{path} is not valid JSON (line {exc.lineno}, column {exc.colno}: {exc.msg})"
        ) from None


def write_text(path, text: str) -> str:
    """Write and return the content's sha256 hex digest."""
    data = text.encode()
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def manifest_obj(
    argv: list[str],
    seed: int | None,
    outputs: dict[str, str],
    wall_time: float,
) -> dict:
    return {
        "version": FORMAT_VERSION,
        "kind": "run-manifest",
        "argv": list(argv),
        "seed": seed,
        "budgets": {
            "max_det_evals": config.MAX_DET_EVALS,
            "max_swaps": config.MAX_SWAPS,
        },
        "package_version": config.PACKAGE_VERSION,
        "outputs": outputs,
        "wall_time_seconds": decimal_str(wall_time),
    }


def manifest_path(out_path) -> Path:
    p = Path(out_path)
    return p.with_name(p.name + ".manifest.json")
