"""Cauchy transforms, inverse-transform bounds, and exact root-bound tables.

The Cauchy transform of a degree-d polynomial is G(x) = p'(x) / (d p(x)),
evaluated exactly on rationals.  Its inverse K(w), the unique solution of
G(x) = w to the right of the largest root, is bisected from a certified
rational starting bracket with exact sign tests, so only the returned
midpoint is floating point.  The root-bound table is exact end to end:
largest-root verdicts against 2*sqrt(m-1) are Sturm counts with quadratic
irrational endpoints, never float comparisons.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .config import worker_count
from .convolution import asym_convolve, m_fold_asym, m_fold_sym, sym_convolve
from .errors import ParameterError, PoleError
from .poly import RatPoly, cauchy_root_bound
from .quadfield import QuadScalar
from .sturm import count_roots_in, is_real_rooted, max_root_bracket


def cauchy_transform(p: RatPoly, x) -> Fraction:
    """Exact G(x) = p'(x) / (deg(p) * p(x)) at a rational point."""
    if p.degree < 1:
        raise ParameterError("transform needs a nonconstant polynomial")
    x = Fraction(x)
    px = p(x)
    if px == 0:
        raise PoleError(f"evaluation at a root of the polynomial: {x}")
    return p.derivative()(x) / (p.degree * px)


def inverse_cauchy(p: RatPoly, w, tol: float = 1e-12) -> float:
    """K(w): the x > max_root(p) with G(x) = w, to absolute tolerance tol.

    Starts from the certified rational bracket
    [max_root + 1/(d w), max_root + 1/w] and bisects with exact rational
    comparisons, so clustered roots cannot mislead the sign test; only the
    returned midpoint is floating point.  Requires w > 0 and a real-rooted
    p of degree >= 1.
    """
    if p.degree < 1:
        raise ParameterError("inverse transform needs a nonconstant polynomial")
    w = Fraction(w)
    if w <= 0:
        raise ParameterError("inverse transform needs w > 0")
    if p.lead < 0:
        p = p.scale(-1)
    d = p.degree
    # Bracket the largest root tighter than 1/(d*w) so the shifted interval
    # still lies strictly to the right of every root.
    root_lo, root_hi = max_root_bracket(p, width=Fraction(1, 4 * d) / w)
    lo = root_lo + Fraction(1, d) / w
    hi = root_hi + 1 / w
    pd = p.derivative()
    half_tol = Fraction(tol) / 2
    while hi - lo > half_tol:
        mid = (lo + hi) / 2
        # G is strictly decreasing right of the top root
        if pd(mid) > d * w * p(mid):
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


@dataclass(frozen=True)
class BoundReport:
    """One inverse-transform subadditivity check at a single w."""

    kind: str
    w: Fraction
    lhs: float
    rhs: float
    tol: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.margin >= -self.tol


def check_sym_bound(
    p: RatPoly, q: RatPoly, d: int, w, tol: float = 1e-9
) -> BoundReport:
    """Check K of the symmetric convolution against K(p) + K(q) - 1/w."""
    w = Fraction(w)
    if not (is_real_rooted(p) and is_real_rooted(q)):
        raise ParameterError("bound check needs real-rooted inputs")
    conv = sym_convolve(p, q, d)
    lhs = inverse_cauchy(conv, w)
    rhs = inverse_cauchy(p, w) + inverse_cauchy(q, w) - 1.0 / float(w)
    return BoundReport(kind="sym", w=w, lhs=lhs, rhs=rhs, tol=tol)


def check_asym_bound(
    p: RatPoly, q: RatPoly, d: int, w, tol: float = 1e-9
) -> BoundReport:
    """Check K of the square-substituted asymmetric convolution against the
    sum of the square-substituted marginals minus 1/w."""
    w = Fraction(w)
    if not (is_real_rooted(p) and is_real_rooted(q)):
        raise ParameterError("bound check needs real-rooted inputs")
    for poly in (p, q):
        if poly.degree < 1:
            continue
        floor = -cauchy_root_bound(poly) - 1
        if count_roots_in(poly, floor, Fraction(0), open_interval=True):
            raise ParameterError("asym bound check needs nonnegative roots")
    conv = asym_convolve(p, q, d).substitute_square()
    lhs = inverse_cauchy(conv, w)
    rhs = (
        inverse_cauchy(p.substitute_square(), w)
        + inverse_cauchy(q.substitute_square(), w)
        - 1.0 / float(w)
    )
    return BoundReport(kind="asym", w=w, lhs=lhs, rhs=rhs, tol=tol)


def matching_nontrivial_poly(d: int) -> RatPoly:
    """(x-1)**(d/2-1) (x+1)**(d/2): the nontrivial factor of the
    characteristic polynomial of a perfect matching on d vertices."""
    if d < 2 or d % 2:
        raise ParameterError("need an even vertex count d >= 2")
    return RatPoly.from_roots([1] * (d // 2 - 1) + [-1] * (d // 2))


def bip_matching_nontrivial_poly(d: int) -> RatPoly:
    """(x-1)**(d-1): the nontrivial factor of char(N N^T) for a perfect
    matching between two sides of d vertices (N the identity)."""
    if d < 1:
        raise ParameterError("need d >= 1")
    return RatPoly.from_roots([1] * (d - 1))


def ramanujan_bound(m: int) -> QuadScalar:
    """Exact 2*sqrt(m-1), the minimum of (x**2 + (m-1)) / x over x > 0."""
    if m < 2:
        raise ParameterError("need m >= 2")
    return QuadScalar(0, 2, m - 1)


@dataclass(frozen=True)
class TableRow:
    """One exact verdict row: is the largest root below 2*sqrt(m-1)?"""

    m: int
    d: int
    mode: str
    poly: RatPoly
    bracket_lo: Fraction
    bracket_hi: Fraction
    bound: QuadScalar
    below_bound: bool


def _table_cell(args: tuple[int, int, str, Fraction]) -> TableRow:
    m, d, mode, width = args
    if mode == "sym":
        poly = m_fold_sym(matching_nontrivial_poly(d), m, d - 1)
    else:
        poly = m_fold_asym(bip_matching_nontrivial_poly(d), m, d - 1)
        poly = poly.substitute_square()
    bound = ramanujan_bound(m)
    lo, hi = max_root_bracket(poly, width)
    upper = cauchy_root_bound(poly) + 1
    at_or_above = count_roots_in(poly, bound, QuadScalar(upper), open_interval=False)
    return TableRow(
        m=m,
        d=d,
        mode=mode,
        poly=poly,
        bracket_lo=lo,
        bracket_hi=hi,
        bound=bound,
        below_bound=at_or_above == 0,
    )


def mfold_root_bound_table(
    ms: Sequence[int],
    ds: Sequence[int],
    mode: str,
    width: Fraction = Fraction(1, 1024),
) -> list[TableRow]:
    """Exact largest-root verdicts for m-fold matching convolutions on the
    (m, d) grid.  Work is independent per cell; FFC_THREADS > 1 spreads cells
    over processes without changing any result or the row order."""
    if mode not in ("sym", "asym"):
        raise ParameterError("mode must be 'sym' or 'asym'")
    cells = []
    for m in ms:
        if m < 2:
            raise ParameterError("table needs m >= 2")
        for d in ds:
            if mode == "sym" and (d < 2 or d % 2):
                raise ParameterError(f"sym mode needs even d >= 2, got {d}")
            if mode == "asym" and d < 2:
                raise ParameterError(f"asym mode needs d >= 2, got {d}")
            cells.append((m, d, mode, Fraction(width)))
    workers = min(worker_count(), len(cells)) if cells else 1
    if workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(_table_cell, cells))
        except OSError:
            pass
    return [_table_cell(c) for c in cells]
