"""Inverse Cauchy transforms, their bounds, and exact root-bound tables.

The Cauchy transform of a degree-d polynomial is G(x) = p'(x) / (d p(x)).
Its inverse K(w), the unique solution of
G(x) = w to the right of the largest root, is the largest root of
d w p - p', so it comes from that polynomial's certified max-root bracket
and only the returned midpoint is floating point.  That polynomial is built
on integers, from the primitive coefficients of p and the numerator and
denominator of w, and goes straight to the integer bracket core, with no
Fraction polynomial in between.  The root-bound table is
exact end to end: a bracket (lo, hi] of the largest root decides the verdict
against 2*sqrt(m-1) by exact comparison in Q(sqrt(m-1)) when the bound lies
outside it, and a Sturm count with quadratic irrational endpoints decides it
when the bound falls inside; the table compares no float.  The midpoints
meet a verdict only in ``BoundReport.passed``, which compares them with a
tolerance: the one verdict in the package still decided on floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .convolution import (
    asym_convolve,
    check_level_budget,
    m_fold_asym,
    m_fold_sym,
    sym_convolve,
)
from .errors import ParameterError
from .poly import RatPoly, _int_primitive, cauchy_root_bound
from .quadfield import QuadScalar
from .sturm import (
    _int_max_root_bracket,
    _positive_int,
    count_roots_in,
    is_real_rooted,
    max_root_bracket,
)


def inverse_cauchy(p: RatPoly, w, tol: float = 1e-12) -> float:
    """K(w): the x > max_root(p) with G(x) = w, to absolute tolerance tol.

    For p with positive leading coefficient, d w p - p' = d p (w - G) has
    exactly one root right of the largest root of p, where G falls from
    +inf to 0, and none beyond it, so K(w) is exactly the largest root of
    d w p - p'.  That polynomial is built on integers (``_k_poly``) and its
    certified max-root bracket taken at width tol/2 on them; only the
    returned midpoint is floating point.  Requires w > 0, a finite tol > 0
    and a real-rooted p of degree >= 1.
    """
    if not 0 < tol < math.inf:
        raise ParameterError(f"tolerance must be finite and positive, got {tol!r}")
    if p.degree < 1:
        raise ParameterError("inverse transform needs a nonconstant polynomial")
    w = Fraction(w)
    if w <= 0:
        raise ParameterError("inverse transform needs w > 0")
    lo, hi = _int_max_root_bracket(_k_poly(p, w), Fraction(tol) / 2)
    return float((lo + hi) / 2)


def _k_poly(p: RatPoly, w: Fraction) -> tuple[int, ...]:
    """Primitive integer coefficients, with a positive leading one, of
    d w p - p' for p made to lead positively and w = a/b > 0.

    With c = ``_positive_int(p)``, b (d w c - c') has the integer entries
    d a c_i - b (i+1) c_(i+1), and d a c_d on top; that vector is a positive
    multiple of d w p - p', so its primitive part is that polynomial's.
    """
    c = _positive_int(p)
    d = len(c) - 1
    da, b = d * w.numerator, w.denominator
    k = [da * c[i] - b * (i + 1) * c[i + 1] for i in range(d)]
    k.append(da * c[d])
    return _int_primitive(tuple(k))


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
    sum of the square-substituted marginals minus 1/w.

    The inputs must be real-rooted with no negative root.  Once the Sturm
    count has proved them real-rooted, the sign pattern of their
    coefficients decides the second condition exactly
    (``_has_negative_root``).
    """
    w = Fraction(w)
    if not (is_real_rooted(p) and is_real_rooted(q)):
        raise ParameterError("bound check needs real-rooted inputs")
    if _has_negative_root(p) or _has_negative_root(q):
        raise ParameterError("asym bound check needs nonnegative roots")
    conv = asym_convolve(p, q, d).substitute_square()
    lhs = inverse_cauchy(conv, w)
    rhs = (
        inverse_cauchy(p.substitute_square(), w)
        + inverse_cauchy(q.substitute_square(), w)
        - 1.0 / float(w)
    )
    return BoundReport(kind="asym", w=w, lhs=lhs, rhs=rhs, tol=tol)


def _has_negative_root(p: RatPoly) -> bool:
    """True when the real-rooted polynomial p has a negative root.

    Descartes' rule of signs is exact for real-rooted polynomials, so p has
    as many negative roots, with multiplicity, as the coefficients of
    p(-x), (-1)**k c_k, have sign variations: none exactly when the nonzero
    ones share one sign.
    """
    return len({(c > 0) == (k % 2 == 0) for k, c in enumerate(p.coeffs) if c}) > 1


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


def matching_fold(kind: str, m: int, d: int) -> RatPoly:
    """The m-fold convolution, at level d - 1, of one perfect matching's
    nontrivial polynomial: symmetric kind ("sym") on d vertices, or
    rectangular kind ("asym") across a (d, d) bipartition, squared back up.
    A level past ``MAX_LEVEL`` is refused before the polynomial is built."""
    check_level_budget(d - 1)
    if kind == "sym":
        return m_fold_sym(matching_nontrivial_poly(d), m, d - 1)
    return m_fold_asym(bip_matching_nontrivial_poly(d), m, d - 1).substitute_square()


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


def _table_cell(m: int, d: int, mode: str, width: Fraction) -> TableRow:
    poly = matching_fold(mode, m, d)
    bound = ramanujan_bound(m)
    lo, hi = max_root_bracket(poly, width)
    # the largest root lies in (lo, hi]; count roots only when it straddles
    if bound > hi:
        below = True
    elif bound <= lo:
        below = False
    else:
        upper = QuadScalar(cauchy_root_bound(poly) + 1)
        below = count_roots_in(poly, bound, upper, open_interval=False) == 0
    return TableRow(
        m=m,
        d=d,
        mode=mode,
        poly=poly,
        bracket_lo=lo,
        bracket_hi=hi,
        bound=bound,
        below_bound=below,
    )


def mfold_root_bound_table(
    ms: Sequence[int],
    ds: Sequence[int],
    mode: str,
    width: Fraction = Fraction(1, 1024),
) -> list[TableRow]:
    """Exact largest-root verdicts for m-fold matching convolutions on the
    (m, d) grid, one row per cell in grid order."""
    if mode not in ("sym", "asym"):
        raise ParameterError("mode must be 'sym' or 'asym'")
    width = Fraction(width)
    if width <= 0:
        raise ParameterError("bracket width must be positive")
    cells = []
    for m in ms:
        if m < 2:
            raise ParameterError("table needs m >= 2")
        for d in ds:
            if mode == "sym" and (d < 2 or d % 2):
                raise ParameterError(f"sym mode needs even d >= 2, got {d}")
            if mode == "asym" and d < 2:
                raise ParameterError(f"asym mode needs d >= 2, got {d}")
            cells.append((m, d))
    return [_table_cell(m, d, mode, width) for m, d in cells]
