"""Finite additive convolutions of polynomials at a fixed level d.

Both convolutions are bilinear in the signed coefficient vectors defined by

    p(x) = sum_{i=0}^{d} x**(d-i) * (-1)**i * a_i,

so polynomials of degree below d embed with leading zero entries.  The
symmetric convolution weights the product a_i * b_j by

    W(d, i, j) = (d-i)! (d-j)! / (d! (d-i-j)!),

and the asymmetric convolution by W(d, i, j)**2.  These closed forms are not
taken on faith here: the test suite accepts them only after exact agreement
with independent permutation-enumeration averages on random instances (see
the quadrature module), plus the classical identities they must satisfy
(unit element x**d, the derivative identity against x**(d-1) (x-d), and the
degree-1 asymmetric case).

Rescaled by the weight's own factors, r_i = a_i (d-i)!/d! (the factor
squared for the asymmetric kind), both convolutions are truncated products
of power series: the rescaled output is sum_{i+j=k} r_i s_j for k <= d
(MSS, *Finite free convolutions of polynomials*, arXiv:1504.00350).  So a
convolution is one series product and an m-fold convolution is one series
raised to the m-th power: O(d**2) products whatever m is, on integers of
O(min(m, d) log d! + d log m) bits: the power drops the factor b_0**(m-d)
that all its coefficients share, b_0 the series' first entry, and carries it
as one exact scale.  Both run on integers:
each input is put over one common denominator with the sign (-1)**i folded
into the integer numerator, and the result is divided once per coefficient,
straight into the ascending coefficients of the output polynomial.  The one
kernel serves both kinds; only the exponent of the rescaling differs.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .errors import BudgetError, ContractError, ParameterError
from .poly import RatPoly

# The largest level a convolution runs at.  The series hold factorials up to
# d! and a product costs O(d**2) products of numbers about that long: the
# m-fold convolution of one matching's polynomial takes about 5 s at level
# 512 and 75 s at level 1024 (m = 3, one core), while the bound table up
# to d = 128 stays at level 127.
MAX_LEVEL = 1024


def check_level_budget(d: int) -> None:
    """Raise BudgetError for a level past MAX_LEVEL, before any work."""
    if d > MAX_LEVEL:
        raise BudgetError(f"convolution level {d} exceeds the budget of {MAX_LEVEL}")


def _check_level(p: RatPoly, q: RatPoly, d: int) -> None:
    if d < 0:
        raise ParameterError("convolution level must be nonnegative")
    check_level_budget(d)
    if p.degree > d or q.degree > d:
        raise ParameterError("input degree exceeds convolution level")


def _series(p: RatPoly, d: int, squared: bool) -> tuple[list[int], int]:
    """Integers s_i and a denominator D > 0 with s_i / D = a_i (d-i)!/d!,
    the factor squared for the asymmetric kind."""
    e = 2 if squared else 1
    den = lcm(*(c.denominator for c in p.coeffs))
    a = [p.coeff(d - i) for i in range(d + 1)]
    s = [
        (-1) ** i * c.numerator * (den // c.denominator) * factorial(d - i) ** e
        for i, c in enumerate(a)
    ]
    return s, den * factorial(d) ** e


def _from_series(c: list[int], den: int | Fraction, d: int, squared: bool) -> RatPoly:
    """Invert ``_series``: the polynomial whose rescaled coefficients are
    c_k / den, for an integer or Fraction den."""
    e = 2 if squared else 1
    top = factorial(d) ** e * den.denominator
    # x**k carries (-1)**(d-k) a_(d-k), and a_(d-k) = c_(d-k) top / (den k!**e)
    return RatPoly.from_coeffs(
        Fraction((-1) ** (d - k) * c[d - k] * top, den.numerator * factorial(k) ** e)
        for k in range(d + 1)
    )


def _convolve(p: RatPoly, q: RatPoly, d: int, squared: bool) -> RatPoly:
    _check_level(p, q, d)
    s, ds = _series(p, d, squared)
    t, dt = _series(q, d, squared)
    c = [sum(s[i] * t[k - i] for i in range(k + 1)) for k in range(d + 1)]
    return _from_series(c, ds * dt, d, squared)


def _series_power(s: list[int], m: int) -> tuple[list[int], int, int]:
    """(c, b_0, r) with s**m = b_0**r * c, truncated to len(s) terms.

    A leading zero run t**v is factored out first, so the rest b has b_0 != 0
    and Miller's recurrence k b_0 c_k = sum_{j>=1} ((m+1) j - k) b_j c_{k-j}
    (from b (b**m)' = m b' b**m) applies up to the last kept index K.  The
    recurrence is linear and homogeneous in c, so it may start from
    b_0**min(m, K) in place of b_0**m: that divides every c_k by
    b_0**r, r = max(m - K, 0).  Each c_k stays an integer, and so each
    division exact, because a term of the k-th coefficient of b**m takes at
    least m - k of its m factors from b_0.  The entries then have
    O(K log |b| + K log m) bits whatever m is.
    """
    n = len(s)
    v = next((i for i, x in enumerate(s) if x), n)
    out = [0] * n
    if v * m >= n:
        return out, 1, 0
    b = s[v:]
    last = n - 1 - v * m
    r = max(m - last, 0)
    c = [b[0] ** (m - r)]
    for k in range(1, last + 1):
        acc = sum(((m + 1) * j - k) * b[j] * c[k - j] for j in range(1, k + 1))
        q, rem = divmod(acc, k * b[0])
        if rem:
            raise ContractError(f"Miller's recurrence left a remainder at index {k}")
        c.append(q)
    out[v * m:] = c
    return out, b[0], r


def sym_convolve(p: RatPoly, q: RatPoly, d: int) -> RatPoly:
    """Symmetric additive convolution of p and q at level d."""
    return _convolve(p, q, d, squared=False)


def asym_convolve(p: RatPoly, q: RatPoly, d: int) -> RatPoly:
    """Asymmetric (square-weighted) additive convolution at level d."""
    return _convolve(p, q, d, squared=True)


def _m_fold(p: RatPoly, m: int, d: int, squared: bool) -> RatPoly:
    """p convolved with itself m times at level d: the series (s / den)**m.

    ``_series_power`` returns s**m as b0**r c, so the scale is
    den**m / b0**r = den**(m-r) (den/b0)**r, and den**m is never formed.  For
    a monic p of full degree b0 is den, the second factor is 1, and the
    scale has m - r <= d factors of den whatever m is.
    """
    if m < 1:
        raise ParameterError("fold count must be at least 1")
    _check_level(p, p, d)
    s, den = _series(p, d, squared)
    c, b0, r = _series_power(s, m)
    scale = den ** (m - r)
    if r:
        scale *= Fraction(den, b0) ** r
    return _from_series(c, scale, d, squared)


def m_fold_sym(p: RatPoly, m: int, d: int) -> RatPoly:
    """p convolved with itself m times symmetrically (m = 1 returns p)."""
    return _m_fold(p, m, d, squared=False)


def m_fold_asym(p: RatPoly, m: int, d: int) -> RatPoly:
    """p convolved with itself m times asymmetrically (m = 1 returns p)."""
    return _m_fold(p, m, d, squared=True)
