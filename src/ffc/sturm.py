"""Exact real-root counting, isolation, brackets, and interlacing checks.

The sign machinery never touches floating point.  A chain is the signed
remainder sequence of p and p' itself; each element is stored as a
primitive integer coefficient vector that is a positive scalar multiple of
the textbook negated-remainder element, which leaves every sign variation
unchanged while keeping coefficient growth polynomial.  The sequence ends in
gcd(p, p'), which divides every element, so its sign variations count the
distinct real roots of p without a square-free part (Sturm's theorem for
the signed remainder sequence; Basu, Pollack and Roy, *Algorithms in Real
Algebraic Geometry*, ch. 2), and deg p minus the degree of its last element
is the number of distinct complex roots.

Multiplicities come from the same chains.  The last element of the chain of
g0 = p is g1 = gcd(p, p'), the last element of the chain of g1 is
g2 = gcd(g1, g1'), and so on until a constant: a root of multiplicity mu is
a root of g0, ..., g(mu-1) and of no later element.  So counts with
multiplicity are sums of distinct-root counts over this gcd tower, and the
square-free decomposition is read off it by exact division; no other
polynomial gcd is computed.

Sign variations are always evaluated just to the right of a point: the sign
of q(x + epsilon) for arbitrarily small positive epsilon is the first nonzero
entry of q(x), q'(x), q''(x), ...  With that convention the variation
difference between two points counts distinct roots in the half-open
interval (lo, hi] with no special-casing when an endpoint is itself a root
of the polynomial or of a chain element.

Endpoints may be rationals or QuadScalar values a + b*sqrt(r); their signs
are decided by integer arithmetic after clearing denominators.

Largest-root brackets usually need no chain.  The bracket is defined as the
cell that Sturm bisection of the Cauchy interval ends in, and only one cell
of that dyadic grid holds the largest root; a guess from Laguerre's method
names a cell, and two integer checks prove that it holds the largest root
(a sign change across it, and a Taylor shift at its right end with no sign
variation, so by Descartes' rule no root lies beyond).  The guess only
chooses which cell to check, so the bracket is the bisection's, bit for bit;
the bisection itself runs only when the proof fails.  The shift is the
package's one integer Taylor-shift kernel, ``_taylor_shift``; the certifier
in ``ffc.graphs`` counts roots with it too.

The bracket runs on primitive integer coefficients from start to finish
(``_int_max_root_bracket``, which ``ffc.transforms`` calls directly with
the integer polynomial of K(w)): the Cauchy bound is read off the integers,
and the bisection fallback bisects their chain.  The shift's cost grows with
the length of the denominator it runs over, and the grid's denominator
carries the Cauchy bound's (1245 bits for the largest asymmetric table
cell, m=30 and d=128).  So when that denominator is longer than 2**64 and
the cell holds the short point x0 = ceil(guess * 2**64) / 2**64 + 2**-64,
the shift runs at x0 first, over 2**64: no root above x0 is none above the
cell's right end.  Only when it has a negative coefficient does the shift
at the right end run.

Comparisons of largest roots use the same guess and proof.  Each input's
largest root is proved to lie in a cell of width 2**-63 on the 2**-64 grid;
disjoint cells give the sign, and equal inputs tie, with no chain built.
When only one cell is proved (the other input has a top root of even
multiplicity, no real root, or a simple top root that the shift does not
certify), one chain of the other input decides unless its largest root
lies in that cell.  Only then, when neither cell is proved, or when the two
cells overlap does ``compare_max_roots`` bisect the chain of p*q, as the
bracket's fallback does.  The work runs on primitive integer coefficients
(``_compare_int``), which the descent passes directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm as int_lcm
from typing import Iterator, Sequence

from .errors import ParameterError
from .poly import (
    RatPoly,
    _int_cauchy_bound,
    _int_primitive,
    _trim,
    cauchy_root_bound,
    to_primitive_int,
)
from .quadfield import as_quad, quad_sign


class _Inf:
    __slots__ = ("sign", "name")

    def __init__(self, sign: int, name: str):
        self.sign = sign
        self.name = name

    def __repr__(self) -> str:
        return self.name


NEG_INF = _Inf(-1, "-inf")
POS_INF = _Inf(+1, "+inf")


# -- integer polynomial helpers ------------------------------------------------


def _int_derivative(c: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(k * c[k] for k in range(1, len(c)))


def _taylor_shift(c: Sequence[int], t: int) -> Iterator[int]:
    """Coefficients of c(x + t), ascending, each yielded once it is final,
    so a caller may stop at the first one it rejects."""
    c = list(c)
    n = len(c) - 1
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            c[k] += t * c[k + 1]
        yield c[i]
    yield from c[n:]


def _signed_prem(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Integer polynomial equal to a positive multiple of rem(a, b)."""
    r = list(a)
    lb = b[-1]
    db = len(b) - 1
    flips = 0
    while r and len(r) - 1 >= db:
        d = len(r) - 1
        coef = r[-1]
        if lb < 0:
            flips ^= 1
        r = [lb * v for v in r]
        shift = d - db
        for j in range(db + 1):
            r[shift + j] -= coef * b[j]
        r = list(_trim(r))
    if flips:
        r = [-v for v in r]
    return tuple(r)


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


class _Point:
    """Endpoint in homogenized integer form: (u + v*sqrt(r)) / w."""

    __slots__ = ("u", "v", "w", "r", "quad")

    def __init__(self, value):
        q = as_quad(value)
        w = int_lcm(q.a.denominator, q.b.denominator)
        self.u = q.a.numerator * (w // q.a.denominator)
        self.v = q.b.numerator * (w // q.b.denominator)
        self.w = w
        self.r = q.r
        self.quad = q

    def sign_of(self, coeffs: tuple[int, ...]) -> int:
        """Exact sign of the integer polynomial at this point."""
        n = len(coeffs) - 1
        if n < 0:
            return 0
        wpow = [1] * (n + 1)
        for k in range(1, n + 1):
            wpow[k] = wpow[k - 1] * self.w
        x, y = coeffs[n], 0
        for k in range(n - 1, -1, -1):
            x, y = (
                x * self.u + y * self.v * self.r + coeffs[k] * wpow[n - k],
                x * self.v + y * self.u,
            )
        return quad_sign(x, y, self.r)

    def sign_just_right(self, coeffs: tuple[int, ...]) -> int:
        """Sign of the polynomial at this point + epsilon, epsilon -> 0+."""
        cur = coeffs
        while cur:
            s = self.sign_of(cur)
            if s:
                return s
            cur = _int_derivative(cur)
        raise ParameterError("sign query on the zero polynomial")


def _point_lt(a, b) -> bool:
    if isinstance(a, _Inf) or isinstance(b, _Inf):
        asign = a.sign if isinstance(a, _Inf) else 0
        bsign = b.sign if isinstance(b, _Inf) else 0
        return asign < bsign
    return (as_quad(a) - as_quad(b)).sign() < 0


# -- the chain ------------------------------------------------------------------


@dataclass(frozen=True)
class SturmChain:
    """Signed remainder sequence of a polynomial and its derivative.

    ``elements`` holds primitive integer coefficient vectors; each is a
    positive scalar multiple of the classical chain element, so all sign
    variations agree with the textbook chain.  The last element is
    gcd(p, p') up to a positive factor.
    """

    elements: tuple[tuple[int, ...], ...]

    def variations_right(self, point) -> int:
        if isinstance(point, _Inf):
            signs = []
            for e in self.elements:
                lead = _sign(e[-1])
                deg = len(e) - 1
                signs.append(lead if point.sign > 0 else lead * (-1) ** deg)
        else:
            pt = point if isinstance(point, _Point) else _Point(point)
            signs = [pt.sign_just_right(e) for e in self.elements]
        flips = 0
        for prev, cur in zip(signs, signs[1:]):
            if prev * cur < 0:
                flips += 1
        return flips

    def count_half_open(self, lo, hi) -> int:
        """Distinct real roots of the chain's polynomial in (lo, hi]."""
        if not _point_lt(lo, hi):
            raise ParameterError("need lo < hi exactly")
        return self.variations_right(lo) - self.variations_right(hi)

    def count_all(self) -> int:
        return self.count_half_open(NEG_INF, POS_INF)

    def is_root(self, point) -> bool:
        pt = point if isinstance(point, _Point) else _Point(point)
        return pt.sign_of(self.elements[0]) == 0


@lru_cache(maxsize=512)
def _chain_from_coeffs(f0: tuple[int, ...]) -> SturmChain:
    """Chain of the nonzero polynomial with primitive integer coefficients
    ``f0``: the one chain cache, which callers that hold integers already
    use directly."""
    elements = [f0]
    if len(f0) > 1:
        f1 = _int_primitive(_trim(_int_derivative(f0)))
        elements.append(f1)
        while len(elements[-1]) > 1:
            nxt = _signed_prem(elements[-2], elements[-1])
            if not nxt:
                break
            elements.append(_int_primitive(tuple(-v for v in nxt)))
    return SturmChain(elements=tuple(elements))


def sturm_chain(p: RatPoly) -> SturmChain:
    if p.is_zero:
        raise ParameterError("zero polynomial has no Sturm chain")
    return _chain_from_coeffs(to_primitive_int(p))


# -- public counting API ---------------------------------------------------------


def is_real_rooted(p: RatPoly) -> bool:
    """True when every complex root of p is real (degree-0 is vacuous)."""
    if p.is_zero:
        raise ParameterError("real-rootedness of the zero polynomial is undefined")
    if p.degree == 0:
        return True
    chain = sturm_chain(p)
    return chain.count_all() == p.degree - (len(chain.elements[-1]) - 1)


def _count_in(chain: SturmChain, lo, hi, open_interval: bool) -> int:
    n = chain.count_half_open(lo, hi)
    if open_interval:
        if not isinstance(hi, _Inf) and chain.is_root(hi):
            n -= 1
    else:
        if not isinstance(lo, _Inf) and chain.is_root(lo):
            n += 1
    return n


def count_roots_in(p: RatPoly, lo, hi, open_interval: bool = False) -> int:
    """Distinct real roots of p inside the interval from lo to hi.

    Endpoints may be rationals or QuadScalar values.  With
    ``open_interval=True`` the interval is (lo, hi), else [lo, hi];
    membership of roots at the endpoints is decided exactly.
    """
    return _count_in(sturm_chain(p), lo, hi, open_interval)


def _gcd_tower(p: RatPoly) -> list[SturmChain]:
    """Chains of g0 = p, g1 = gcd(g0, g0'), g2 = gcd(g1, g1'), ... down to
    the last nonconstant element; each g(k+1) is the last element of the
    chain of g(k), up to a constant factor."""
    tower = []
    chain = sturm_chain(p)
    while len(chain.elements[0]) > 1:
        tower.append(chain)
        chain = _chain_from_coeffs(chain.elements[-1])
    return tower


def count_roots_in_mult(p: RatPoly, lo, hi, open_interval: bool = False) -> int:
    """Real roots in the interval counted with multiplicity."""
    return sum(_count_in(chain, lo, hi, open_interval) for chain in _gcd_tower(p))


def root_multiplicity_at(p: RatPoly, point) -> int:
    """Multiplicity of ``point`` as a root of p (0 if not a root)."""
    pt = _Point(point)
    mult = 0
    for chain in _gcd_tower(p):
        if not chain.is_root(pt):
            break
        mult += 1
    return mult


def squarefree_decomposition(p: RatPoly) -> list[tuple[RatPoly, int]]:
    """Pairs (factor, multiplicity) with the factors monic, square-free,
    pairwise coprime, and p = lead * prod(factor**multiplicity).

    With g(k) the gcd tower and h(k) = g(k-1) / g(k), the product of the
    factors of multiplicity at least k, the factor of multiplicity k is
    h(k) / h(k+1).
    """
    if p.is_zero:
        raise ParameterError("zero polynomial has no square-free decomposition")
    gs = [RatPoly.from_coeffs(chain.elements[0]) for chain in _gcd_tower(p)]
    gs.append(RatPoly.one())
    hs = [a.div_exact(b) for a, b in zip(gs, gs[1:])]
    hs.append(RatPoly.one())
    return [
        (a.div_exact(b).monic(), k)
        for k, (a, b) in enumerate(zip(hs, hs[1:]), start=1)
        if a.degree > b.degree
    ]


def max_root_bracket(p: RatPoly, width=Fraction(1, 1024)) -> tuple[Fraction, Fraction]:
    """Rational (lo, hi] with hi - lo <= width containing the largest real root.

    With B the Cauchy bound, (lo, hi] is the cell of the dyadic grid on
    (-B-1, B] at the first level whose cells have width <= ``width`` that
    holds the largest real root: the interval that bisection of (-B-1, B]
    by Sturm counts ends in.  Exactly one cell holds that root, so proving
    that a candidate cell holds it proves the candidate is that interval.
    The work runs on the primitive integer coefficients of p
    (``_int_max_root_bracket``): B comes from them, a guess at the root
    (``_top_root_guess``) picks the candidate, and integer arithmetic proves
    it (``_holds_top_root``), with the Descartes shift at a point of the
    2**-64 grid inside the cell when the grid's denominator is longer than
    2**64.  Only when the proof fails (a top root of even multiplicity, no
    real root, a float overflow or a poor guess) does the Sturm bisection
    run, so no float reaches the result.
    """
    width = Fraction(width)
    if width <= 0:
        raise ParameterError("bracket width must be positive")
    if p.is_zero or p.degree == 0:
        raise ParameterError("bracket needs a nonconstant polynomial")
    return _int_max_root_bracket(_positive_int(p), width)


def _int_max_root_bracket(
    coeffs: tuple[int, ...], width: Fraction
) -> tuple[Fraction, Fraction]:
    """``max_root_bracket`` of the nonconstant polynomial with primitive
    integer coefficients ``coeffs`` and a positive leading one.

    The proof tries the shift at x0 = ceil(guess * 2**64) / 2**64 + 2**-64
    (``_holds_top_root``'s ``short``) only when the grid's denominator is
    longer than 2**64, so that it always runs over the shorter denominator.
    """
    bound = _int_cauchy_bound(coeffs)
    # In units of 1/scale the grid starts at start = -B-1 and its cells have
    # width span; levels is the fewest halvings of 2B+1 down to width.
    num, den = bound.numerator, bound.denominator
    span = 2 * num + den
    levels = (-(-span * width.denominator // (den * width.numerator)) - 1).bit_length()
    scale = den << levels
    start = -(num + den) << levels
    homog64 = _homogenised(coeffs, 1 << _GUESS_BITS)
    guess = _top_root_guess(coeffs, homog64)
    if guess is not None:
        gnum, gden = guess
        # the j with start + j*span < guess*scale <= start + (j+1)*span
        j = -((start * gden - gnum * scale) // (span * gden)) - 1
        lo = start + min(max(j, 0), (1 << levels) - 1) * span
        hi = lo + span
        short = None
        if scale.bit_length() > _GUESS_BITS + 1:
            x0 = -((-gnum << _GUESS_BITS) // gden) + 1
            if lo << _GUESS_BITS < x0 * scale <= hi << _GUESS_BITS:
                short = x0
        if _holds_top_root(coeffs, lo, hi, scale, short, homog64=homog64):
            return Fraction(lo, scale), Fraction(hi, scale)
    return _bisect_max_root(coeffs, bound, width)


_GUESS_STEPS = 100
_GUESS_BITS = 64


def _positive_int(p: RatPoly) -> tuple[int, ...]:
    """Primitive integer coefficients of a nonzero multiple of p with a
    positive leading coefficient; p and its nonzero multiples share roots."""
    coeffs = to_primitive_int(p)
    return tuple(-c for c in coeffs) if coeffs[-1] < 0 else coeffs


def _homogenised(coeffs: tuple[int, ...], scale: int) -> list[int]:
    """Coefficients of P(y) = scale**n * p(y / scale), ascending."""
    out = []
    power = 1
    for c in reversed(coeffs):
        out.append(c * power)
        power *= scale
    out.reverse()
    return out


def _top_root_guess(
    coeffs: tuple[int, ...], homog64: list[int] | None = None
) -> tuple[int, int] | None:
    """Numerator and denominator of a guess at the largest root of a
    polynomial with positive leading coefficient, or None when floats
    overflow.  ``homog64`` is ``_homogenised(coeffs, 2**64)`` when the
    caller has built it already.

    Laguerre's method starts at the Laguerre-Samuelson bound
    mean + sqrt((n-1) * variance) of the roots, at or above the largest root
    of a real-rooted polynomial, and from there decreases monotonically to
    that root in a few steps (Newton's method would take about n steps
    before its quadratic phase).  Iterates are multiples of 2**-64, and p,
    p' and p'' are evaluated exactly there, because float evaluation in the
    monomial basis drowns in cancellation near a root once the degree is in
    the hundreds; only the step is computed in floats.  Once the steps
    fall below 2**-64, or an iterate rounds past the root, the guess is one
    exact Newton step from the last iterate.
    """
    n = len(coeffs) - 1
    try:
        a1 = coeffs[n - 1] / coeffs[n]
        a2 = coeffs[n - 2] / coeffs[n] if n >= 2 else 0.0
        mean = -a1 / n
        variance = (a1 * a1 - 2 * a2) / n - mean * mean
        top = mean + math.sqrt(max(variance, 0.0) * (n - 1))
        num = round(math.ldexp(top, _GUESS_BITS))
    except (OverflowError, ValueError):
        return None
    den = 1 << _GUESS_BITS
    homog = _homogenised(coeffs, den) if homog64 is None else homog64
    for _ in range(_GUESS_STEPS):
        # P(num), P'(num) and P''(num)/2 for P(y) = den**n * p(y / den)
        v0 = v1 = v2 = 0
        for c in reversed(homog):
            v2 = v2 * num + v1
            v1 = v1 * num + v0
            v0 = v0 * num + c
        if v1 <= 0:
            break
        newton = num * v1 - v0, v1 * den
        if v0 <= 0:
            return newton
        try:
            g = v1 / v0
            h = g * g - 2 * v2 / v0
        except OverflowError:
            return newton
        root_term = g + math.sqrt(max((n - 1) * (n * h - g * g), 0.0))
        if not root_term > 0:
            break
        step = n / root_term
        if not 1 <= step < math.inf:
            return newton
        num -= round(step)
    return num, den


def _holds_top_root(
    coeffs: tuple[int, ...],
    lo: int,
    hi: int,
    scale: int,
    short: int | None = None,
    *,
    homog64: list[int] | None = None,
) -> bool:
    """True when the largest real root of the polynomial (positive leading
    coefficient) lies in (lo/scale, hi/scale]; False when this is not proved.

    With P(y) = scale**n * p(y/scale), it checks P(lo) < 0 and that the
    Taylor shift P(hi + s) has no negative coefficient.  By Descartes' rule
    of signs the shift has no positive root, so p has no real root above
    hi/scale, and p(lo/scale) < 0 <= p(hi/scale) puts a root in the cell.

    ``short`` is a numerator x0 with lo/scale < x0/2**64 <= hi/scale.  The
    shift then runs at x0 first, over the 2**64 denominator: no root above
    x0/2**64 is none above hi/scale either, and p(x0/2**64) >= 0 puts the
    root in (lo/scale, x0/2**64].  Only when that shift has a negative
    coefficient does the shift at hi run.

    ``homog64`` is ``_homogenised(coeffs, 2**64)``, which the library's
    callers pass on from the guess, so that neither the x0 route nor a
    scale of 2**64 builds it again.
    """
    if homog64 is None:
        homog64 = _homogenised(coeffs, 1 << _GUESS_BITS)
    homog = homog64 if scale == 1 << _GUESS_BITS else _homogenised(coeffs, scale)
    at_lo = 0
    for c in reversed(homog):
        at_lo = at_lo * lo + c
    if at_lo >= 0:
        return False
    if short is not None and _no_root_above(homog64, short):
        return True
    return _no_root_above(homog, hi)


def _no_root_above(homog: list[int], x: int) -> bool:
    """True when the Taylor shift of the homogenised polynomial P at x has
    no negative coefficient, so that P has no real root above x (Descartes'
    rule of signs, with the positive leading coefficient)."""
    return all(c >= 0 for c in _taylor_shift(homog, x))


def _proved_top_cell(coeffs: tuple[int, ...]) -> tuple[int, int] | None:
    """Numerators (lo, hi) of a cell (lo, hi] / 2**64 of width 2**-63
    proved to hold the largest real root of a polynomial with positive
    leading coefficient, or None when no proof is found.

    The guess, rounded up to x on the 2**-64 grid, only picks the cell
    (x - 1, x + 1]; ``_holds_top_root`` proves it on integers, over the
    vector the guess homogenised.
    """
    homog64 = _homogenised(coeffs, 1 << _GUESS_BITS)
    guess = _top_root_guess(coeffs, homog64)
    if guess is None:
        return None
    num, den = guess
    x = -((-num << _GUESS_BITS) // den)
    if _holds_top_root(coeffs, x - 1, x + 1, 1 << _GUESS_BITS, homog64=homog64):
        return x - 1, x + 1
    return None


def _top_cell(
    chain: SturmChain, lo: Fraction, hi: Fraction, settled
) -> tuple[Fraction, Fraction] | None:
    """Bisect (lo, hi] toward the largest distinct real root of the chain's
    polynomial until ``settled(lo, hi, n)`` holds, n being the number of distinct
    roots in (lo, hi]; None when (lo, hi] holds no root.

    The sign variations at lo and hi are kept between steps, so each step
    evaluates the chain at the midpoint only.
    """
    at_lo, at_hi = chain.variations_right(lo), chain.variations_right(hi)
    if at_lo == at_hi:
        return None
    while not settled(lo, hi, at_lo - at_hi):
        mid = (lo + hi) / 2
        at_mid = chain.variations_right(mid)
        if at_mid > at_hi:
            lo, at_lo = mid, at_mid
        else:
            hi, at_hi = mid, at_mid
    return lo, hi


def _bisect_max_root(
    coeffs: tuple[int, ...], bound: Fraction, width: Fraction
) -> tuple[Fraction, Fraction]:
    """The same bracket by bisection of (-bound-1, bound] with Sturm counts,
    for primitive integer coefficients ``coeffs``."""
    cell = _top_cell(
        _chain_from_coeffs(coeffs), -bound - 1, bound, lambda lo, hi, n: hi - lo <= width
    )
    if cell is None:
        raise ParameterError("polynomial has no real roots")
    return cell


def isolate_real_roots(p: RatPoly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint half-open rational intervals (lo, hi], ascending, each
    containing exactly one distinct real root of p."""
    chain = sturm_chain(p)
    bound = cauchy_root_bound(p) if p.degree > 0 else Fraction(1)
    out: list[tuple[Fraction, Fraction]] = []

    def descend(lo: Fraction, hi: Fraction, count: int) -> None:
        if count == 0:
            return
        if count == 1:
            out.append((lo, hi))
            return
        mid = (lo + hi) / 2
        left = chain.count_half_open(lo, mid)
        descend(lo, mid, left)
        descend(mid, hi, count - left)

    lo0, hi0 = -bound - 1, bound
    descend(lo0, hi0, chain.count_half_open(lo0, hi0))
    return out


def _root_positions_with_mult(
    p: RatPoly, intervals: list[tuple[Fraction, Fraction]]
) -> list[int]:
    """Roots of p as indices into isolating intervals, repeated by multiplicity."""
    positions: list[int] = []
    # a root of g(k+1) is a root of g(k), so each level checks only the
    # intervals where the level before found one
    held = range(len(intervals))
    for chain in _gcd_tower(p):
        held = [idx for idx in held if chain.count_half_open(*intervals[idx])]
        positions.extend(held)
    positions.sort()
    return positions


def interlaces(g: RatPoly, f: RatPoly) -> bool:
    """True when the root multisets weakly alternate with f on the outside.

    Requires deg g = deg f - 1 and both real-rooted.  Shared roots are fine:
    the alternation inequalities are weak, so a common root never breaks the
    pattern by itself.
    """
    if f.is_zero or g.is_zero:
        raise ParameterError("interlacing needs nonzero polynomials")
    if g.degree != f.degree - 1:
        raise ParameterError("need deg g = deg f - 1")
    if not (is_real_rooted(f) and is_real_rooted(g)):
        raise ParameterError("interlacing needs real-rooted inputs")
    if g.degree == 0:
        return True
    intervals = isolate_real_roots(f * g)
    pos_f = _root_positions_with_mult(f, intervals)
    pos_g = _root_positions_with_mult(g, intervals)
    for j, b in enumerate(pos_g):
        if not (pos_f[j] <= b <= pos_f[j + 1]):
            return False
    return True


def compare_max_roots(p: RatPoly, q: RatPoly) -> int:
    """-1, 0, or +1 comparing the largest real roots of p and q, exactly.

    Proved cells decide first (``_proved_top_cell``): when p's and q's are
    disjoint, or p has one and q is a multiple of p, no chain is built.
    When only one input has a proved cell (lo, hi], one chain of the other
    decides: a distinct root above hi makes the other's largest root the
    larger, and no root in (lo, inf) (no real root at all included) makes
    it the smaller.  Otherwise (no proof for either, as for top roots of
    even multiplicity or no real roots, overlapping cells, or a root of the
    other inside the one cell) the chain of p*q is bisected down to its one
    largest distinct root, and the sign is read off which of p and q have a
    root in that cell.  Either way the verdict rests on integer arithmetic.
    """
    for poly in (p, q):
        if poly.is_zero or poly.degree == 0:
            raise ParameterError("max-root comparison needs nonconstant inputs")
    p_int = _positive_int(p)
    p_cell = _proved_top_cell(p_int)
    q_int = _positive_int(q)
    q_cell = p_cell if q_int == p_int else _proved_top_cell(q_int)
    return _compare_int(p_int, q_int, p_cell, q_cell)


def _compare_int(
    p: tuple[int, ...],
    q: tuple[int, ...],
    p_cell: tuple[int, int] | None,
    q_cell: tuple[int, int] | None,
) -> int:
    """``compare_max_roots`` of two nonconstant polynomials with primitive
    integer coefficients and positive leading ones, given what
    ``_proved_top_cell`` returned for each."""
    if p_cell is not None and q_cell is not None:
        if p == q:
            return 0
        if p_cell[1] <= q_cell[0]:
            return -1
        if q_cell[1] <= p_cell[0]:
            return 1
    elif p_cell is not None:
        side = _one_sided(p_cell, q)
        if side:
            return side
    elif q_cell is not None:
        side = _one_sided(q_cell, p)
        if side:
            return -side
    pq = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            pq[i + j] += a * b
    pq = _int_primitive(tuple(pq))
    bound = _int_cauchy_bound(pq)
    # bisect (lo, hi] down to the one distinct root of p*q that is largest
    cell = _top_cell(_chain_from_coeffs(pq), -bound - 1, bound, lambda lo, hi, n: n == 1)
    if cell is None:
        raise ParameterError("max-root comparison needs real roots")
    lo, hi = cell
    p_has = _chain_from_coeffs(p).count_half_open(lo, hi) >= 1
    q_has = _chain_from_coeffs(q).count_half_open(lo, hi) >= 1
    if p_has and q_has:
        return 0
    return 1 if p_has else -1


def _one_sided(cell: tuple[int, int], other: tuple[int, ...]) -> int:
    """Sign of (largest root in the proved cell (lo, hi] / 2**64) minus
    (largest real root of ``other``), from one chain of ``other``: -1 when
    it has a distinct root above hi, +1 when it has none above lo (or no
    real root), 0 when its largest root lies in the cell and the chain
    cannot tell."""
    chain = _chain_from_coeffs(other)
    at_inf = chain.variations_right(POS_INF)
    if chain.variations_right(Fraction(cell[1], 1 << _GUESS_BITS)) > at_inf:
        return -1
    if chain.variations_right(Fraction(cell[0], 1 << _GUESS_BITS)) == at_inf:
        return 1
    return 0
