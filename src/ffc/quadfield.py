"""Exact arithmetic in a single real quadratic extension of the rationals.

A QuadScalar is a value a + b*sqrt(r) with rational a, b and a square-free
nonnegative integer r.  Construction normalizes: square factors of r move
into b, and r collapses to 0 whenever the value is rational, so equal values
have equal field tuples.  Signs and comparisons are decided exactly by
comparing a**2 with b**2 * r, never through floating point.

Mixing two different irrational radicals in one operation is unsupported and
raises ParameterError; every consumer in this library works inside one
extension at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetError, ParameterError

# trial division runs to sqrt(r), about 10**6 steps at this limit
MAX_RADICAND = 1 << 40


def _squarefree_split(r: int) -> tuple[int, int]:
    """Return (s, r0) with r = s*s*r0 and r0 square-free.

    Raises BudgetError for r >= MAX_RADICAND rather than run a trial
    division that would not finish.
    """
    if r >= MAX_RADICAND:
        raise BudgetError(f"radicand {r} is too large to normalize (limit 2**40)")
    s, r0, f = 1, r, 2
    while f * f <= r0:
        while r0 % (f * f) == 0:
            r0 //= f * f
            s *= f
        f += 1
    return s, r0


def quad_sign(a, b, r: int) -> int:
    """Exact sign of a + b*sqrt(r) for rational (or integer) a, b and
    square-free r >= 0: compares a**2 with b**2 * r when the signs differ."""
    if b == 0 or r == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    lhs, rhs = a * a, b * b * r
    if lhs == rhs:
        return 0
    if a > 0:
        return 1 if lhs > rhs else -1
    return -1 if lhs > rhs else 1


def _coerce(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise ParameterError(f"rational value expected, got {type(v).__name__}")


@dataclass(frozen=True)
class QuadScalar:
    """Normalized a + b*sqrt(r) with exact comparisons."""

    a: Fraction
    b: Fraction
    r: int

    def __init__(self, a=0, b=0, r=0):
        a = _coerce(a)
        b = _coerce(b)
        if not isinstance(r, int) or r < 0:
            raise ParameterError("radicand must be a nonnegative integer")
        if r == 0:
            b = Fraction(0)
        elif b == 0:
            r = 0
        else:
            s, r0 = _squarefree_split(r)
            if r0 == 1:
                a, b, r = a + b * s, Fraction(0), 0
            else:
                b, r = b * s, r0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "r", r)

    def _join(self, other) -> tuple["QuadScalar", "QuadScalar", int]:
        if not isinstance(other, QuadScalar):
            other = QuadScalar(_coerce(other))
        if self.r and other.r and self.r != other.r:
            raise ParameterError(
                f"cannot mix sqrt({self.r}) with sqrt({other.r}) exactly"
            )
        return self, other, self.r or other.r

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        try:
            x, y, r = self._join(other)
        except ParameterError:
            raise
        except Exception:
            return NotImplemented
        return QuadScalar(x.a + y.a, x.b + y.b, r)

    __radd__ = __add__

    def __neg__(self):
        return QuadScalar(-self.a, -self.b, self.r)

    def __sub__(self, other):
        return self + (-(self._join(other)[1]))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        try:
            x, y, r = self._join(other)
        except ParameterError:
            raise
        except Exception:
            return NotImplemented
        return QuadScalar(x.a * y.a + x.b * y.b * r, x.a * y.b + x.b * y.a, r)

    __rmul__ = __mul__

    # -- exact ordering --------------------------------------------------------

    def sign(self) -> int:
        return quad_sign(self.a, self.b, self.r)

    def _cmp(self, other) -> int:
        return (self - other).sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, QuadScalar):
            return (self.a, self.b, self.r) == (other.a, other.b, other.r)
        try:
            other = _coerce(other)
        except ParameterError:
            return NotImplemented
        return self.b == 0 and self.a == other

    def __hash__(self):
        # rational-valued elements hash like their Fraction counterparts
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.r))

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.r)

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        mag = abs(self.b)
        surd = f"sqrt({self.r})" if mag == 1 else f"{mag}*sqrt({self.r})"
        if self.a == 0:
            return surd if self.b > 0 else f"-{surd}"
        op = "+" if self.b > 0 else "-"
        return f"{self.a}{op}{surd}"


def as_quad(v) -> QuadScalar:
    """Coerce an int, Fraction, or QuadScalar to QuadScalar."""
    if isinstance(v, QuadScalar):
        return v
    return QuadScalar(_coerce(v))
