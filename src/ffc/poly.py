"""Exact univariate polynomials over the rationals.

Coefficients are ``fractions.Fraction`` values stored in ascending order of
degree with no trailing zeros, so equal polynomials compare equal and hash
alike.  Everything here is exact; no floating point enters any computation.
The zero polynomial has degree -1 by convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import ContractError, ParameterError


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int) or isinstance(v, str):
        return Fraction(v)
    raise ParameterError(f"exact coefficient expected, got {type(v).__name__}")


def _trim(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    last = len(coeffs)
    while last > 0 and coeffs[last - 1] == 0:
        last -= 1
    return tuple(coeffs[:last])


@dataclass(frozen=True)
class RatPoly:
    """Immutable rational-coefficient polynomial, ascending coefficients."""

    coeffs: tuple[Fraction, ...]

    # -- construction ------------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs: Iterable) -> "RatPoly":
        return cls(_trim([_as_fraction(c) for c in coeffs]))

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls(())

    @classmethod
    def one(cls) -> "RatPoly":
        return cls((Fraction(1),))

    @classmethod
    def x_power(cls, n: int) -> "RatPoly":
        if n < 0:
            raise ParameterError("x_power needs n >= 0")
        return cls(tuple(Fraction(0) for _ in range(n)) + (Fraction(1),))

    @classmethod
    def from_roots(cls, roots: Iterable) -> "RatPoly":
        """Monic polynomial with the given rational roots (with repetition)."""
        # multiply the integer factors (den*x - num), divide by prod(den) once
        c, scale = [1], 1
        for r in roots:
            r = _as_fraction(r)
            c = [
                r.denominator * a - r.numerator * b
                for a, b in zip([0] + c, c + [0])
            ]
            scale *= r.denominator
        return cls(tuple(Fraction(v, scale) for v in c))

    # -- basic queries ------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> Fraction:
        if self.is_zero:
            raise ParameterError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        """Coefficient of x**k (zero beyond the stored length)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "RatPoly") -> "RatPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(_trim(out))

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(other))
        if not isinstance(other, RatPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RatPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return RatPoly(_trim(out))

    def __rmul__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(other))
        return NotImplemented

    def scale(self, c: Fraction) -> "RatPoly":
        c = _as_fraction(c)
        if c == 0:
            return RatPoly.zero()
        return RatPoly(tuple(a * c for a in self.coeffs))

    def monic(self) -> "RatPoly":
        if self.is_zero:
            raise ParameterError("cannot normalize the zero polynomial")
        return self.scale(1 / self.lead)

    def __divmod__(self, other: "RatPoly") -> tuple["RatPoly", "RatPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        den = other.coeffs
        dd = len(den) - 1
        inv_lead = 1 / den[-1]
        quo = [Fraction(0)] * max(0, len(rem) - dd)
        for top in range(len(rem) - 1, dd - 1, -1):
            c = rem[top]
            if c == 0:
                continue
            f = c * inv_lead
            quo[top - dd] = f
            rem[top] = Fraction(0)
            for j in range(dd):
                rem[top - dd + j] -= f * den[j]
        return RatPoly(_trim(quo)), RatPoly(_trim(rem))

    def div_exact(self, other: "RatPoly") -> "RatPoly":
        """Quotient self/other, raising ContractError on nonzero remainder."""
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ContractError("expected exact polynomial division")
        return q

    # -- calculus and substitutions -----------------------------------------

    def derivative(self) -> "RatPoly":
        if len(self.coeffs) <= 1:
            return RatPoly.zero()
        return RatPoly(
            tuple(self.coeffs[k] * k for k in range(1, len(self.coeffs)))
        )

    def substitute_square(self) -> "RatPoly":
        """Return s with s(x) = p(x**2): coefficients interleaved with zeros."""
        if self.is_zero:
            return self
        out = [Fraction(0)] * (2 * len(self.coeffs) - 1)
        for k, c in enumerate(self.coeffs):
            out[2 * k] = c
        return RatPoly(_trim(out))

    def __call__(self, x):
        """Horner evaluation; works for Fraction, int, and quadratic scalars."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- presentation --------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                xs = "x" if k == 1 else f"x^{k}"
                body = xs if mag == 1 else f"{mag}*{xs}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


# -- root bounds and integer form ---------------------------------------------


def cauchy_root_bound(p: RatPoly) -> Fraction:
    """Rational B with every real root of p in [-B, B]."""
    if p.is_zero or p.degree == 0:
        raise ParameterError("root bound needs a nonconstant polynomial")
    return _int_cauchy_bound(to_primitive_int(p))


def _int_cauchy_bound(c: tuple[int, ...]) -> Fraction:
    """1 + max |c_i| / |c_n| over the lower coefficients of a nonconstant
    integer polynomial: the Cauchy bound, which no nonzero multiple changes."""
    return Fraction(max(abs(v) for v in c[:-1]), abs(c[-1])) + 1


def to_primitive_int(p: RatPoly) -> tuple[int, ...]:
    """Integer-coefficient polynomial equal to a positive multiple of p.

    Clears denominators and divides by the content; the positive scaling
    preserves every sign, which is all root counting needs.
    """
    if p.is_zero:
        return ()
    den = lcm(*(c.denominator for c in p.coeffs))
    return _int_primitive(tuple(c.numerator * (den // c.denominator) for c in p.coeffs))


def _int_primitive(c: tuple[int, ...]) -> tuple[int, ...]:
    """c divided by its content, the gcd of its entries."""
    content = gcd(*c)
    return tuple(v // content for v in c) if content > 1 else c
