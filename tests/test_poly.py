"""Exact polynomial arithmetic."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ffc import ContractError, RatPoly
from ffc.poly import _int_cauchy_bound, cauchy_root_bound, to_primitive_int
from support import (
    cauchy_root_bound_oracle,
    fractions_st,
    real_rooted_st,
    to_primitive_int_oracle,
)


def poly(*descending):
    return RatPoly.from_coeffs([Fraction(c) for c in reversed(descending)])


class TestConstruction:
    def test_leading_coefficient_is_nonzero(self):
        p = RatPoly.from_coeffs([1, 2, 0, 0])
        assert p.degree == 1
        assert p.lead == 2

    def test_zero_polynomial(self):
        z = RatPoly.zero()
        assert z.is_zero
        assert RatPoly.from_coeffs([0, 0]).is_zero

    def test_from_roots_is_monic_and_vanishes_at_roots(self):
        p = RatPoly.from_roots([Fraction(1, 2), -3])
        assert p.lead == 1
        assert p(Fraction(1, 2)) == 0
        assert p(Fraction(-3)) == 0
        assert p(Fraction(0)) != 0

    @given(st.lists(fractions_st(max_num=9, max_den=7), max_size=8))
    def test_from_roots_is_the_product_of_linear_factors(self, roots):
        product = RatPoly.one()
        for r in roots:
            product = product * RatPoly.from_coeffs([-r, 1])
        assert RatPoly.from_roots(roots) == product

    def test_x_power(self):
        assert RatPoly.x_power(3).coeffs == (0, 0, 0, 1)
        assert RatPoly.x_power(1).coeffs == (0, 1)
        assert RatPoly.one() == RatPoly.x_power(0)


class TestDerivative:
    def test_square(self):
        assert poly(1, -2, 1).derivative() == poly(2, -2)

    def test_constant(self):
        assert poly(5).derivative().is_zero

    def test_cubic(self):
        assert poly(1, 0, -1, 0).derivative() == poly(3, 0, -1)

    @given(real_rooted_st(), real_rooted_st())
    def test_product_rule(self, p, q):
        lhs = (p * q).derivative()
        assert lhs == p.derivative() * q + p * q.derivative()


class TestSubstituteSquare:
    def test_linear(self):
        assert poly(1, -1).substitute_square() == poly(1, 0, -1)

    def test_quadratic(self):
        assert poly(1, -3, 2).substitute_square() == poly(1, 0, -3, 0, 2)

    def test_zero(self):
        assert RatPoly.zero().substitute_square().is_zero


class TestArithmetic:
    @given(real_rooted_st(), real_rooted_st(), fractions_st())
    def test_ring_identities_at_a_point(self, p, q, x):
        assert (p + q)(x) == p(x) + q(x)
        assert (p * q)(x) == p(x) * q(x)
        assert (p - q)(x) == p(x) - q(x)

    @given(real_rooted_st(), real_rooted_st())
    def test_exact_division_inverts_multiplication(self, p, q):
        assert (p * q).div_exact(q) == p

    def test_division_with_remainder_is_rejected(self):
        with pytest.raises(ContractError):
            poly(1, 0, 1).div_exact(poly(1, -1))

    @given(real_rooted_st(), fractions_st())
    def test_scale(self, p, c):
        assert p.scale(c) == RatPoly.from_coeffs([c * a for a in p.coeffs])

    def test_monic_normalization(self):
        p = poly(2, 4, -6)
        assert p.monic() == poly(1, 2, -3)

    @given(st.lists(fractions_st(), min_size=1, max_size=6))
    def test_coeff_accessor_matches_tuple(self, coeffs):
        p = RatPoly.from_coeffs(coeffs)
        for i, c in enumerate(p.coeffs):
            assert p.coeff(i) == c
        assert p.coeff(p.degree + 5) == 0


class TestPrimitiveInt:
    """``to_primitive_int`` against the Fraction-multiplying loop it replaced."""

    @given(st.lists(fractions_st(max_num=10**6, max_den=10**4), max_size=9))
    def test_matches_the_fraction_loop(self, coeffs):
        p = RatPoly.from_coeffs(coeffs)
        ints = to_primitive_int(p)
        assert ints == to_primitive_int_oracle(p)
        if p.is_zero:
            assert ints == ()
            return
        assert all(type(v) is int for v in ints)
        assert math.gcd(*ints) == 1
        # one positive multiple t of p, so every sign is kept
        t = ints[-1] / p.lead
        assert t > 0
        assert [Fraction(v) for v in ints] == [t * c for c in p.coeffs]


class TestCauchyBound:
    """The bound read off primitive integer coefficients against the
    Fraction comparison it replaced."""

    @given(
        st.lists(fractions_st(max_num=10**6, max_den=10**4), min_size=1, max_size=9),
        fractions_st(max_num=10**6, max_den=10**4).filter(bool),
    )
    def test_integer_bound_is_exact(self, lower, lead):
        p = RatPoly.from_coeffs(lower + [lead])
        expected = cauchy_root_bound_oracle(p)
        assert cauchy_root_bound(p) == expected
        assert _int_cauchy_bound(to_primitive_int(p)) == expected
        assert _int_cauchy_bound(to_primitive_int(p.scale(-1))) == expected

    def test_pure_power(self):
        assert cauchy_root_bound(RatPoly.x_power(4)) == 1
