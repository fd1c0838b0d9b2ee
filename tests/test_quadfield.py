"""Exact arithmetic in quadratic extensions of the rationals."""
from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ffc import BudgetError, QuadScalar, as_quad, ramanujan_bound
from ffc.quadfield import MAX_RADICAND, quad_sign


class TestNormalization:
    def test_radicand_zero_collapses(self):
        v = QuadScalar(Fraction(3, 2), Fraction(7), 0)
        assert (v.a, v.b, v.r) == (Fraction(3, 2), 0, 0)

    def test_radicand_one_collapses(self):
        v = QuadScalar(1, 3, 1)
        assert (v.a, v.b, v.r) == (4, 0, 0)

    def test_perfect_square_collapses(self):
        assert QuadScalar(0, 1, 4) == as_quad(2)
        assert QuadScalar(0, 1, 144) == as_quad(12)

    def test_square_factor_is_extracted(self):
        # sqrt(8) and 2*sqrt(2) must be the same element
        assert QuadScalar(0, 1, 8) == QuadScalar(0, 2, 2)

    def test_radicands_too_large_to_normalize_are_refused(self):
        for r in (MAX_RADICAND, 10**21):
            with pytest.raises(BudgetError):
                QuadScalar(0, 1, r)
        with pytest.raises(BudgetError):
            ramanujan_bound(MAX_RADICAND + 1)
        assert QuadScalar(0, 1, 2**20 * 3) == QuadScalar(0, 2**10, 3)
        # a zero coefficient drops the radicand without normalizing it
        assert QuadScalar(1, 0, 10**21) == as_quad(1)

    def test_irrational_value_is_not_rational(self):
        v = QuadScalar(0, 1, 2)
        assert (v.a, v.b, v.r) == (0, 1, 2)
        assert v != Fraction(99, 70)


class TestArithmetic:
    def test_conjugate_product_is_rational(self):
        one_plus = as_quad(1) + QuadScalar(0, 1, 2)
        one_minus = as_quad(1) - QuadScalar(0, 1, 2)
        assert one_plus * one_minus == as_quad(-1)

    def test_square_of_scaled_root(self):
        v = QuadScalar(0, 2, 2)
        assert v * v == as_quad(8)

    @given(
        st.fractions(max_denominator=12),
        st.fractions(max_denominator=12),
        st.fractions(max_denominator=12),
        st.fractions(max_denominator=12),
    )
    def test_field_laws_in_a_fixed_extension(self, a, b, c, d):
        r = 5
        u = QuadScalar(a, b, r)
        v = QuadScalar(c, d, r)
        assert u + v == v + u
        assert u * v == v * u
        assert u * (v + v) == u * v + u * v
        assert (u - v) + v == u


class TestExactSign:
    def test_sign_against_tight_rational_bounds(self):
        # 239/169 and 99/70 sandwich sqrt(2)
        root2 = QuadScalar(0, 1, 2)
        assert (root2 - Fraction(239, 169)).sign() == 1
        assert (root2 - Fraction(99, 70)).sign() == -1

    def test_sign_of_zero(self):
        assert (QuadScalar(0, 1, 2) - QuadScalar(0, 1, 2)).sign() == 0

    def test_comparisons_mix_with_fractions(self):
        assert Fraction(1) < QuadScalar(0, 1, 2)
        assert QuadScalar(0, 1, 2) < Fraction(3, 2)
        assert QuadScalar(0, 1, 2) < QuadScalar(0, 2, 2)


def decimal_sign(a: Fraction, b: Fraction, r: int) -> int:
    """Sign of a + b*sqrt(r) at 60 digits: exact for these small inputs,
    which are either zero or more than 1e-7 away from it."""
    with localcontext() as ctx:
        ctx.prec = 60
        v = Decimal(a.numerator) / a.denominator + Decimal(b.numerator) / b.denominator * Decimal(r).sqrt()
    return (v > 0) - (v < 0)


# |x| < 100 with denominator at most 12, that is |x| <= 100 - 1/12
small_fractions = st.fractions(
    min_value=Fraction(-1199, 12), max_value=Fraction(1199, 12), max_denominator=12
)


class TestQuadSign:
    @given(
        small_fractions,
        small_fractions,
        st.sampled_from([0, 2, 3, 5, 6, 7]),
    )
    def test_agrees_with_high_precision_decimals(self, a, b, r):
        assert quad_sign(a, b, r) == decimal_sign(a, b, r)
        assert quad_sign(a.numerator * b.denominator, b.numerator * a.denominator, r) == (
            decimal_sign(a, b, r)
        )

    @given(
        st.fractions(max_denominator=12),
        st.fractions(max_denominator=12),
        st.sampled_from([0, 2, 3, 8, 12]),
    )
    def test_quad_scalar_sign_is_the_shared_rule(self, a, b, r):
        v = QuadScalar(a, b, r)
        assert v.sign() == quad_sign(v.a, v.b, v.r)


class TestCanonicalText:
    @pytest.mark.parametrize(
        "value,text",
        [
            (as_quad(0), "0"),
            (as_quad(Fraction(3, 2)), "3/2"),
            (QuadScalar(0, 1, 2), "sqrt(2)"),
            (QuadScalar(0, 2, 2), "2*sqrt(2)"),
            (QuadScalar(0, -1, 5), "-sqrt(5)"),
            (QuadScalar(Fraction(1, 2), 3, 2), "1/2+3*sqrt(2)"),
            (QuadScalar(Fraction(-1, 3), Fraction(-5, 7), 3), "-1/3-5/7*sqrt(3)"),
            (as_quad(-7), "-7"),
            (QuadScalar(2, 1, 7), "2+sqrt(7)"),
        ],
    )
    def test_str(self, value, text):
        assert str(value) == text
