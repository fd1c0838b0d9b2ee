"""Exact root counting, bracketing, and interlacing."""
from __future__ import annotations

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ffc.sturm
from ffc import (
    ParameterError,
    QuadScalar,
    RatPoly,
    cauchy_root_bound,
    compare_max_roots,
    count_roots_in,
    count_roots_in_mult,
    interlaces,
    is_real_rooted,
    isolate_real_roots,
    max_root_bracket,
    root_multiplicity_at,
)
from support import fractions_st, max_root_bracket_oracle, real_rooted_st


def poly(*descending):
    return RatPoly.from_coeffs([Fraction(c) for c in reversed(descending)])


class TestCountRoots:
    def test_open_interval_containing_both_roots(self):
        assert count_roots_in(poly(1, 0, -2), Fraction(-2), Fraction(2), open_interval=True) == 2

    def test_open_interval_with_roots_at_endpoints(self):
        root2 = QuadScalar.sqrt_int(2)
        assert count_roots_in(poly(1, 0, -2), -root2, root2, open_interval=True) == 0

    def test_closed_interval_with_roots_at_endpoints(self):
        root2 = QuadScalar.sqrt_int(2)
        assert count_roots_in(poly(1, 0, -2), -root2, root2) == 2

    def test_multiplicity_weighted_count(self):
        p = RatPoly.from_roots([1, 1, -1, -1, -1])
        assert count_roots_in_mult(p, Fraction(-2), Fraction(2)) == 5
        assert count_roots_in_mult(p, Fraction(-1), Fraction(2), open_interval=True) == 2
        assert count_roots_in(p, Fraction(-2), Fraction(2)) == 2

    @given(st.lists(fractions_st(), min_size=1, max_size=5))
    def test_every_root_is_counted(self, roots):
        p = RatPoly.from_roots(roots)
        lo = min(roots) - 1
        hi = max(roots) + 1
        assert count_roots_in_mult(p, lo, hi) == p.degree
        assert count_roots_in(p, lo, hi) == len(set(roots))


class TestMultiplicity:
    def test_known_multiplicities(self):
        p = RatPoly.from_roots([1, 1, -1, -1, -1])
        assert root_multiplicity_at(p, Fraction(1)) == 2
        assert root_multiplicity_at(p, Fraction(-1)) == 3
        assert root_multiplicity_at(p, Fraction(0)) == 0


class TestMaxRootBracket:
    def test_simple_quadratic(self):
        lo, hi = max_root_bracket(poly(1, 0, -1), Fraction(1, 100))
        assert lo < 1 <= hi
        assert hi - lo <= Fraction(1, 100)

    def test_shifted_roots(self):
        lo, hi = max_root_bracket(RatPoly.from_roots([3, -5]), Fraction(1, 100))
        assert lo < 3 <= hi

    def test_repeated_roots(self):
        p = RatPoly.from_roots([1, 1, -1, -1, -1])
        lo, hi = max_root_bracket(p, Fraction(1, 1024))
        assert lo < 1 <= hi

    @given(st.lists(fractions_st(), min_size=1, max_size=5))
    def test_bracket_contains_exactly_the_top_root(self, roots):
        p = RatPoly.from_roots(roots)
        lo, hi = max_root_bracket(p)
        assert count_roots_in(p, lo, hi) >= 1
        beyond = hi + cauchy_root_bound(p) + 1
        assert count_roots_in(p, hi, beyond, open_interval=True) == 0
        assert lo < max(roots) <= hi


WIDTHS = st.sampled_from(
    [
        Fraction(1, 1024),
        Fraction(1, 3),
        Fraction(2),
        Fraction(1, 10**9),
        Fraction(1e-12),
    ]
)


def positive_st():
    return fractions_st().map(lambda c: c * c + Fraction(1, 8))


def quadratic(centre, c):
    """x**2 - 2 centre x + centre**2 + c: roots centre +- i sqrt(c)."""
    return RatPoly.from_coeffs([centre * centre + c, -2 * centre, 1])


class TestBracketAgainstBisection:
    """The certified cell equals the Sturm bisection's bracket bit for bit."""

    @given(
        st.lists(
            st.sampled_from([-2, -1, 0, Fraction(1, 3), 1, 3]), min_size=1, max_size=7
        ),
        WIDTHS,
    )
    def test_repeated_roots(self, roots, width):
        p = RatPoly.from_roots(roots)
        assert max_root_bracket(p, width) == max_root_bracket_oracle(p, width)

    @given(real_rooted_st(max_degree=4), st.integers(min_value=1, max_value=2), WIDTHS)
    def test_top_root_of_even_multiplicity_takes_the_fallback(self, p, half, width):
        # p keeps its sign across the top root, which lies more than a cell
        # width above the other roots, so no cell passes the sign check
        top = max_root_bracket_oracle(p, Fraction(1, 2**40))[1] + 3
        p = p * RatPoly.from_roots([top] * (2 * half))
        with mock.patch.object(
            ffc.sturm, "_bisect_max_root", wraps=ffc.sturm._bisect_max_root
        ) as bisect:
            assert max_root_bracket(p, width) == max_root_bracket_oracle(p, width)
        assert bisect.called

    @given(
        real_rooted_st(max_degree=4),
        st.lists(positive_st(), min_size=1, max_size=2),
        fractions_st(),
        WIDTHS,
    )
    def test_complex_roots(self, p, offsets, centre, width):
        for c in offsets:
            p = p * quadratic(centre, c)
        assert max_root_bracket(p, width) == max_root_bracket_oracle(p, width)

    @pytest.mark.parametrize(
        "roots, centre, c", [([2, 5, 6], 0, 33), ([-5, -1, 4, 6], 1, 43)]
    )
    def test_guess_at_a_lower_root_is_rejected(self, roots, centre, c):
        # the guess converges to the lowest root, where p changes sign too;
        # only the Descartes count at the cell's right end rules it out
        p = RatPoly.from_roots(roots) * quadratic(centre, c)
        assert max_root_bracket(p) == max_root_bracket_oracle(p)

    @given(
        st.lists(fractions_st(), min_size=1, max_size=3),
        st.integers(min_value=2, max_value=30).filter(lambda c: math.isqrt(c) ** 2 < c),
        st.sampled_from([Fraction(1, 2**80), Fraction(1, 2**100)]),
    )
    def test_widths_below_the_guess_grid(self, roots, c, width):
        # sqrt(c) is irrational, so it is never a cell end; the last exact
        # Newton step refines the guess past its 2**-64 grid
        p = RatPoly.from_roots([-abs(r) for r in roots])
        p = p * RatPoly.from_coeffs([-c, 0, 1])
        with mock.patch.object(
            ffc.sturm, "_bisect_max_root", wraps=ffc.sturm._bisect_max_root
        ) as bisect:
            assert max_root_bracket(p, width) == max_root_bracket_oracle(p, width)
        assert not bisect.called

    @given(
        st.lists(fractions_st(), min_size=1, max_size=5),
        st.sampled_from([10**6, 10**12, Fraction(1, 10**6)]),
        WIDTHS,
    )
    def test_large_cauchy_bounds(self, roots, factor, width):
        p = RatPoly.from_roots([r * factor for r in roots])
        assert max_root_bracket(p, width) == max_root_bracket_oracle(p, width)

    @given(st.lists(fractions_st(), min_size=1, max_size=6, unique=True), WIDTHS)
    def test_negative_lead(self, roots, width):
        p = RatPoly.from_roots(roots).scale(Fraction(-5, 3))
        assert max_root_bracket(p, width) == max_root_bracket_oracle(p, width)

    @given(st.lists(positive_st(), min_size=1, max_size=3), fractions_st(), WIDTHS)
    def test_no_real_root_raises_on_both_paths(self, offsets, centre, width):
        p = RatPoly.one()
        for c in offsets:
            p = p * quadratic(centre, c)
        with pytest.raises(ParameterError):
            max_root_bracket_oracle(p, width)
        with pytest.raises(ParameterError):
            max_root_bracket(p, width)


class TestRealRootedness:
    def test_examples(self):
        assert is_real_rooted(poly(1, 0, -1))
        assert not is_real_rooted(poly(1, 0, 1))
        assert is_real_rooted(RatPoly.from_roots([1, 1, 1]))

    @given(real_rooted_st())
    def test_products_of_linear_factors(self, p):
        assert is_real_rooted(p)


class TestInterlacing:
    def test_examples(self):
        assert interlaces(poly(1, 0), poly(1, 0, -1))
        assert not interlaces(poly(1, -5), poly(1, 0, -1))

    @given(real_rooted_st(min_degree=2))
    def test_derivative_interlaces(self, p):
        assert interlaces(p.derivative(), p)


class TestCompareMaxRoots:
    def test_orders_by_largest_root(self):
        assert compare_max_roots(poly(1, 0, -2), poly(1, 0, -3)) == -1
        assert compare_max_roots(poly(1, 0, -3), poly(1, 0, -2)) == 1

    def test_multiplicity_does_not_matter(self):
        assert compare_max_roots(RatPoly.from_roots([1, 1, 1]), poly(1, -1)) == 0

    @given(real_rooted_st(), real_rooted_st())
    def test_antisymmetry(self, p, q):
        assert compare_max_roots(p, q) == -compare_max_roots(q, p)


class TestIsolation:
    def test_brackets_separate_distinct_roots(self):
        p = RatPoly.from_roots([0, 1, 1, Fraction(5, 2)])
        brackets = isolate_real_roots(p)
        assert len(brackets) == 3
        for lo, hi in brackets:
            assert count_roots_in(p, lo, hi) == 1
