"""Cauchy transforms, root bounds, and matching polynomials."""
from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ffc.sturm
import ffc.transforms
from ffc import (
    ParameterError,
    QuadScalar,
    RatPoly,
    asym_convolve,
    cauchy_root_bound,
    char_poly,
    count_roots_in,
    check_asym_bound,
    check_sym_bound,
    bip_matching_nontrivial_poly,
    inverse_cauchy,
    matching_nontrivial_poly,
    max_root_bracket,
    mfold_root_bound_table,
    ramanujan_bound,
    sym_convolve,
)
from ffc.graphs import union_grid
from ffc.poly import to_primitive_int
from ffc.serial import dumps, table_to_obj
from ffc.transforms import _has_negative_root, _k_poly
from support import (
    fractions_st,
    grid_matrix,
    has_negative_root_oracle,
    inverse_cauchy_oracle,
    k_poly_oracle,
    max_root_bracket_oracle,
    nonneg_rooted_st,
    real_rooted_st,
)


def poly(*descending):
    return RatPoly.from_coeffs([Fraction(c) for c in reversed(descending)])


def transform_is(p: RatPoly, x: Fraction, w: Fraction) -> bool:
    """Whether G(x) = p'(x) / (d p(x)) equals w, exactly: p(x) is nonzero
    and the integer d w p - p' of ``_k_poly`` vanishes at x."""
    k = _k_poly(p, w)
    return p(x) != 0 and sum(c * x**i for i, c in enumerate(k)) == 0


class TestCauchyTransform:
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_pure_power(self, d):
        assert transform_is(RatPoly.x_power(d), Fraction(2), Fraction(1, 2))
        assert not transform_is(RatPoly.x_power(d), Fraction(2), Fraction(1, 3))

    def test_two_symmetric_roots(self):
        assert transform_is(poly(1, 0, -1), Fraction(2), Fraction(2, 3))

    def test_partial_fraction_sum(self):
        p = RatPoly.from_roots([1, 1, -1, -1, -1])
        assert transform_is(p, Fraction(3), Fraction(7, 20))


class TestInverseCauchy:
    def test_pure_power(self):
        assert abs(inverse_cauchy(RatPoly.x_power(3), Fraction(1, 2)) - 2.0) < 1e-9

    def test_two_symmetric_roots(self):
        assert abs(inverse_cauchy(poly(1, 0, -1), Fraction(2, 3)) - 2.0) < 1e-9

    @given(real_rooted_st(max_degree=4))
    def test_large_weight_approaches_the_top_root(self, p):
        lo, hi = max_root_bracket(p, Fraction(1, 2 ** 20))
        val = inverse_cauchy(p, Fraction(10 ** 6))
        assert float(lo) < val < float(hi) + 1e-4


    @pytest.mark.parametrize("tol", [0, -1e-9, math.nan, math.inf, -math.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(ParameterError):
            inverse_cauchy(RatPoly.x_power(3), Fraction(1, 2), tol)


WEIGHTS = st.sampled_from([Fraction(1, 4), Fraction(1), Fraction(4), Fraction(2, 7)])


class TestInverseCauchyAgainstBisection:
    """K(w) as the top root of d w p - p' against the Fraction bisection."""

    @given(real_rooted_st(max_degree=5), real_rooted_st(max_degree=5), WEIGHTS)
    def test_sym_check_inputs(self, p, q, w):
        d = max(p.degree, q.degree)
        for r in (p, q, sym_convolve(p, q, d)):
            assert abs(inverse_cauchy(r, w) - inverse_cauchy_oracle(r, w)) <= 1e-12

    @given(nonneg_rooted_st(max_degree=5), nonneg_rooted_st(max_degree=5), WEIGHTS)
    def test_asym_check_inputs(self, p, q, w):
        d = max(p.degree, q.degree)
        for r in (p, q, asym_convolve(p, q, d)):
            r = r.substitute_square()
            assert abs(inverse_cauchy(r, w) - inverse_cauchy_oracle(r, w)) <= 1e-12

    @given(real_rooted_st(max_degree=5), WEIGHTS, st.sampled_from([1e-3, 1e-6, 1e-9]))
    def test_coarse_tolerances(self, p, w, tol):
        assert abs(inverse_cauchy(p, w, tol) - inverse_cauchy_oracle(p, w, tol)) <= tol


class TestIntegerKPoly:
    """The integer d w p - p' against the Fraction polynomials it replaced."""

    @given(
        real_rooted_st(max_degree=6),
        fractions_st(max_num=10**4, max_den=10**3).filter(bool),
        st.one_of(WEIGHTS, fractions_st(max_num=10**4, max_den=10**3).map(abs).filter(bool)),
    )
    def test_matches_the_fraction_route(self, p, c, w):
        # c of either sign gives both signs of the lead
        p = p.scale(c)
        k = _k_poly(p, w)
        assert k == to_primitive_int(k_poly_oracle(p, w))
        assert k[-1] > 0
        assert len(k) == p.degree + 1


def sign_pattern_inputs_st():
    """Real-rooted polynomials times a nonzero constant of either sign: a
    root at 0 of multiplicity 0 to 3, at most one negative root, the rest
    positive; constants when there are no roots."""
    positive = fractions_st(max_num=8, max_den=5).map(abs).filter(bool)
    negative = positive.map(lambda r: -r)
    return st.builds(
        lambda pos, zeros, neg, c: RatPoly.from_roots(pos + [0] * zeros + neg).scale(c),
        st.lists(positive, max_size=4),
        st.integers(min_value=0, max_value=3),
        st.lists(negative, max_size=1),
        fractions_st().filter(bool),
    )


class TestNegativeRootSignPattern:
    """The sign pattern of p(-x) against the Sturm count it replaced."""

    @given(sign_pattern_inputs_st())
    def test_matches_the_sturm_count(self, p):
        assert _has_negative_root(p) == has_negative_root_oracle(p)

    @pytest.mark.parametrize(
        "p, negative",
        [
            (RatPoly.from_coeffs([Fraction(-3, 2)]), False),
            (RatPoly.from_roots([0, 0, 0]), False),
            (RatPoly.from_roots([0, 0, 2, 5]).scale(-1), False),
            (RatPoly.from_roots([-1, 0, 0, 3]), True),
            (RatPoly.from_roots([Fraction(-1, 7)]), True),
        ],
    )
    def test_examples(self, p, negative):
        assert _has_negative_root(p) == has_negative_root_oracle(p) == negative

    @given(sign_pattern_inputs_st())
    def test_asym_check_refuses_exactly_the_negative_roots(self, p):
        one = RatPoly.from_roots([1])
        d = max(p.degree, 1)
        if has_negative_root_oracle(p):
            with pytest.raises(ParameterError, match="nonnegative roots"):
                check_asym_bound(p, one, d, Fraction(1))
            with pytest.raises(ParameterError, match="nonnegative roots"):
                check_asym_bound(one, p, d, Fraction(1))
        elif p.degree >= 1:
            check_asym_bound(p, one, d, Fraction(1))


class TestBoundReports:
    @pytest.mark.parametrize("w", [Fraction(1, 4), Fraction(1), Fraction(4)])
    def test_pure_powers_meet_with_equality(self, w):
        report = check_sym_bound(RatPoly.x_power(3), RatPoly.x_power(3), 3, w)
        assert report.passed
        assert abs(report.margin) < 1e-9

    def test_shifted_identity_meets_with_equality(self):
        one = RatPoly.from_roots([1, 1])
        report = check_sym_bound(one, one, 2, Fraction(1))
        assert report.passed
        assert report.lhs == pytest.approx(3.0, abs=1e-9)
        assert report.rhs == pytest.approx(3.0, abs=1e-9)

    def test_asym_ones(self):
        ones = RatPoly.from_roots([1, 1, 1, 1])
        report = check_asym_bound(ones, ones, 4, Fraction(1))
        assert report.passed
        assert report.margin >= -1e-9

    @given(real_rooted_st(max_degree=4), real_rooted_st(max_degree=4))
    def test_sym_margin_is_never_negative(self, p, q):
        d = max(p.degree, q.degree)
        report = check_sym_bound(p, q, d, Fraction(1))
        assert report.passed


class TestMatchingPolynomials:
    def test_smallest_cases(self):
        assert matching_nontrivial_poly(2) == poly(1, 1)
        assert matching_nontrivial_poly(4) == RatPoly.from_roots([1, -1, -1])
        assert bip_matching_nontrivial_poly(2) == poly(1, -1)
        assert bip_matching_nontrivial_poly(5) == RatPoly.from_roots([1, 1, 1, 1])

    @pytest.mark.parametrize("d", [2, 4, 6])
    def test_restoring_the_trivial_root_gives_a_matching_spectrum(self, d):
        full = matching_nontrivial_poly(d) * poly(1, -1)
        assert full == char_poly(grid_matrix(union_grid("nonbipartite", d, [tuple(range(d))])))

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_square_substitution_gives_the_dilation_spectrum(self, d):
        squared = bip_matching_nontrivial_poly(d).substitute_square()
        assert squared == RatPoly.from_roots([1, -1] * (d - 1))

    def test_odd_side_is_rejected_for_plain_matchings(self):
        with pytest.raises(ParameterError):
            matching_nontrivial_poly(3)


class TestRamanujanBound:
    def test_known_values(self):
        assert ramanujan_bound(2) == Fraction(2)
        assert str(ramanujan_bound(3)) == "2*sqrt(2)"
        assert ramanujan_bound(5) == Fraction(4)

    def test_degree_one_is_rejected(self):
        with pytest.raises(ParameterError):
            ramanujan_bound(1)

    def test_float_value(self):
        assert float(ramanujan_bound(3)) == pytest.approx(2.8284271247461903)


class TestBoundTable:
    def test_first_interesting_cell(self):
        (row,) = mfold_root_bound_table([3], [4], "sym")
        assert row.below_bound
        assert row.bound == QuadScalar(0, 1, 8)
        assert row.bracket_hi < row.bound

    def test_both_modes_stay_below_the_bound(self):
        rows = mfold_root_bound_table([3, 4], [4, 6], "sym")
        rows += mfold_root_bound_table([3, 4], [4, 6], "asym")
        assert len(rows) == 8
        assert all(r.below_bound for r in rows)

    def test_degenerate_degree_two_fold(self):
        rows = mfold_root_bound_table([2], [2, 4], "sym")
        assert all(r.below_bound for r in rows)
        assert all(r.bound == 2 for r in rows)

    def test_growth_in_d_is_reported(self):
        rows = mfold_root_bound_table([3], [4, 8, 12], "sym")
        tops = [r.bracket_hi for r in rows]
        assert tops == sorted(tops)

    @pytest.mark.parametrize("mode", ["sym", "asym"])
    def test_verdict_does_not_depend_on_the_width(self, mode):
        # coarse brackets straddle the bound, so the Sturm count decides
        ms, ds = range(2, 7), range(2, 13, 2)
        fine = mfold_root_bound_table(ms, ds, mode)
        straddles = 0
        for width in (Fraction(8), Fraction(1), Fraction(1, 8)):
            rows = mfold_root_bound_table(ms, ds, mode, width)
            assert [r.below_bound for r in rows] == [r.below_bound for r in fine]
            straddles += sum(r.bracket_lo < r.bound <= r.bracket_hi for r in rows)
        assert straddles

    def test_width_is_checked_before_any_cell(self):
        with mock.patch.object(ffc.transforms, "m_fold_sym") as fold:
            for width in (0, Fraction(-1, 1024)):
                with pytest.raises(ParameterError):
                    mfold_root_bound_table([3, 4], [4, 6], "sym", width)
        assert not fold.called


# sha256 of the JSON document of the README grid, m 3..8 and d 4..24:2,
# sym rows then asym rows, as written by the Sturm-bisection tables
README_GRID_DIGEST = "a0f8fdffed5a0846ed4e3acd9c65467a45cc71f7ca671ab4d289de66fc2ef314"


def test_readme_grid_document_is_unchanged():
    ms, ds = range(3, 9), range(4, 25, 2)
    rows = mfold_root_bound_table(ms, ds, "sym")
    rows += mfold_root_bound_table(ms, ds, "asym")
    digest = hashlib.sha256(dumps(table_to_obj(rows)).encode()).hexdigest()
    assert digest == README_GRID_DIGEST


@pytest.mark.parametrize("mode", ["sym", "asym"])
def test_table_cells_match_the_bisection(mode):
    """Every cell with m 3..14, d 4..24:2: the certified bracket is the Sturm
    bisection's, and the verdict agrees with a Sturm count, with no cell
    needing the fallback."""
    with mock.patch.object(
        ffc.sturm, "_bisect_max_root", wraps=ffc.sturm._bisect_max_root
    ) as bisect:
        rows = mfold_root_bound_table(range(3, 15), range(4, 25, 2), mode)
    assert not bisect.called
    for row in rows:
        lo, hi = max_root_bracket_oracle(row.poly)
        top = QuadScalar(cauchy_root_bound(row.poly) + 1)
        below = count_roots_in(row.poly, row.bound, top) == 0
        assert (row.bracket_lo, row.bracket_hi, row.below_bound) == (lo, hi, below)
