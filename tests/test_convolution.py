"""Additive convolutions of characteristic polynomials."""
from __future__ import annotations

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ffc.transforms
from ffc import (
    BudgetError,
    ParameterError,
    RatPoly,
    asym_convolve,
    cauchy_root_bound,
    count_roots_in_mult,
    is_real_rooted,
    m_fold_asym,
    m_fold_sym,
    sym_convolve,
)
from ffc.convolution import MAX_LEVEL, _from_series, _series, _series_power
from ffc.transforms import (
    bip_matching_nontrivial_poly,
    matching_fold,
    matching_nontrivial_poly,
)
from support import (
    convolve_oracle,
    fractions_st,
    m_fold_oracle,
    nonneg_rooted_st,
    real_rooted_st,
    series_m_fold_oracle,
    series_power_oracle,
)


def poly(*descending):
    return RatPoly.from_coeffs([Fraction(c) for c in reversed(descending)])


class TestSymmetric:
    @given(real_rooted_st(max_degree=4), st.integers(min_value=0, max_value=3))
    def test_pure_power_is_the_identity(self, p, extra):
        d = p.degree + extra
        assert sym_convolve(p, RatPoly.x_power(d), d) == p

    def test_two_identity_matrices(self):
        one = RatPoly.from_roots([1, 1])
        assert sym_convolve(one, one, 2) == RatPoly.from_roots([2, 2])

    def test_rank_one_shift(self):
        p = poly(1, -1, -2)
        q = poly(1, -2, 0)
        assert sym_convolve(p, q, 2) == poly(1, -3, -1)
        assert sym_convolve(p, q, 2) == p - p.derivative()

    @given(real_rooted_st(min_degree=2, max_degree=6))
    def test_derivative_identity(self, p):
        d = p.degree
        q = RatPoly.x_power(d) - RatPoly.x_power(d - 1).scale(d)
        assert sym_convolve(p, q, d) == p - p.derivative()

    @given(real_rooted_st(max_degree=4), real_rooted_st(max_degree=4))
    def test_commutative(self, p, q):
        d = max(p.degree, q.degree)
        assert sym_convolve(p, q, d) == sym_convolve(q, p, d)

    @given(
        real_rooted_st(max_degree=3),
        real_rooted_st(max_degree=3),
        real_rooted_st(max_degree=3),
    )
    def test_associative(self, p, q, r):
        d = max(p.degree, q.degree, r.degree)
        lhs = sym_convolve(sym_convolve(p, q, d), r, d)
        assert lhs == sym_convolve(p, sym_convolve(q, r, d), d)

    @given(
        real_rooted_st(max_degree=3),
        real_rooted_st(max_degree=3),
        real_rooted_st(max_degree=3),
        fractions_st(),
    )
    def test_bilinear_in_the_first_slot(self, p1, p2, q, c):
        d = max(p1.degree, p2.degree, q.degree)
        lhs = sym_convolve(p1.scale(c) + p2, q, d)
        assert lhs == sym_convolve(p1, q, d).scale(c) + sym_convolve(p2, q, d)

    @given(real_rooted_st(max_degree=5), real_rooted_st(max_degree=5))
    def test_real_rooted_closure(self, p, q):
        d = max(p.degree, q.degree)
        assert is_real_rooted(sym_convolve(p, q, d))


class TestAsymmetric:
    @given(fractions_st(), fractions_st())
    def test_level_one_adds_the_roots(self, a, b):
        lhs = asym_convolve(RatPoly.from_roots([a]), RatPoly.from_roots([b]), 1)
        assert lhs == RatPoly.from_roots([a + b])

    @given(nonneg_rooted_st(max_degree=4), st.integers(min_value=0, max_value=3))
    def test_pure_power_is_the_identity(self, p, extra):
        d = p.degree + extra
        assert asym_convolve(p, RatPoly.x_power(d), d) == p

    def test_two_identity_matrices(self):
        one = RatPoly.from_roots([1, 1])
        assert asym_convolve(one, one, 2) == poly(1, -4, 3)

    @given(nonneg_rooted_st(max_degree=4), nonneg_rooted_st(max_degree=4))
    def test_commutative(self, p, q):
        d = max(p.degree, q.degree)
        assert asym_convolve(p, q, d) == asym_convolve(q, p, d)

    @given(
        nonneg_rooted_st(max_degree=3),
        nonneg_rooted_st(max_degree=3),
        nonneg_rooted_st(max_degree=3),
    )
    def test_associative(self, p, q, r):
        d = max(p.degree, q.degree, r.degree)
        lhs = asym_convolve(asym_convolve(p, q, d), r, d)
        assert lhs == asym_convolve(p, asym_convolve(q, r, d), d)

    @given(nonneg_rooted_st(max_degree=4), nonneg_rooted_st(max_degree=4))
    def test_nonnegative_real_rooted_closure(self, p, q):
        d = max(p.degree, q.degree)
        out = asym_convolve(p, q, d)
        assert is_real_rooted(out)
        hi = cauchy_root_bound(out) + 1
        assert count_roots_in_mult(out, Fraction(0), hi) == out.degree


class TestMFold:
    @given(real_rooted_st(max_degree=4))
    def test_single_fold_is_the_input(self, p):
        assert m_fold_sym(p, 1, p.degree) == p
        assert m_fold_asym(p, 1, p.degree) == p

    def test_double_fold_matches_pairwise(self):
        one = RatPoly.from_roots([1, 1])
        assert m_fold_sym(one, 2, 2) == RatPoly.from_roots([2, 2])
        assert m_fold_asym(one, 2, 2) == poly(1, -4, 3)

    @given(real_rooted_st(max_degree=3), st.integers(min_value=2, max_value=4))
    def test_fold_order_is_irrelevant(self, p, m):
        d = p.degree
        left = p
        for _ in range(m - 1):
            left = sym_convolve(left, p, d)
        right = p
        for _ in range(m - 1):
            right = sym_convolve(p, right, d)
        assert m_fold_sym(p, m, d) == left == right

    @given(st.integers(min_value=2, max_value=4))
    def test_triple_asym_fold_of_ones_has_nonnegative_roots(self, d):
        p = RatPoly.from_roots([1] * d)
        out = m_fold_asym(p, 3, d)
        assert is_real_rooted(out)
        hi = cauchy_root_bound(out) + 1
        assert count_roots_in_mult(out, Fraction(0), hi) == d


@st.composite
def level_and_poly(draw):
    """A level d and a rational polynomial of degree at most d, the zero
    polynomial and degrees below d included."""
    d = draw(st.integers(min_value=1, max_value=7))
    coeffs = draw(st.lists(fractions_st(max_num=9, max_den=6), max_size=d + 1))
    return d, RatPoly.from_coeffs(coeffs)


class TestPowerSeriesKernel:
    """The rescaled power-series kernel against the weight-by-weight loop and
    m - 1 repeated convolutions it replaced."""

    @given(level_and_poly(), st.integers(min_value=1, max_value=8), st.booleans())
    def test_m_fold_matches_repeated_convolution(self, level_p, m, squared):
        d, p = level_p
        fold = m_fold_asym if squared else m_fold_sym
        assert fold(p, m, d) == m_fold_oracle(p, m, d, squared)

    @given(level_and_poly(), st.data(), st.booleans())
    def test_convolution_matches_the_weighted_loop(self, level_p, data, squared):
        d, p = level_p
        q = data.draw(st.lists(fractions_st(max_num=9, max_den=6), max_size=d + 1))
        q = RatPoly.from_coeffs(q)
        conv = asym_convolve if squared else sym_convolve
        assert conv(p, q, d) == convolve_oracle(p, q, d, squared)

    @given(fractions_st(), fractions_st(), st.integers(min_value=1, max_value=5))
    def test_level_zero_multiplies_constants(self, a, b, m):
        p, q = RatPoly.from_coeffs([a]), RatPoly.from_coeffs([b])
        for conv, fold in ((sym_convolve, m_fold_sym), (asym_convolve, m_fold_asym)):
            assert conv(p, q, 0) == RatPoly.from_coeffs([a * b])
            assert fold(p, m, 0) == RatPoly.from_coeffs([a**m])
            with pytest.raises(ParameterError):
                conv(p, q, -1)

    def test_leading_zero_runs(self):
        # deg p = 1 at level 6: the series starts with t**5, so m = 2 folds
        # vanish and m = 1 returns p
        p = RatPoly.from_coeffs([3, 2])
        for squared, fold in ((False, m_fold_sym), (True, m_fold_asym)):
            assert fold(p, 1, 6) == p
            assert fold(p, 2, 6) == m_fold_oracle(p, 2, 6, squared) == RatPoly.zero()
            assert fold(RatPoly.zero(), 3, 6) == RatPoly.zero()


@st.composite
def fold_near_the_last_index(draw):
    """(where, d, p, m): p of degree d - v for v in 0..2, with a rational lead
    of either sign, and a fold count m below, at, one past or far past the
    last index the power keeps, K = d - v m."""
    where = draw(st.sampled_from(["below", "at", "past", "far"]))
    if where == "far":
        v, d = 0, draw(st.integers(min_value=0, max_value=7))
        m = draw(st.integers(min_value=10 * (d + 1), max_value=3000))
    else:
        v = draw(st.integers(min_value=0, max_value=2))
        m = draw(st.integers(min_value=1, max_value=3))
        # K = d - v m, so m < K, m = K and m = K + 1 fix d
        extra = draw(st.integers(min_value=1, max_value=3)) if where == "below" else 0
        d = m * (1 + v) + extra - (where == "past")
    lead = draw(fractions_st(max_num=9, max_den=6).filter(bool))
    rest = draw(st.lists(fractions_st(max_num=9, max_den=6), min_size=d - v, max_size=d - v))
    return where, d, RatPoly.from_coeffs(rest + [lead]), m


def _size_bound(s: list[int], m: int) -> int:
    """A bit length no entry of the kept power exceeds, whatever m is:
    1 + K (bitlen(beta) + bitlen(m + 1)) for beta = max |s_i|, since the k-th
    entry is b_0**(K-k) times a sum of products of k entries whose weights
    add up to less than (m + 1)**k."""
    v = next(i for i, x in enumerate(s) if x)
    last = len(s) - 1 - v * m
    return 1 + last * (max(map(abs, s)).bit_length() + (m + 1).bit_length())


class TestHomogeneousStart:
    """Miller's recurrence started at b_0**min(m, K) against the b_0**m start
    it replaced: the same power up to the dropped factor, and the same
    polynomials."""

    @settings(max_examples=200)
    @given(fold_near_the_last_index(), st.booleans())
    def test_matches_the_full_power_start(self, case, squared):
        where, d, p, m = case
        s, _ = _series(p, d, squared)
        v = next(i for i, x in enumerate(s) if x)
        last = d - v * m
        assert {"below": m < last, "at": m == last, "past": m == last + 1,
                "far": m >= 10 * (last + 1)}[where]
        c, b0, r = _series_power(s, m)
        assert (b0, r) == (s[v], max(m - last, 0))
        assert [b0**r * x for x in c] == series_power_oracle(s, m)
        assert max(x.bit_length() for x in c) <= _size_bound(s, m)
        fold = m_fold_asym if squared else m_fold_sym
        assert fold(p, m, d) == series_m_fold_oracle(p, m, d, squared)

    @pytest.mark.parametrize("kind", ["sym", "asym"])
    def test_the_slowest_table_cells_match_the_oracle(self, kind):
        m, d = 443, 24
        if kind == "sym":
            want = series_m_fold_oracle(matching_nontrivial_poly(d), m, d - 1, False)
        else:
            want = series_m_fold_oracle(bip_matching_nontrivial_poly(d), m, d - 1, True)
            want = want.substitute_square()
        assert matching_fold(kind, m, d) == want

    @pytest.mark.parametrize("m", [23, 443, 10**6])
    @pytest.mark.parametrize("kind", ["sym", "asym"])
    def test_series_entries_are_sized_by_the_level(self, kind, m):
        seen = []

        def spy(s, m):
            out = _series_power(s, m)
            seen.append((s, out[0]))
            return out

        with mock.patch("ffc.convolution._series_power", spy):
            matching_fold(kind, m, 24)
        [(s, c)] = seen
        # level 23 keeps K = 23 entries past the first, and b_0 = 23!**e is
        # the largest series entry
        assert max(map(abs, s)) == s[0]
        assert max(x.bit_length() for x in c) <= _size_bound(s, m)
        assert _size_bound(s, m) <= 1 + 23 * (s[0].bit_length() + 21)


class TestSeriesRoundTrip:
    """``_from_series`` inverts ``_series`` for both kinds at every level."""

    @given(level_and_poly(), st.booleans())
    def test_round_trip(self, level_p, squared):
        d, p = level_p
        assert _from_series(*_series(p, d, squared), d, squared) == p

    @pytest.mark.parametrize("d", [5, 6])
    @pytest.mark.parametrize("squared", [False, True])
    def test_fractions_below_the_level(self, d, squared):
        p = RatPoly.from_coeffs([Fraction(-7, 3), Fraction(1, 2), 0, Fraction(5, 4)])
        s, den = _series(p, d, squared)
        # degree 3 at level d: the leading d - 3 entries are zero
        assert s[: d - 3] == [0] * (d - 3) and s[d - 3] != 0
        assert _from_series(s, den, d, squared) == p


class TestLevelBudget:
    """Levels past MAX_LEVEL are refused before any series is built."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda p, d: sym_convolve(p, p, d),
            lambda p, d: asym_convolve(p, p, d),
            lambda p, d: m_fold_sym(p, 3, d),
            lambda p, d: m_fold_asym(p, 3, d),
        ],
        ids=["sym_convolve", "asym_convolve", "m_fold_sym", "m_fold_asym"],
    )
    def test_kernels_refuse_before_the_series(self, call):
        p = poly(1, 0, -1)
        with mock.patch("ffc.convolution._series") as series:
            with pytest.raises(BudgetError, match="exceeds the budget"):
                call(p, MAX_LEVEL + 1)
        assert not series.called
        call(p, MAX_LEVEL)

    @pytest.mark.parametrize("kind", ["sym", "asym"])
    def test_matching_fold_refuses_before_the_polynomial(self, kind):
        with mock.patch.object(ffc.transforms, "matching_nontrivial_poly") as plain, \
                mock.patch.object(ffc.transforms, "bip_matching_nontrivial_poly") as bip:
            with pytest.raises(BudgetError):
                matching_fold(kind, 3, MAX_LEVEL + 2)
        assert not plain.called and not bip.called

    def test_the_budget_covers_the_largest_table_cells(self):
        assert MAX_LEVEL >= 8 * 127
