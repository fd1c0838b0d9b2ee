"""Permutation averages of characteristic polynomials versus closed forms."""
from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffc import (
    BudgetError,
    Budgets,
    Permutation,
    RandomSwap,
    RatPoly,
    SplitMix64,
    SwapProgram,
    char_poly,
    expected_charpoly_mc,
    expected_charpoly_perm,
    expected_charpoly_swaps,
    fourier_degree_test,
    is_real_rooted,
    random_doubly_regular,
    random_regular_symmetric,
    rank2_check,
    uniform_program,
    verify_bip_quadrature,
    verify_sym_quadrature,
)
from ffc import RatMatrix
from support import (
    bip_pair_average_oracle,
    fractions_st,
    grid_matrix,
    mc_oracle,
    perm_average_oracle,
    square_grids_st,
    swap_average_oracle,
    swap_program_st,
    symmetric_grid_st,
)


def poly(*descending):
    return RatPoly.from_coeffs([Fraction(c) for c in reversed(descending)])


SWAP = grid_matrix([[0, 1], [1, 0]])
TRIANGLE = grid_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])


class TestPermAverage:
    def test_single_matrix_is_its_char_poly(self):
        out = expected_charpoly_perm([TRIANGLE])
        assert out.poly == char_poly(TRIANGLE)
        assert out.terms == 1

    def test_two_swap_matrices(self):
        out = expected_charpoly_perm([SWAP, SWAP])
        assert out.poly == poly(1, 0, -4)
        assert out.terms == 2

    def test_two_triangles(self):
        out = expected_charpoly_perm([TRIANGLE, TRIANGLE])
        assert out.poly == RatPoly.from_roots([4, -2, -2])
        assert out.terms == 6


class TestSymQuadrature:
    def test_swap_pair(self):
        report = verify_sym_quadrature(SWAP, SWAP)
        assert report.passed
        assert report.lhs == report.rhs == poly(1, 0, -4)
        assert report.terms == 2

    def test_triangle_pair(self):
        report = verify_sym_quadrature(TRIANGLE, TRIANGLE)
        assert report.passed
        assert report.lhs == RatPoly.from_roots([4, -2, -2])

    @given(st.integers(min_value=0, max_value=2 ** 63), st.integers(min_value=2, max_value=4))
    def test_random_constant_row_sum_pairs(self, seed, d):
        rng = SplitMix64(seed)
        a = random_regular_symmetric(d, rng)
        b = random_regular_symmetric(d, rng)
        assert verify_sym_quadrature(a, b).passed


class TestBipQuadrature:
    def test_identity_pair(self):
        report = verify_bip_quadrature(RatMatrix.identity(2), RatMatrix.identity(2))
        assert report.passed
        assert report.lhs == poly(1, 0, -6, 0, 8)
        assert report.terms == 4

    def test_three_cycle_pair(self):
        cyc = grid_matrix(Permutation((1, 2, 0)).matrix_rows())
        report = verify_bip_quadrature(cyc, cyc)
        assert report.passed
        assert report.terms == 36

    @given(st.integers(min_value=0, max_value=2 ** 63), st.integers(min_value=2, max_value=3))
    def test_random_doubly_regular_pairs(self, seed, d):
        rng = SplitMix64(seed)
        a = random_doubly_regular(d, rng)
        b = random_doubly_regular(d, rng)
        assert verify_bip_quadrature(a, b).passed


class TestSwapAverage:
    def test_inert_programs_give_the_plain_sum(self):
        progs = [
            SwapProgram(3, (RandomSwap(0, 1, Fraction(0)),)),
            SwapProgram(3, ()),
        ]
        out = expected_charpoly_swaps([TRIANGLE, TRIANGLE], progs)
        assert out.poly == char_poly(grid_matrix([[0, 2, 2], [2, 0, 2], [2, 2, 0]]))

    @given(symmetric_grid_st(3), symmetric_grid_st(3))
    def test_uniform_programs_match_the_uniform_average(self, a, b):
        progs = [SwapProgram(3, ()), uniform_program(3)]
        swap_avg = expected_charpoly_swaps([a, b], progs)
        perm_avg = expected_charpoly_perm([a, b])
        assert swap_avg.poly == perm_avg.poly

    @given(
        symmetric_grid_st(3),
        symmetric_grid_st(3),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=2),
                st.fractions(min_value=0, max_value=1, max_denominator=4),
            ),
            max_size=4,
        ),
    )
    def test_swap_averages_are_real_rooted(self, a, b, raw):
        swaps = tuple(RandomSwap(s, t, p) for s, t, p in raw if s != t)
        progs = [SwapProgram(3, ()), SwapProgram(3, swaps)]
        assert is_real_rooted(expected_charpoly_swaps([a, b], progs).poly)


ENTRIES = pytest.mark.parametrize(
    "entries",
    [st.integers(min_value=-5, max_value=5), fractions_st(max_num=5, max_den=6)],
    ids=["int", "fraction"],
)


class TestKernelAgainstRetiredLoops:
    """The integer weighted-average kernel against the Fraction loops it
    replaced (``tests/support.py``)."""

    @ENTRIES
    @given(data=st.data())
    def test_perm_average(self, entries, data):
        d = data.draw(st.integers(min_value=1, max_value=3))
        m = data.draw(st.integers(min_value=1, max_value=3))
        mats = data.draw(square_grids_st(entries, d, m))
        out = expected_charpoly_perm(mats)
        assert (out.poly, out.terms) == perm_average_oracle(mats)

    @ENTRIES
    @given(data=st.data())
    def test_swap_average(self, entries, data):
        d = data.draw(st.integers(min_value=2, max_value=3))
        m = data.draw(st.integers(min_value=1, max_value=3))
        mats = data.draw(square_grids_st(entries, d, m))
        progs = [data.draw(swap_program_st(d)) for _ in range(m)]
        out = expected_charpoly_swaps(mats, progs)
        assert (out.poly, out.terms) == swap_average_oracle(mats, progs)

    @ENTRIES
    @settings(max_examples=12)
    @given(data=st.data())
    def test_bipartite_pair_average(self, entries, data):
        d = data.draw(st.integers(min_value=2, max_value=3))

        def doubly_regular():
            # a weighted sum of permutation matrices
            grid = [[Fraction(0)] * d for _ in range(d)]
            for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
                w = data.draw(entries)
                image = data.draw(st.permutations(range(d)))
                for i, j in enumerate(image):
                    grid[j][i] += w
            return grid_matrix(grid)

        a, b = doubly_regular(), doubly_regular()
        report = verify_bip_quadrature(a, b)
        assert (report.lhs, report.terms) == bip_pair_average_oracle(a, b)
        assert report.passed

    @ENTRIES
    @given(data=st.data())
    def test_monte_carlo(self, entries, data):
        d = data.draw(st.integers(min_value=1, max_value=3))
        m = data.draw(st.integers(min_value=1, max_value=3))
        mats = data.draw(square_grids_st(entries, d, m))
        trials = data.draw(st.integers(min_value=1, max_value=5))
        seed = data.draw(st.integers(min_value=0, max_value=2**64 - 1))
        out = expected_charpoly_mc(mats, trials, SplitMix64(seed))
        assert (out.poly, out.stderr) == mc_oracle(mats, trials, SplitMix64(seed))

    def test_over_budget_enumeration_is_refused_up_front(self):
        # 21! does not fit a machine word; the refusal still comes first
        big = RatMatrix.identity(21)
        with pytest.raises(BudgetError):
            expected_charpoly_perm([big, big])
        with pytest.raises(BudgetError):
            verify_bip_quadrature(big, big)


class TestMonteCarlo:
    def test_single_trial_is_one_sampled_polynomial(self):
        out = expected_charpoly_mc([SWAP, SWAP], 1, SplitMix64(3))
        assert out.terms == 1
        assert out.poly.is_monic
        assert out.poly.degree == 2

    def test_conjugation_invariant_instance_is_exact(self):
        out = expected_charpoly_mc([TRIANGLE, TRIANGLE], 8, SplitMix64(4))
        assert out.poly == RatPoly.from_roots([4, -2, -2])

    def test_leading_coefficient_never_varies(self):
        out = expected_charpoly_mc([SWAP, SWAP, SWAP], 50, SplitMix64(5))
        assert out.stderr is not None
        assert out.stderr[-1] == 0.0


class TestFourier:
    def test_identity_pair_is_constant_in_the_angle(self):
        report = fourier_degree_test(RatMatrix.identity(3), RatMatrix.identity(3))
        assert report.passed
        assert all(mag < 1e-12 for mag in report.magnitudes[1:])

    def test_identically_singular_pair_passes(self):
        # det(0 + G diag(0, 1, 1) G^T) is zero for every angle, so every
        # sampled coefficient is rounding noise; noise must not fail the test.
        b = grid_matrix([[0, 0, 0], [0, 1, 0], [0, 0, 1]])
        report = fourier_degree_test(grid_matrix([[0] * 3] * 3), b)
        assert max(report.magnitudes) < 1e-12
        assert report.passed
        assert report.max_tail_relative <= 1e-8

    @given(symmetric_grid_st(3), symmetric_grid_st(3))
    def test_high_harmonics_vanish(self, a, b):
        report = fourier_degree_test(a, b)
        assert report.passed
        assert report.max_tail_relative <= 1e-8


class TestRankTwo:
    def test_distinct_diagonal(self):
        a = grid_matrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        report = rank2_check(a, Permutation((1, 0, 2)))
        assert report.rank == 2
        assert report.trace == 0
        assert report.passed

    def test_invariant_matrix(self):
        report = rank2_check(RatMatrix.identity(3), Permutation((1, 0, 2)))
        assert report.rank == 0
        assert report.trace == 0

    @given(symmetric_grid_st(4))
    def test_rank_is_never_one(self, a):
        report = rank2_check(a, Permutation((0, 3, 2, 1)))
        assert report.rank in (0, 2)
        assert report.trace == 0
