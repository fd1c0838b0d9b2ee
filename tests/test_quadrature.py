"""Permutation averages of characteristic polynomials versus closed forms."""
from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffc import (
    BudgetError,
    ParameterError,
    RandomSwap,
    RatPoly,
    SplitMix64,
    SwapProgram,
    char_poly,
    expected_charpoly_perm,
    expected_charpoly_swaps,
    fourier_degree_test,
    is_real_rooted,
    random_doubly_regular,
    random_regular_symmetric,
    uniform_program,
    verify_bip_quadrature,
    verify_sym_quadrature,
)
from ffc import RatMatrix, derive_seed, quadrature
from ffc.quadrature import check_probe_side, check_quadrature_budget
from ffc.cli import _random_int_matrix
from support import (
    bip_pair_average_oracle,
    criterion_09_pairs,
    fourier_float_oracle,
    fractions_st,
    grid_matrix,
    perm_average_oracle,
    rotated_det_oracle,
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
        cyc = grid_matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
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

    def test_over_budget_enumeration_is_refused_up_front(self):
        # 21! does not fit a machine word; the refusal still comes first and
        # says the count is past the clamp of len(), as does its square in
        # bipartite mode; 20! fits and is named
        big = RatMatrix.identity(21)
        clamp = rf"needs more than {sys.maxsize} determinant"
        with pytest.raises(BudgetError, match=clamp):
            expected_charpoly_perm([big, big])
        with pytest.raises(BudgetError, match=clamp):
            verify_bip_quadrature(big, big)
        with pytest.raises(BudgetError, match=r"needs 2432902008176640000 determinant"):
            expected_charpoly_perm([RatMatrix.identity(20)] * 2)

    @pytest.mark.parametrize("bipartite, fits, over", [(False, 10, 11), (True, 6, 7)])
    def test_quadrature_budget_needs_no_matrix(self, bipartite, fits, over):
        check_quadrature_budget(fits, bipartite)
        count = math.factorial(over) ** (1 + bipartite)
        with pytest.raises(BudgetError, match=rf"needs {count} determinant"):
            check_quadrature_budget(over, bipartite)
        # 10**9! is never formed
        with pytest.raises(BudgetError, match=rf"needs more than {sys.maxsize} "):
            check_quadrature_budget(10**9, bipartite)

    def test_probe_side_is_refused_before_any_work(self, monkeypatch):
        side = quadrature.MAX_PROBE_SIDE
        check_probe_side(side)
        with pytest.raises(BudgetError, match=r"side 1000000000 exceeds the budget of 64$"):
            check_probe_side(10**9)

        def no_work(*args):
            raise AssertionError("work ran past the side limit")

        monkeypatch.setattr(quadrature, "_clear_denominators", no_work)
        monkeypatch.setattr(quadrature, "charpoly_int_coeffs", no_work)
        big = RatMatrix.identity(side + 1)
        message = rf"side {side + 1} exceeds the budget of {side}$"
        with pytest.raises(BudgetError, match=message):
            fourier_degree_test(big, big)
        with pytest.raises(BudgetError, match=message):
            expected_charpoly_swaps([big, big], [SwapProgram(side + 1, ())] * 2)


def verify_fourier_inputs():
    """The pairs ``ffc verify fourier --d D --trials 5 --seed S`` draws, for
    every S in 0..20 and D in 2..6: 525 pairs."""
    for seed in range(21):
        for d in range(2, 7):
            for trial in range(5):
                rng = SplitMix64(derive_seed(seed, trial))
                yield _random_int_matrix(d, rng), _random_int_matrix(d, rng)


def rotations_rotated_sum(*planes):
    """A stand-in for ``quadrature._rotated_sum`` whose G is the product of
    rotations by theta of the given coordinate planes, the last applied
    first; its multiplier is (1 + t**2)**(2 * len(planes))."""

    def rotated_sum(a, b, t):
        w = 1 + t * t
        d = len(a)
        h = RatMatrix.identity(d)
        for i, j in planes:
            step = [[w * (r == c) for c in range(d)] for r in range(d)]
            step[i][i] = step[j][j] = 1 - t * t
            step[i][j], step[j][i] = -2 * t, 2 * t
            h = h @ RatMatrix.from_rows(step)
        k = w ** (2 * len(planes))
        hbh = h @ RatMatrix.from_rows(b) @ h.transpose()
        return [[int(k * x + y) for x, y in zip(ra, rb)] for ra, rb in zip(a, hbh.rows)], k

    return rotated_sum


def sweep_values(a, b):
    """q(t) = det(A + G B G^T) * (1 + t**2)**2 at t = -4..4, on Fractions."""
    return tuple(rotated_det_oracle(a, b, t) * (1 + t * t) ** 2 for t in range(-4, 5))


class TestFourier:
    def test_identity_pair_is_constant_in_the_angle(self):
        # det(I + G I G^T) = 2**3 at every angle
        report = fourier_degree_test(RatMatrix.identity(3), RatMatrix.identity(3))
        assert report.passed
        assert report.samples == tuple(8 * (1 + t * t) ** 2 for t in range(-4, 5))

    def test_identically_singular_pair_passes(self):
        # det(0 + G diag(0, 1, 1) G^T) is zero for every angle
        b = grid_matrix([[0, 0, 0], [0, 1, 0], [0, 0, 1]])
        report = fourier_degree_test(grid_matrix([[0] * 3] * 3), b)
        assert report.samples == (0,) * 9
        assert report.passed

    @given(symmetric_grid_st(3), symmetric_grid_st(3))
    def test_high_harmonics_vanish(self, a, b):
        report = fourier_degree_test(a, b)
        assert report.passed
        assert report.samples == sweep_values(a, b)

    @given(data=st.data())
    def test_rational_pairs_match_the_fraction_sweep(self, data):
        d = data.draw(st.integers(min_value=2, max_value=4))
        a, b = data.draw(square_grids_st(fractions_st(), d, 2))
        report = fourier_degree_test(a, b)
        assert report.passed
        assert report.samples == sweep_values(a, b)

    def test_exact_and_float_probes_agree(self):
        pairs = list(verify_fourier_inputs()) + criterion_09_pairs()
        assert len(pairs) == 545
        for a, b in pairs:
            assert fourier_degree_test(a, b).passed
            assert fourier_float_oracle(a, b)

    def test_the_stand_in_rotation_reproduces_the_sweep(self, monkeypatch):
        a, b = criterion_09_pairs()[1]
        expected = fourier_degree_test(a, b)
        monkeypatch.setattr(quadrature, "_rotated_sum", rotations_rotated_sum((0, 1)))
        assert fourier_degree_test(a, b) == expected

    def test_two_overlapping_planes_fail(self, monkeypatch):
        # G rotates the plane (0, 1), then (1, 2)
        monkeypatch.setattr(quadrature, "_rotated_sum", rotations_rotated_sum((1, 2), (0, 1)))
        # criterion 9's pairs of side 3 and more; side 2 has no plane (1, 2)
        pairs = [(a, b) for a, b in criterion_09_pairs() if a.nrows >= 3]
        assert len(pairs) == 16
        for a, b in pairs:
            assert not fourier_degree_test(a, b).passed

    def test_a_fourth_harmonic_fails(self, monkeypatch):
        # rotating by 2 theta keeps q = P_8 / (1 + t**2)**2 within the
        # a-priori bound, but moves the second harmonic to the fourth
        monkeypatch.setattr(quadrature, "_rotated_sum", rotations_rotated_sum((0, 1), (0, 1)))
        for a, b in criterion_09_pairs():
            assert not fourier_degree_test(a, b).passed

    @pytest.mark.parametrize("k", range(9))
    def test_nine_values_fit_degree_four_only_from_degree_four(self, k):
        # t**k at -4..4, and the same values off by one at t = 4
        values = [t**k for t in range(-4, 5)]
        assert quadrature._fits_degree_four(values) == (k <= 4)
        assert not quadrature._fits_degree_four(values[:-1] + [values[-1] + 1])

    def test_small_or_mismatched_sides_are_refused(self):
        with pytest.raises(ParameterError):
            fourier_degree_test(RatMatrix.identity(1), RatMatrix.identity(1))
        with pytest.raises(ParameterError):
            fourier_degree_test(RatMatrix.identity(2), RatMatrix.identity(3))
