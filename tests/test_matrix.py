"""Rational matrices, characteristic polynomials, and dilations."""
from __future__ import annotations

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from ffc import RatMatrix, RatPoly, SplitMix64, char_poly, dilation
from ffc.matrix import charpoly_int_coeffs
from support import faddeev_leverrier, fractions_st, grid_matrix, symmetric_grid_st


def square_st(entries, max_n: int):
    """Square matrices, not necessarily symmetric, of side 1..max_n."""
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


def poly(*descending):
    return RatPoly.from_coeffs([Fraction(c) for c in reversed(descending)])


class TestCharPoly:
    def test_identity(self):
        assert char_poly(RatMatrix.identity(2)) == poly(1, -2, 1)

    def test_swap_matrix(self):
        assert char_poly(grid_matrix([[0, 1], [1, 0]])) == poly(1, 0, -1)

    def test_all_ones(self):
        ones = grid_matrix([[1] * 3] * 3)
        assert char_poly(ones) == poly(1, -3, 0, 0)

    @given(symmetric_grid_st(3))
    def test_integer_fast_path_agrees(self, m):
        rows = [[int(v) for v in row] for row in m.rows]
        assert charpoly_int_coeffs(rows) == tuple(
            int(c) for c in char_poly(m).coeffs
        )

    @given(symmetric_grid_st(3))
    def test_trace_is_second_coefficient(self, m):
        p = char_poly(m)
        assert p.coeff(2) == -m.trace()


class TestAgainstFaddeevLeVerrier:
    @given(square_st(st.integers(min_value=-50, max_value=50), 7))
    def test_integer_matrices(self, rows):
        assert charpoly_int_coeffs(rows) == faddeev_leverrier(rows)

    def test_entries_that_need_several_primes(self):
        rng = SplitMix64(5)
        for n in (2, 5, 8):
            rows = [[rng.below(2 * 10**15) - 10**15 for _ in range(n)] for _ in range(n)]
            assert charpoly_int_coeffs(rows) == faddeev_leverrier(rows)

    def test_sparse_matrices_that_need_pivot_swaps(self):
        rows = [[0, 0, 1, 0], [0, 0, 0, 2], [3, 0, 0, 0], [0, 4, 0, 5]]
        assert charpoly_int_coeffs(rows) == faddeev_leverrier(rows)
        assert charpoly_int_coeffs([[7]]) == (-7, 1)

    @given(square_st(fractions_st(max_num=9, max_den=7), 5))
    def test_fraction_matrices(self, rows):
        assert char_poly(RatMatrix.from_rows(rows)).coeffs == faddeev_leverrier(rows)


class TestDilation:
    def test_one_by_one(self):
        assert dilation(grid_matrix([[1]])) == grid_matrix([[0, 1], [1, 0]])

    @given(symmetric_grid_st(2))
    def test_spectrum_is_symmetric_about_zero(self, m):
        p = char_poly(dilation(m))
        # only every other coefficient may be nonzero
        parity = p.degree % 2
        for i, c in enumerate(p.coeffs):
            if i % 2 != parity:
                assert c == 0

    @given(st.lists(st.integers(min_value=-4, max_value=4), min_size=4, max_size=4))
    def test_square_substitution_matches_singular_values(self, vals):
        m = grid_matrix([vals[:2], vals[2:]])
        gram = grid_matrix(
            [
                [
                    sum(m.rows[i][k] * m.rows[j][k] for k in range(2))
                    for j in range(2)
                ]
                for i in range(2)
            ]
        )
        assert char_poly(gram).substitute_square() == char_poly(dilation(m))


class TestStructure:
    def test_constant_row_sum(self):
        assert RatMatrix.identity(3).constant_row_sum() == 1
        assert grid_matrix([[1, 2], [2, 1]]).constant_row_sum() == 3
        assert grid_matrix([[1, 2], [0, 1]]).constant_row_sum() is None

    def test_doubly_regular_sum(self):
        m = grid_matrix([[1, 2], [2, 1]])
        assert m.constant_doubly_regular_sum() == 3
        skew = grid_matrix([[1, 1], [2, 0]])
        assert skew.constant_row_sum() == 2
        assert skew.constant_doubly_regular_sum() is None

    def test_transpose_and_symmetry(self):
        m = grid_matrix([[1, 2], [3, 4]])
        assert m.transpose() == grid_matrix([[1, 3], [2, 4]])
        assert not m.is_symmetric
        assert grid_matrix([[1, 2], [2, 4]]).is_symmetric

    def test_rank(self):
        assert grid_matrix([[1, 2], [2, 4]]).rank() == 1
        assert RatMatrix.identity(3).rank() == 3
        assert RatMatrix.zero(2, 2).rank() == 0
