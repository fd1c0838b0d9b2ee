"""Rational matrices, characteristic polynomials, and dilations."""
from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ffc.matrix as matrix
from ffc import (
    ContractError,
    ParameterError,
    RatMatrix,
    RatPoly,
    SplitMix64,
    char_poly,
    dilation,
    sample_bipartite,
    sample_nonbipartite,
    uniform_permutation,
)
from ffc.graphs import _gram
from ffc.matrix import _KRYLOV_MIN_N, _charpoly_mod, _hessenberg_mod, _prime, charpoly_int_coeffs
from support import (
    faddeev_leverrier,
    fractions_st,
    grid_matrix,
    squarefree_part,
    symmetric_grid_st,
)


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

    # all-int grids take their own path through _clear_denominators
    @given(
        square_st(st.integers(min_value=-9, max_value=9), 5)
        | square_st(st.one_of(st.integers(min_value=-9, max_value=9), fractions_st()), 5)
    )
    def test_grids_agree_with_matrices(self, rows):
        assert char_poly(rows) == char_poly(RatMatrix.from_rows(rows))

    def test_grid_must_be_square(self):
        for rows in ([], [[1, 2]], [[1, 2], [3]]):
            with pytest.raises(ParameterError, match="square"):
                char_poly(rows)

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


def symmetric_int_st(min_n: int, max_n: int, span: int = 9):
    """Symmetric integer grids of side min_n..max_n."""
    return st.integers(min_value=min_n, max_value=max_n).flatmap(
        lambda n: symmetric_grid_st(n, span).map(lambda m: m.int_rows())
    )


def conjugated_sum(blocks, perm):
    """The direct sum of square integer blocks, with rows and columns both
    permuted by perm: a matrix similar to the direct sum."""
    n = len(perm)
    grid = [[0] * n for _ in range(n)]
    at = 0
    for block in blocks:
        for i, row in enumerate(block):
            grid[at + i][at:at + len(row)] = row
        at += len(block)
    return [[grid[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


@st.composite
def repeated_blocks_st(draw):
    """A symmetric block B repeated 2-3 times beside a symmetric block C,
    conjugated by a random permutation: each eigenvalue of B is repeated,
    so det(xI - A) has square factors."""
    k = draw(st.integers(min_value=1, max_value=3))
    reps = draw(st.integers(min_value=2, max_value=3))
    rest = draw(st.integers(min_value=max(0, _KRYLOV_MIN_N - k * reps), max_value=_KRYLOV_MIN_N))
    b = draw(symmetric_grid_st(k, 3)).int_rows()
    blocks = [b] * reps
    if rest:
        blocks.append(draw(symmetric_grid_st(rest, 3)).int_rows())
    perm = draw(st.permutations(range(k * reps + rest)))
    return conjugated_sum(blocks, perm)


def jacobi(diag, off=1):
    """Symmetric tridiagonal grid with nonzero off-diagonal: its eigenvalues
    are simple, so its minimal and characteristic polynomials agree."""
    n = len(diag)
    grid = [[0] * n for _ in range(n)]
    for i, v in enumerate(diag):
        grid[i][i] = v
        if i + 1 < n:
            grid[i][i + 1] = grid[i + 1][i] = off
    return grid


P = _prime(0)
KERNELS = ("_krylov_minpoly_mod", "_complete_by_traces", "_hessenberg_mod")


@contextmanager
def kernel_calls():
    """Count the calls ``_charpoly_mod`` makes to each of its kernels."""
    calls = Counter()

    def counted(name, real):
        def run(*args):
            calls[name] += 1
            return real(*args)
        return run

    with pytest.MonkeyPatch.context() as mp:
        for name in KERNELS:
            mp.setattr(matrix, name, counted(name, getattr(matrix, name)))
        yield calls


def route(rows) -> str:
    """The route ``_charpoly_mod`` takes on rows modulo P, after checking
    its answer against the Hessenberg kernel."""
    with kernel_calls() as calls:
        got = _charpoly_mod(rows, P)
    assert got == _hessenberg_mod(rows, P)
    if calls["_complete_by_traces"]:
        return "completion"
    if calls["_hessenberg_mod"]:
        return "hessenberg"
    assert calls["_krylov_minpoly_mod"] == 1
    return "krylov"


def expected_route(rows) -> str:
    """The route a symmetric grid of side at least the cutoff should take:
    its minimal polynomial is the square-free part of its characteristic
    polynomial, and the Krylov sequence finds all of it."""
    chi = RatPoly.from_coeffs(faddeev_leverrier(rows))
    gap = chi.degree - squarefree_part(chi).degree
    return "krylov" if not gap else "completion" if gap <= 2 else "hessenberg"


class TestKrylovRoute:
    @given(symmetric_int_st(_KRYLOV_MIN_N, _KRYLOV_MIN_N + 4))
    def test_symmetric_grids_at_and_above_the_cutoff(self, rows):
        assert charpoly_int_coeffs(rows) == faddeev_leverrier(rows)
        assert route(rows) == expected_route(rows)

    @given(repeated_blocks_st())
    def test_repeated_blocks(self, rows):
        assert charpoly_int_coeffs(rows) == faddeev_leverrier(rows)
        assert route(rows) == expected_route(rows)

    @pytest.mark.parametrize(
        "blocks, want",
        [
            # a Jacobi matrix alone: all n eigenvalues simple
            ([jacobi([3, -1, 0, 2, 1, 1, -2, 0, 4, 1, -3, 2, 0])], "krylov"),
            # the path on 13 vertices has a simple zero eigenvalue
            ([jacobi([0] * 13)], "krylov"),
            # one eigenvalue twice: r = 1
            ([[[5]], [[5]], jacobi([1, 0, -1, 2, 0, 1, -2, 0, 1, 1])], "completion"),
            # zero three times: r = 2 with a factor x**2 missing
            ([[[0]], [[0]], [[0]], jacobi([1, 2, -1, 3, 1, -2, 2, 1, 1, 3])], "completion"),
            # a 2x2 block with irrational eigenvalues, twice: r = 2
            ([[[1, 1], [1, 0]]] * 2 + [jacobi([3, 0, -1, 2, 1, 0, -2, 3, 1])], "completion"),
            # a 3x3 block twice: r = 3, so Hessenberg runs
            ([jacobi([1, 0, 2])] * 2 + [jacobi([3, -1, 0, 2, 4, -2, 1])], "hessenberg"),
            # the identity: r = n - 1
            ([[[1]]] * 14, "hessenberg"),
        ],
    )
    def test_forced_routes(self, blocks, want):
        n = sum(map(len, blocks))
        rows = conjugated_sum(blocks, uniform_permutation(n, SplitMix64(n)).image)
        assert route(rows) == want == expected_route(rows)
        assert charpoly_int_coeffs(rows) == faddeev_leverrier(rows)

    def test_small_or_nonsymmetric_grids_skip_krylov(self):
        small = jacobi(list(range(_KRYLOV_MIN_N - 1)))
        skew = jacobi(list(range(_KRYLOV_MIN_N + 2)))
        skew[0][1] += 1
        for rows in (small, skew):
            with kernel_calls() as calls:
                assert charpoly_int_coeffs(rows) == faddeev_leverrier(rows)
            assert calls == Counter(_hessenberg_mod=1)

    def test_entries_that_need_several_primes(self):
        rng = SplitMix64(9)
        n = _KRYLOV_MIN_N
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.below(2 * 10**15) - 10**15
        with kernel_calls() as calls:
            got = charpoly_int_coeffs(rows)
        assert got == faddeev_leverrier(rows)
        assert calls["_krylov_minpoly_mod"] > 1
        assert calls == Counter(_krylov_minpoly_mod=calls["_krylov_minpoly_mod"])

    def test_union_adjacencies_agree_with_hessenberg(self):
        rng = SplitMix64(3)
        for _ in range(20):
            for rows in (
                sample_nonbipartite(24, 3, rng).grid(),
                _gram(sample_bipartite(20, 3, rng).grid()),
            ):
                assert _charpoly_mod(rows, P) == _hessenberg_mod(rows, P)


class TestCoefficientChecks:
    @pytest.mark.parametrize("index, message", [(1, "trace"), (2, r"tr\(A\^2\)")])
    @pytest.mark.parametrize("n", [3, _KRYLOV_MIN_N + 1])
    def test_a_corrupted_coefficient_is_caught(self, monkeypatch, index, message, n):
        real = matrix._charpoly_mod

        def corrupted(rows, p):
            out = real(rows, p)
            out[len(rows) - index] = (out[len(rows) - index] + 1) % p
            return out

        monkeypatch.setattr(matrix, "_charpoly_mod", corrupted)
        with pytest.raises(ContractError, match=message):
            charpoly_int_coeffs(jacobi(list(range(n))))


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
