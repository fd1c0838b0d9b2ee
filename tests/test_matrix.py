"""Rational matrices, characteristic polynomials, and dilations."""
from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
from ffc.errors import BudgetError
from ffc.matrix import (
    _KRYLOV_MIN_N,
    _MERSENNE_EXPONENTS,
    _charpoly_mod,
    _hessenberg_mod,
    _start_vector,
    charpoly_int_coeffs,
    krylov_terms,
)
from support import (
    charpoly_crt_oracle,
    faddeev_leverrier,
    fractions_st,
    grid_matrix,
    kernel_calls,
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


# the modulus of every matching union at the benchmark sizes
MERSENNE_61 = (1 << 61) - 1


@contextmanager
def moduli():
    """The modulus of each ``_charpoly_mod`` call, in order."""
    used = []
    real = matrix._charpoly_mod

    def recorded(rows, p, terms=None):
        used.append(p)
        return real(rows, p, terms)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix, "_charpoly_mod", recorded)
        yield used


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
        assert p.coeff(2) == -sum(m.rows[i][i] for i in range(3))


class TestAgainstFaddeevLeVerrier:
    @given(square_st(st.integers(min_value=-50, max_value=50), 7))
    def test_integer_matrices(self, rows):
        assert charpoly_int_coeffs(rows) == faddeev_leverrier(rows)

    def test_entries_that_need_a_large_modulus(self):
        rng = SplitMix64(5)
        for n in (2, 5, 8):
            rows = [[rng.below(2 * 10**15) - 10**15 for _ in range(n)] for _ in range(n)]
            with moduli() as used:
                assert charpoly_int_coeffs(rows) == faddeev_leverrier(rows)
            assert len(used) == 1 and used[0] > MERSENNE_61

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


def regular(grid, r):
    """The grid with its diagonal refilled so that every row sums to r; a
    symmetric grid stays symmetric."""
    for i, row in enumerate(grid):
        row[i] = r - sum(v for j, v in enumerate(row) if j != i)
    return grid


def regular_int_st(min_n: int, max_n: int, span: int = 9):
    """Symmetric integer grids of side min_n..max_n whose rows all sum to one
    r: the grids the Krylov route takes."""
    return st.tuples(
        symmetric_int_st(min_n, max_n, span), st.integers(min_value=-span, max_value=span)
    ).map(lambda case: regular(*case))


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
    all with rows summing to one r, conjugated by a random permutation: each
    eigenvalue of B is repeated, r included, so det(xI - A) has square
    factors."""
    k = draw(st.integers(min_value=1, max_value=3))
    reps = draw(st.integers(min_value=2, max_value=3))
    rest = draw(st.integers(min_value=max(0, _KRYLOV_MIN_N - k * reps), max_value=_KRYLOV_MIN_N))
    r = draw(st.integers(min_value=-3, max_value=3))
    b = regular(draw(symmetric_grid_st(k, 3)).int_rows(), r)
    blocks = [b] * reps
    if rest:
        blocks.append(regular(draw(symmetric_grid_st(rest, 3)).int_rows(), r))
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


P = MERSENNE_61
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
    assert calls["_berlekamp_massey"] == 1
    return "krylov"


def krylov_rank(rows) -> int:
    """The dimension of the Krylov space of ``_start_vector(n)`` under the
    grid, by Fraction elimination of x, A x, ..., A**(n-1) x."""
    x = _start_vector(len(rows))
    basis: list[list[Fraction]] = []
    for _ in rows:
        v = list(map(Fraction, x))
        for b in basis:
            lead = next(k for k, c in enumerate(b) if c)
            if v[lead]:
                f = v[lead] / b[lead]
                v = [a - f * c for a, c in zip(v, b)]
        if not any(v):
            break
        basis.append(v)
        x = [sum(a * b for a, b in zip(row, x)) for row in rows]
    return len(basis)


def expected_route(rows) -> str:
    """The route a symmetric grid with equal row sums, of side at least the
    cutoff, should take: (x - r) times the minimal polynomial of the Krylov
    terms has degree one more than the Krylov space, and the gap to n picks
    the route.  The space lies in the complement of the all-ones vector, so
    it is at most the square-free part of det(xI - A) / (x - r)."""
    chi = RatPoly.from_coeffs(faddeev_leverrier(rows))
    rank = krylov_rank(rows)
    assert rank <= squarefree_part(chi.div_exact(poly(1, -sum(rows[0])))).degree
    gap = len(rows) - 1 - rank
    return "krylov" if not gap else "completion" if gap <= 2 else "hessenberg"


class TestKrylovRoute:
    @given(regular_int_st(_KRYLOV_MIN_N, _KRYLOV_MIN_N + 4))
    def test_regular_grids_at_and_above_the_cutoff(self, rows):
        assert charpoly_int_coeffs(rows) == faddeev_leverrier(rows)
        assert route(rows) == expected_route(rows)

    @given(repeated_blocks_st())
    def test_repeated_blocks(self, rows):
        assert charpoly_int_coeffs(rows) == faddeev_leverrier(rows)
        assert route(rows) == expected_route(rows)

    # each block has its diagonal refilled so that its rows sum to 2: a path
    # on k vertices then has the simple eigenvalues 2 cos(pi j / k), and 2 is
    # an eigenvalue once per block, which the divisor (x - 2) f holds twice
    @pytest.mark.parametrize(
        "blocks, want",
        [
            # one path: all n eigenvalues simple
            ([jacobi([0] * 13)], "krylov"),
            # two paths: only 2 repeats
            ([jacobi([0] * 6), jacobi([0] * 7)], "krylov"),
            # 2 three times: one factor x - 2 missing
            ([[[0]]] * 2 + [jacobi([0] * 10)], "completion"),
            # 2 four times: a factor (x - 2)**2 missing
            ([[[0]]] * 3 + [jacobi([0] * 9)], "completion"),
            # a 2x2 block with eigenvalues 2 and 0, twice: x - 2 and x missing
            ([[[1, 1], [1, 1]]] * 2 + [jacobi([0] * 9)], "completion"),
            # the path on 3 vertices (2, 1, -1) twice: three factors missing
            ([jacobi([0] * 3)] * 2 + [jacobi([0] * 7)], "hessenberg"),
            # 2 I: x is an eigenvector, so the divisor is (x - 2)**2
            ([[[0]]] * 14, "hessenberg"),
        ],
    )
    def test_forced_routes(self, blocks, want):
        blocks = [regular([row[:] for row in b], 2) for b in blocks]
        n = sum(map(len, blocks))
        rows = conjugated_sum(blocks, uniform_permutation(n, SplitMix64(n)).image)
        assert route(rows) == want == expected_route(rows)
        assert charpoly_int_coeffs(rows) == faddeev_leverrier(rows)

    def test_small_nonsymmetric_or_irregular_grids_skip_krylov(self):
        small = regular(jacobi(list(range(_KRYLOV_MIN_N - 1))), 1)
        skew = regular(jacobi(list(range(_KRYLOV_MIN_N + 2))), 1)
        skew[0][1] += 1
        skew[0][0] -= 1
        # symmetric, but its rows sum to 1, 2, ..., n - 1 and n - 2
        irregular = jacobi(list(range(_KRYLOV_MIN_N + 2)))
        for rows in (small, skew, irregular):
            with kernel_calls() as calls:
                assert charpoly_int_coeffs(rows) == faddeev_leverrier(rows)
            assert calls == Counter(_hessenberg_mod=1)

    def test_entries_that_need_a_large_modulus(self):
        rng = SplitMix64(9)
        n = _KRYLOV_MIN_N
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.below(2 * 10**15) - 10**15
        regular(rows, 10**15)
        with kernel_calls() as calls, moduli() as used:
            got = charpoly_int_coeffs(rows)
        assert got == faddeev_leverrier(rows)
        assert len(used) == 1 and used[0] > MERSENNE_61
        assert calls == Counter(_berlekamp_massey=1)

    def test_union_adjacencies_agree_with_hessenberg(self):
        rng = SplitMix64(3)
        for _ in range(20):
            for rows in (
                sample_nonbipartite(24, 3, rng).grid(),
                _gram(sample_bipartite(20, 3, rng).grid()),
            ):
                assert _charpoly_mod(rows, P) == _hessenberg_mod(rows, P)

    @pytest.mark.parametrize("n", [12, 16, 24, 40, 64])
    def test_dense_grids_agree_with_hessenberg(self, n):
        rng = SplitMix64(n)
        for _ in range(2):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = rng.below(19) - 9
            regular(rows, rng.below(19) - 9)
            with kernel_calls() as calls:
                got = _charpoly_mod(rows, P)
            assert calls == Counter(_berlekamp_massey=1)
            assert got == _hessenberg_mod(rows, P)


@st.composite
def regular_with_terms_st(draw):
    """A symmetric integer grid whose rows all sum to one r (its diagonal
    fills each row up), and the integer Krylov terms of a start vector
    orthogonal to the all-ones vector, zero or not; the off-diagonal part is
    drawn small enough, or in repeated blocks, that many grids repeat an
    eigenvalue."""
    rows = draw(st.one_of(symmetric_int_st(1, 14, span=2), repeated_blocks_st()))
    n = len(rows)
    regular(rows, draw(st.integers(min_value=-5, max_value=5)))
    h = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n))
    x = [a - b for a, b in zip(h, h[1:] + h[:1])]

    def product(y):
        return [sum(map(lambda a, b: a * b, row, y)) for row in rows]

    return rows, list(krylov_terms(product, x, n - 1))


class TestHeldTerms:
    """Integer Krylov terms the caller already holds, of a start vector
    orthogonal to the all-ones vector of a grid with equal row sums."""

    @settings(max_examples=300)
    @given(regular_with_terms_st())
    def test_terms_give_the_characteristic_polynomial(self, case):
        rows, terms = case
        assert charpoly_int_coeffs(rows, terms) == faddeev_leverrier(rows)
        assert char_poly(rows, terms) == char_poly(rows)

    def test_every_route_of_the_ladder(self):
        # with a zero start vector only the trivial factor x - r is known
        for n, want in ((1, "krylov"), (2, "completion"), (3, "completion"), (4, "hessenberg")):
            rows = [[1] * n for _ in range(n)]
            with kernel_calls() as calls:
                got = _charpoly_mod(rows, P, [0] * (2 * n - 2))
            assert got == _hessenberg_mod(rows, P)
            assert calls["_berlekamp_massey"] == 1
            assert calls["_complete_by_traces"] == (want == "completion")
            assert calls["_hessenberg_mod"] == (want == "hessenberg")

    def test_unequal_row_sums_are_refused(self):
        with pytest.raises(ContractError, match="equal row sums"):
            charpoly_int_coeffs([[1, 0], [0, 2]], [])


@st.composite
def modulus_grids_st(draw):
    """Grids of side 1-20 with entries up to 10**60 in size, dense or sparse,
    symmetric or not, with equal row sums or not, and the repeated blocks
    that force each Krylov route, scaled up so that they need large moduli
    too."""
    top = draw(st.sampled_from([9, 10**6, 10**15, 10**60]))
    kind = draw(st.sampled_from(["square", "symmetric", "regular", "blocks"]))
    if kind == "blocks":
        scale = draw(st.integers(min_value=1, max_value=top))
        return [[v * scale for v in row] for row in draw(repeated_blocks_st())]
    n = draw(st.integers(min_value=1, max_value=20))
    entry = st.integers(min_value=-top, max_value=top)
    if draw(st.booleans()):
        entry = st.just(0) | entry
    cells = draw(st.lists(entry, min_size=n * n, max_size=n * n))
    rows = [cells[i * n:(i + 1) * n] for i in range(n)]
    if kind != "square":
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    if kind == "regular":
        regular(rows, draw(entry))
    return rows


class TestMersenneModulus:
    @settings(max_examples=500)
    @given(modulus_grids_st())
    def test_one_modulus_matches_the_crt(self, rows):
        with moduli() as used:
            got = charpoly_int_coeffs(rows)
        assert got == charpoly_crt_oracle(rows)
        assert len(used) == 1

    # the bound of [[a]] is 1 + |a|: 2**60 - 1 is the largest that 2**61 - 1
    # covers, and the lift of the constant term -a sits next to p / 2
    @pytest.mark.parametrize("a, e", [(2**60 - 2, 61), (2**60 - 1, 89)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_the_switch_from_61_to_89_bits(self, a, e, sign):
        rows = [[sign * a]]
        with moduli() as used:
            assert charpoly_int_coeffs(rows) == faddeev_leverrier(rows) == (-sign * a, 1)
        assert used == [(1 << e) - 1]

    @pytest.mark.parametrize(
        "mode, d, e", [("plain", 24, 61), ("bipartite", 20, 61), ("plain", 48, 89)]
    )
    def test_one_kernel_call_per_union(self, mode, d, e):
        rng = SplitMix64(1)
        if mode == "plain":
            rows = sample_nonbipartite(d, 3, rng).grid()
        else:
            rows = _gram(sample_bipartite(d, 3, rng).grid())
        with moduli() as used:
            got = charpoly_int_coeffs(rows)
        assert used == [(1 << e) - 1]
        assert got == charpoly_crt_oracle(rows)

    def test_a_bound_past_the_last_exponent_is_refused(self, monkeypatch):
        monkeypatch.setattr(matrix, "_MERSENNE_EXPONENTS", (61,))
        rows = [[2**60 - 1]]
        with moduli() as used, pytest.raises(BudgetError, match="past 2\\*\\*61 - 1"):
            charpoly_int_coeffs(rows)
        assert used == []
        assert charpoly_int_coeffs([[2**60 - 2]]) == (-(2**60 - 2), 1)

    def test_exponents_ascend_from_61(self):
        assert _MERSENNE_EXPONENTS[0] == 61
        assert list(_MERSENNE_EXPONENTS) == sorted(set(_MERSENNE_EXPONENTS))


class TestCoefficientChecks:
    @pytest.mark.parametrize("index, message", [(1, "trace"), (2, r"tr\(A\^2\)")])
    @pytest.mark.parametrize("n", [3, _KRYLOV_MIN_N + 1])
    def test_a_corrupted_coefficient_is_caught(self, monkeypatch, index, message, n):
        real = matrix._charpoly_mod

        def corrupted(rows, p, terms=None):
            out = real(rows, p, terms)
            out[len(rows) - index] = (out[len(rows) - index] + 1) % p
            return out

        monkeypatch.setattr(matrix, "_charpoly_mod", corrupted)
        with pytest.raises(ContractError, match=message):
            charpoly_int_coeffs(regular(jacobi(list(range(n))), 1))


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
