"""Shared strategies and helpers for the tests."""
from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from ffc import (
    RamanujanCertificate,
    RatMatrix,
    RatPoly,
    as_quad,
    count_roots_in_mult,
    deflate_trivial,
    ramanujan_bound,
    root_multiplicity_at,
)
from ffc.graphs import NOT_RAMANUJAN, STRICT, WITH_BOUNDARY


def fractions_st(max_num: int = 6, max_den: int = 4):
    """Rationals with small numerators and denominators."""
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def real_rooted_st(min_degree: int = 1, max_degree: int = 5):
    """Monic real-rooted polynomials built from explicit rational roots."""
    return st.lists(
        fractions_st(), min_size=min_degree, max_size=max_degree
    ).map(RatPoly.from_roots)


def nonneg_rooted_st(min_degree: int = 1, max_degree: int = 5):
    """Monic polynomials whose roots are all nonnegative rationals."""
    return st.lists(
        fractions_st().map(abs), min_size=min_degree, max_size=max_degree
    ).map(RatPoly.from_roots)


def grid_matrix(grid) -> RatMatrix:
    return RatMatrix.from_rows(
        tuple(tuple(Fraction(v) for v in row) for row in grid)
    )


def symmetric_grid_st(d: int, span: int = 4):
    """Symmetric integer matrices of side d."""
    n_free = d * (d + 1) // 2

    def build(vals):
        it = iter(vals)
        grid = [[0] * d for _ in range(d)]
        for i in range(d):
            for j in range(i, d):
                v = next(it)
                grid[i][j] = v
                grid[j][i] = v
        return grid_matrix(grid)

    return st.lists(
        st.integers(min_value=-span, max_value=span),
        min_size=n_free,
        max_size=n_free,
    ).map(build)


# -- reference implementations of retired library paths --------------------------


def faddeev_leverrier(rows) -> tuple:
    """Ascending coefficients of det(xI - A) by the Faddeev-LeVerrier
    recurrence, over int or Fraction entries.  O(n**4); the characteristic
    polynomial path the library used before its modular kernel."""
    n = len(rows)
    c = [0] * (n + 1)
    c[n] = 1
    work = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        # work <- A @ work + c[n-k+1] * I
        cols = list(zip(*work))
        work = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in rows]
        for i in range(n):
            work[i][i] += c[n - k + 1]
        t = sum(rows[i][j] * work[j][i] for i in range(n) for j in range(n))
        if isinstance(t, int):
            assert t % k == 0, "Faddeev-LeVerrier trace division not exact"
            c[n - k] = -(t // k)
        else:
            c[n - k] = -t / k
    return tuple(c)


def sturm_certify(g) -> RamanujanCertificate:
    """The certifier the library used before its squared-spectrum one: the
    characteristic polynomial of the full adjacency by Faddeev-LeVerrier, and
    Sturm counts with endpoints in Q(sqrt(m-1))."""
    cp = RatPoly.from_coeffs(faddeev_leverrier(g.adjacency().int_rows()))
    deflated = deflate_trivial(cp, g.m, g.mode == "bipartite")
    bound = ramanujan_bound(g.m) if g.m >= 2 else as_quad(0)
    if deflated.degree == 0:
        interior = boundary = 0
    elif g.m == 1:
        interior = 0
        boundary = root_multiplicity_at(deflated, Fraction(0))
    else:
        interior = count_roots_in_mult(deflated, -bound, bound, open_interval=True)
        boundary = root_multiplicity_at(deflated, bound) + root_multiplicity_at(
            deflated, -bound
        )
    if interior == deflated.degree:
        verdict = STRICT
    elif boundary and interior + boundary == deflated.degree:
        verdict = WITH_BOUNDARY
    else:
        verdict = NOT_RAMANUJAN
    return RamanujanCertificate(
        mode=g.mode,
        d=g.d,
        m=g.m,
        char_poly=cp,
        deflated=deflated,
        bound=bound,
        interior_count=interior,
        boundary_count=boundary,
        verdict=verdict,
    )
