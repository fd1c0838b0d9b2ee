"""Shared strategies and helpers for the tests."""
from __future__ import annotations

import cmath
import functools
import math
import os
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations, product
from math import factorial
from pathlib import Path

import pytest
from hypothesis import strategies as st

import ffc
import ffc.matrix as matrix
from ffc import (
    MatchingUnion,
    ParameterError,
    Permutation,
    RamanujanCertificate,
    RatMatrix,
    RandomSwap,
    RatPoly,
    SplitMix64,
    SwapProgram,
    as_quad,
    char_poly,
    derive_seed,
    sample_bipartite,
    sample_nonbipartite,
    dilation,
    count_roots_in_mult,
    deflate_trivial,
    leaf_distribution,
    ramanujan_bound,
    relabel_grid,
    SturmChain,
    count_roots_in,
    is_real_rooted,
    isolate_real_roots,
    root_multiplicity_at,
    sturm_chain,
)
from ffc.convolution import _from_series, _series
from ffc.graphs import (
    NOT_RAMANUJAN,
    STRICT,
    WITH_BOUNDARY,
    _deflate_int,
    _graeffe_square,
    _gram,
    _int_coeffs,
    _split_at,
    union_grid,
)
from ffc.matrix import _charpoly_mod, _grid_sum, charpoly_int_coeffs
from ffc.perms import _sample_image
from ffc.quadrature import weighted_charpoly_average
from ffc.search import SearchReport, _union_image
from ffc.sturm import NEG_INF, POS_INF, _homogenised


def subprocess_env():
    """The environment with the imported ``ffc`` first on ``PYTHONPATH``, so a
    child interpreter runs the code under test, not another installed copy."""
    env = dict(os.environ)
    package_root = str(Path(ffc.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def run_cli_with_timeout(*argv):
    """Run ``python -m ffc ARGV...`` in a child process; a run that does not
    finish within 30 seconds fails the test instead of hanging it."""
    return subprocess.run(
        [sys.executable, "-m", "ffc", *argv],
        capture_output=True, text=True, env=subprocess_env(), timeout=30,
    )


def fractions_st(max_num: int = 6, max_den: int = 4):
    """Rationals with small numerators and denominators."""
    return st.builds(
        Fraction,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


@st.composite
def matching_unions_st(draw, max_d: int = 6, max_m: int = 4):
    """Small matching unions in either mode."""
    mode = draw(st.sampled_from(["bipartite", "nonbipartite"]))
    if mode == "bipartite":
        d = draw(st.integers(min_value=1, max_value=max_d))
    else:
        d = 2 * draw(st.integers(min_value=1, max_value=max_d // 2))
    m = draw(st.integers(min_value=1, max_value=max_m))
    images = st.permutations(range(d)).map(lambda im: Permutation(tuple(im)))
    return MatchingUnion(mode, d, m, tuple(draw(images) for _ in range(m)))


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


def random_symmetric_grid(rng, d: int, span: int = 3) -> RatMatrix:
    """Symmetric integer matrix of side d, entries uniform in [-span, span]."""
    grid = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            v = int(rng.below(2 * span + 1)) - span
            grid[i][j] = grid[j][i] = v
    return grid_matrix(grid)


def criterion_09_pairs() -> list[tuple[RatMatrix, RatMatrix]]:
    """Acceptance criterion 9's 20 symmetric pairs, sides 2..6."""
    rng = SplitMix64(909)
    pairs = []
    for i in range(20):
        d = 2 + i % 5
        pairs.append((random_symmetric_grid(rng, d), random_symmetric_grid(rng, d)))
    return pairs


def square_grids_st(entries, d: int, count: int):
    """``count`` square matrices of side d with entries from ``entries``."""
    grid = st.lists(
        st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d
    )
    return st.lists(grid.map(grid_matrix), min_size=count, max_size=count)


def swap_program_st(d: int, max_swaps: int = 4):
    """Programs on d points with rational swap probabilities."""
    swap = st.tuples(
        st.integers(min_value=0, max_value=d - 1),
        st.integers(min_value=0, max_value=d - 1),
        st.fractions(min_value=0, max_value=1, max_denominator=6),
    ).filter(lambda raw: raw[0] != raw[1])
    return st.lists(swap, max_size=max_swaps).map(
        lambda raw: SwapProgram(d, tuple(RandomSwap(*sw) for sw in raw))
    )


def bipartite_program_st(d: int, max_swaps: int = 2):
    """Programs on the 2d vertices of a (d, d) bipartition, left vertices
    0..d-1 and right ones d..2d-1, with up to ``max_swaps`` swaps a side,
    none of which crosses sides.  Needs d >= 2."""
    side = swap_program_st(d, max_swaps)
    return st.tuples(side, side).map(
        lambda lr: SwapProgram(
            2 * d,
            lr[0].swaps
            + tuple(RandomSwap(sw.s + d, sw.t + d, sw.prob) for sw in lr[1].swaps),
        )
    )


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


_PRIME_CEILING = 1 << 62
# deterministic Miller-Rabin witnesses for every n < 3.3e24
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin primality for odd n > 41, deterministic below 3.3e24."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _prime(i: int) -> int:
    """The i-th prime below 2**62, counting down; found on first use."""
    c = (_prime(i - 1) if i else _PRIME_CEILING + 1) - 2
    while not _is_prime(c):
        c -= 2
    return c


def charpoly_crt_oracle(rows) -> tuple:
    """The integer characteristic polynomial the library computed before one
    Mersenne modulus: ``_charpoly_mod`` modulo as many primes below 2**62 as
    the row-norm bound needs, glued by the Chinese remainder theorem."""
    bound = 1
    for row in rows:
        sq = sum(v * v for v in row)
        r = math.isqrt(sq)
        bound *= 1 + r + (r * r < sq)
    coeffs: list[int] = []
    modulus, i = 1, 0
    while modulus <= 2 * bound:
        p = _prime(i)
        i += 1
        residues = _charpoly_mod(rows, p)
        if coeffs:
            inv = pow(modulus, -1, p)
            coeffs = [a + modulus * ((b - a) * inv % p) for a, b in zip(coeffs, residues)]
        else:
            coeffs = residues
        modulus *= p
    half = modulus // 2
    return tuple(c - modulus if c > half else c for c in coeffs)


def deflate_trivial_oracle(p: RatPoly, m, bipartite: bool) -> RatPoly:
    """``deflate_trivial`` before it used synthetic division: a Fraction
    divmod by x - m, and by x + m in bipartite mode."""
    out = p
    for r in [Fraction(m), Fraction(-m)] if bipartite else [Fraction(m)]:
        out = out.div_exact(RatPoly.from_roots([r]))
    return out


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
        for name in ("_berlekamp_massey", "_complete_by_traces", "_hessenberg_mod"):
            mp.setattr(matrix, name, counted(name, getattr(matrix, name)))
        yield calls


def grid_certify(g) -> RamanujanCertificate:
    """``certify`` before the union's Krylov terms: the characteristic
    polynomial of the grid alone, N N^T or A, by ``charpoly_int_coeffs``."""
    bound = ramanujan_bound(g.m) if g.m >= 2 else as_quad(0)
    if g.mode == "bipartite":
        q = char_poly(_gram(g.grid()))
        squared = _deflate_int(_int_coeffs(q), g.m * g.m)
        cp = q.substitute_square()
        deflated = RatPoly.from_coeffs(squared).substitute_square()
        below, at = _split_at(squared, 4 * (g.m - 1))
        interior, boundary = 2 * below, 2 * at
    else:
        cp = char_poly(g.grid())
        rest = _deflate_int(_int_coeffs(cp), g.m)
        deflated = RatPoly.from_coeffs(rest)
        interior, boundary = _split_at(_graeffe_square(rest), 4 * (g.m - 1))
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


def inertia_verdict(g) -> str | None:
    """STRICT or NOT_RAMANUJAN from the inertia of S = G - 4(m-1) I, or None
    when the inertia test cannot tell and ``certify`` must decide.

    G is the Gram matrix of ``g.grid()``: N N^T in bipartite mode, A**2 in
    nonbipartite mode (A is symmetric), so its eigenvalues are the squared
    eigenvalues the certificate compares against 4(m-1).  The trivial one
    gives S the eigenvalue (m-2)**2 > 0 for m != 2, so the union is strictly
    Ramanujan exactly when S has one positive eigenvalue and no zero one.
    Fraction-free (Bareiss) elimination without pivoting yields the leading
    principal minors D_k of S as its pivots, and by Jacobi's rule each sign
    agreement of D_{k-1}, D_k counts one positive eigenvalue.  The second
    one stops the elimination: by Cauchy interlacing the leading k x k block
    already forces two positive eigenvalues on S.  A zero pivot (a boundary
    eigenvalue, a singular leading minor, or m = 2) gives None.
    """
    s = _gram(g.grid())
    t = 4 * (g.m - 1)
    for i, row in enumerate(s):
        row[i] -= t
    # S stays symmetric under elimination, so only entries j >= i are updated;
    # entry (i, k) below the diagonal is read as (k, i)
    prev, positive = 1, 0
    for k, rk in enumerate(s):
        pivot = rk[k]
        if not pivot:
            return None
        if (pivot > 0) == (prev > 0):
            positive += 1
            if positive == 2:
                return NOT_RAMANUJAN
        for i in range(k + 1, len(s)):
            ri, f = s[i], rk[i]
            ri[i:] = [(pivot * a - f * b) // prev for a, b in zip(ri[i:], rk[i:])]
        prev = pivot
    return STRICT if positive == 1 else None


def inertia_search(mode, d, m, max_trials, seed, allow_boundary=False) -> SearchReport:
    """``rejection_search`` before the Krylov pass: the Bareiss inertia test
    skips the trials it proves NOT_RAMANUJAN, and ``grid_certify`` decides
    the rest.  The wall time reads 0."""
    sampler = sample_bipartite if mode == "bipartite" else sample_nonbipartite
    for trial in range(max_trials):
        g = sampler(d, m, SplitMix64(derive_seed(seed, trial)))
        if inertia_verdict(g) == NOT_RAMANUJAN:
            continue
        cert = grid_certify(g)
        if cert.verdict == STRICT or (allow_boundary and cert.verdict == WITH_BOUNDARY):
            return SearchReport(mode, d, m, trial + 1, 1, trial, g, cert, 0.0)
    return SearchReport(mode, d, m, max_trials, 0, None, None, None, 0.0)


# The loops the permutation averages ran before the integer weighted-average
# kernel: Fraction grids, a Fraction weight multiplied into every coefficient,
# and Faddeev-LeVerrier for each characteristic polynomial.


def _fraction_grid(m) -> list:
    return [list(row) for row in m.rows]


def _summed(grids) -> list:
    n = len(grids[0])
    return [[sum(g[i][j] for g in grids) for j in range(n)] for i in range(n)]


def perm_average_oracle(matrices) -> tuple[RatPoly, int]:
    """Average of char(sum_i P_i A_i P_i^T) over uniform permutations with
    P_1 pinned to the identity, and the number of terms."""
    grids = [_fraction_grid(m) for m in matrices]
    n = len(grids[0])
    acc = [Fraction(0)] * (n + 1)
    terms = 0
    for tpl in product(permutations(range(n)), repeat=len(grids) - 1):
        conj = [grids[0]] + [relabel_grid(g, im) for g, im in zip(grids[1:], tpl)]
        for k, c in enumerate(faddeev_leverrier(_summed(conj))):
            acc[k] += c
        terms += 1
    return RatPoly.from_coeffs([c / terms for c in acc]), terms


def swap_average_oracle(matrices, programs) -> tuple[RatPoly, int]:
    """Average of char(sum_i Q_i A_i Q_i^T), Q_i from program i's leaf
    distribution, and the number of nonzero-weight terms."""
    grids = [_fraction_grid(m) for m in matrices]
    n = len(grids[0])
    dists = [leaf_distribution(prog).items() for prog in programs]
    acc = [Fraction(0)] * (n + 1)
    terms = 0
    for combo in product(*dists):
        weight = Fraction(1)
        conj = []
        for (perm, pr), g in zip(combo, grids):
            weight *= pr
            conj.append(relabel_grid(g, perm.image))
        if weight == 0:
            continue
        for k, c in enumerate(faddeev_leverrier(_summed(conj))):
            acc[k] += weight * c
        terms += 1
    return RatPoly.from_coeffs(acc), terms


def bip_pair_average_oracle(a, b) -> tuple[RatPoly, int]:
    """Average over permutation pairs (P, S) of char([[0, N], [N^T, 0]]) with
    N = A + P B S^T, from the 2d x 2d dilation itself."""
    ga, gb = _fraction_grid(a), _fraction_grid(b)
    d = len(ga)
    zero = Fraction(0)
    acc = [Fraction(0)] * (2 * d + 1)
    terms = 0
    for pimg, simg in product(permutations(range(d)), repeat=2):
        inner = [row[:] for row in ga]
        for i in range(d):
            for j in range(d):
                inner[pimg[i]][simg[j]] += gb[i][j]
        total = [[zero] * d + inner[i] for i in range(d)] + [
            [inner[i][j] for i in range(d)] + [zero] * d for j in range(d)
        ]
        for k, c in enumerate(faddeev_leverrier(total)):
            acc[k] += c
        terms += 1
    return RatPoly.from_coeffs([c / terms for c in acc]), terms


def dilation_conditional_oracle(d: int, dists) -> tuple[RatPoly, int]:
    """The descent's bipartite conditional before it built unions from placed
    images: each term relabels the 2d x 2d dilation of the identity matching
    by its program images and takes the characteristic polynomial of the sum.
    ``dists`` maps program images to probabilities, one dict per program."""
    base = dilation(RatMatrix.identity(d)).int_rows()

    def charpoly(images):
        return charpoly_int_coeffs(_grid_sum([relabel_grid(base, im) for im in images]))

    return weighted_charpoly_average(
        [dist.items() for dist in dists], charpoly, max_evals=10**9
    )


def conditional_average_oracle(mode: str, d: int, dists) -> tuple[RatPoly, int]:
    """``search._conditional_average`` before it returned integers:
    the RatPoly of ``weighted_charpoly_average`` over the unions' integer
    characteristic polynomials (of N N^T in bipartite mode, with x**2
    substituted), and the number of terms."""

    def charpoly(images):
        grid = union_grid(mode, d, images)
        return charpoly_int_coeffs(grid if mode == "nonbipartite" else _gram(grid))

    placed = [[(_union_image(mode, d, im), pr) for im, pr in dist.items()] for dist in dists]
    poly, terms = weighted_charpoly_average(placed, charpoly, max_evals=10**9)
    return (poly if mode == "nonbipartite" else poly.substitute_square()), terms


# The convolution kernel before the power-series rescaling: the closed-form
# weights applied to each product a_i b_j, and an m-fold convolution as m - 1
# repeated convolutions.


def _signed(p: RatPoly, d: int) -> list[Fraction]:
    """The signed coefficient vector a with p = sum x**(d-i) (-1)**i a_i."""
    if p.degree > d:
        raise ParameterError(f"degree {p.degree} exceeds level {d}")
    return [(-1) ** i * p.coeff(d - i) for i in range(d + 1)]


def convolve_oracle(p: RatPoly, q: RatPoly, d: int, squared: bool) -> RatPoly:
    """Sym (``squared`` false) or asym convolution at level d, weight by weight."""
    ap, aq = _signed(p, d), _signed(q, d)
    out = []
    for k in range(d + 1):
        c = Fraction(0)
        for i in range(k + 1):
            j = k - i
            w = Fraction(
                factorial(d - i) * factorial(d - j), factorial(d) * factorial(d - k)
            )
            c += (w * w if squared else w) * ap[i] * aq[j]
        out.append(c)
    return RatPoly.from_coeffs((-1) ** (d - k) * out[d - k] for k in range(d + 1))


def m_fold_oracle(p: RatPoly, m: int, d: int, squared: bool) -> RatPoly:
    """p convolved with itself m times, one convolution after another."""
    acc = p
    for _ in range(m - 1):
        acc = convolve_oracle(acc, p, d, squared)
    return acc


def series_power_oracle(s: list[int], m: int) -> list[int]:
    """The integer series s**m truncated to len(s) terms, by Miller's
    recurrence started at b_0**m, as ``convolution._series_power`` did before
    it started at b_0**min(m, K): every entry then carries b_0**(m-k)."""
    n = len(s)
    v = next((i for i, x in enumerate(s) if x), n)
    out = [0] * n
    if v * m >= n:
        return out
    b = s[v:]
    c = [b[0] ** m]
    for k in range(1, n - v * m):
        acc = sum(((m + 1) * j - k) * b[j] * c[k - j] for j in range(1, k + 1))
        c.append(acc // (k * b[0]))
    out[v * m:] = c
    return out


def series_m_fold_oracle(p: RatPoly, m: int, d: int, squared: bool) -> RatPoly:
    """The m-fold convolution through ``series_power_oracle`` and den**m."""
    s, den = _series(p, d, squared)
    return _from_series(series_power_oracle(s, m), den**m, d, squared)


# Root location before the float-guided bracket: Sturm bisection of the
# Cauchy interval, and the inverse Cauchy transform bisected on Fractions.


def cauchy_root_bound_oracle(p: RatPoly) -> Fraction:
    """1 + max |c_i| / |c_n| compared on Fractions, as the bound was before
    it was read off the primitive integer coefficients."""
    return 1 + max(abs(c) for c in p.coeffs[:-1]) / abs(p.lead)


def max_root_bracket_oracle(p: RatPoly, width=Fraction(1, 1024)) -> tuple:
    """(lo, hi] from bisecting (-B-1, B] with Sturm counts until hi - lo <= width.

    The count of roots in (mid, hi] is V(mid) - V(hi) for the chain's sign
    variations V; V(hi) is kept from the step that set hi.
    """
    chain = sturm_chain(p)
    bound = cauchy_root_bound_oracle(p)
    lo, hi = -bound - 1, bound
    at_hi = chain.variations_right(hi)
    if chain.variations_right(lo) == at_hi:
        raise ParameterError("polynomial has no real roots")
    while hi - lo > width:
        mid = (lo + hi) / 2
        at_mid = chain.variations_right(mid)
        if at_mid > at_hi:
            lo = mid
        else:
            hi, at_hi = mid, at_mid
    return lo, hi


def bisect_max_root_oracle(p: RatPoly, bound: Fraction, width: Fraction) -> tuple:
    """The bisection fallback of ``max_root_bracket`` before it shared the
    top-root bisection: a full count of (mid, hi] at every step."""
    chain = sturm_chain(p)
    lo, hi = -bound - 1, bound
    if chain.count_half_open(lo, hi) == 0:
        raise ParameterError("polynomial has no real roots")
    while hi - lo > width:
        mid = (lo + hi) / 2
        if chain.count_half_open(mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    return lo, hi


def inverse_cauchy_oracle(p: RatPoly, w, tol: float = 1e-12) -> float:
    """K(w) bisected on Fractions from [top + 1/(d w), top + 1/w]."""
    w = Fraction(w)
    if p.lead < 0:
        p = p.scale(-1)
    d = p.degree
    root_lo, root_hi = max_root_bracket_oracle(p, Fraction(1, 4 * d) / w)
    lo = root_lo + Fraction(1, d) / w
    hi = root_hi + 1 / w
    pd = p.derivative()
    half_tol = Fraction(tol) / 2
    while hi - lo > half_tol:
        mid = (lo + hi) / 2
        if pd(mid) > d * w * p(mid):
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def k_poly_oracle(p: RatPoly, w) -> RatPoly:
    """d w p - p' built from Fraction polynomials, with p made to lead
    positively: the polynomial ``inverse_cauchy`` bracketed before it was
    built on integers."""
    if p.lead < 0:
        p = p.scale(-1)
    return p.scale(p.degree * Fraction(w)) - p.derivative()


def has_negative_root_oracle(p: RatPoly) -> bool:
    """A Sturm count of the roots in (-B-1, 0), B the Cauchy bound: how
    ``check_asym_bound`` refused negative roots before it read the sign
    pattern of the coefficients."""
    if p.degree < 1:
        return False
    floor = -cauchy_root_bound_oracle(p) - 1
    return count_roots_in(p, floor, Fraction(0), open_interval=True) > 0


# The Fraction gcd and Yun's square-free decomposition, which the library
# used before it read multiplicities off the gcd tower of its integer chains,
# and the multiplicity queries built on them.


def poly_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    """Monic greatest common divisor over the rationals, by Euclid."""
    if a.is_zero and b.is_zero:
        raise ParameterError("gcd(0, 0) is undefined")
    while not b.is_zero:
        _, r = divmod(a, b)
        a, b = b, r
    return a.monic() if a.degree > 0 else RatPoly.one()


def squarefree_part(p: RatPoly) -> RatPoly:
    """Monic polynomial with the same roots as p, all simple."""
    if p.is_zero:
        raise ParameterError("zero polynomial has no square-free part")
    if p.degree == 0:
        return RatPoly.one()
    return p.div_exact(poly_gcd(p, p.derivative())).monic()


def yun_decomposition(p: RatPoly) -> list[tuple[RatPoly, int]]:
    """Yun's algorithm: monic, square-free, pairwise coprime factors with
    their multiplicities, in increasing multiplicity."""
    if p.is_zero:
        raise ParameterError("zero polynomial has no square-free decomposition")
    f = p.monic()
    if f.degree == 0:
        return []
    fp = f.derivative()
    g = poly_gcd(f, fp)
    if g.degree == 0:
        return [(f, 1)]
    out: list[tuple[RatPoly, int]] = []
    c = f.div_exact(g)
    d = fp.div_exact(g) - c.derivative()
    i = 1
    while c.degree > 0:
        a = poly_gcd(c, d)
        if a.degree > 0:
            out.append((a, i))
        c = c.div_exact(a)
        d = d.div_exact(a) - c.derivative()
        i += 1
    return out


def count_roots_in_mult_oracle(p: RatPoly, lo, hi, open_interval: bool = False) -> int:
    return sum(
        mult * count_roots_in(factor, lo, hi, open_interval)
        for factor, mult in yun_decomposition(p)
    )


def root_multiplicity_at_oracle(p: RatPoly, point) -> int:
    return sum(
        mult for factor, mult in yun_decomposition(p) if factor(as_quad(point)) == 0
    )


def interlaces_oracle(g: RatPoly, f: RatPoly) -> bool:
    """Weak alternation of the root multisets, each root placed in an
    isolating interval of f*g once per multiplicity of its Yun factor."""
    if not (is_real_rooted(f) and is_real_rooted(g)):
        raise ParameterError("interlacing needs real-rooted inputs")
    if g.degree == 0:
        return True
    intervals = isolate_real_roots(f * g)

    def positions(p: RatPoly) -> list[int]:
        out = []
        for factor, mult in yun_decomposition(p):
            chain = sturm_chain(factor)
            for idx, (lo, hi) in enumerate(intervals):
                if chain.count_half_open(lo, hi):
                    out.extend([idx] * mult)
        return sorted(out)

    pos_f, pos_g = positions(f), positions(g)
    return all(pos_f[j] <= b <= pos_f[j + 1] for j, b in enumerate(pos_g))


# Denominator clearing before it ran on numerators: each coefficient times
# the lcm as a Fraction product, then a running gcd.


def to_primitive_int_oracle(p: RatPoly) -> tuple[int, ...]:
    if p.is_zero:
        return ()
    denom_lcm = 1
    for c in p.coeffs:
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in p.coeffs]
    content = 0
    for v in ints:
        content = math.gcd(content, abs(v))
    return tuple(v // content for v in ints)


# Root location before the chain ran on p itself: the same integer primitive
# remainder sequence started from the Fraction square-free part, and the
# queries built on it.


def squarefree_sturm_chain(p: RatPoly) -> SturmChain:
    """The chain of squarefree_part(p)."""
    return sturm_chain(squarefree_part(p))


def is_real_rooted_oracle(p: RatPoly) -> bool:
    if p.degree == 0:
        return True
    chain = squarefree_sturm_chain(p)
    return chain.count_all() == len(chain.elements[0]) - 1


def count_roots_in_oracle(p: RatPoly, lo, hi, open_interval: bool = False) -> int:
    chain = squarefree_sturm_chain(p)
    n = chain.count_half_open(lo, hi)
    if open_interval:
        if hi is not POS_INF and chain.is_root(hi):
            n -= 1
    elif lo is not NEG_INF and chain.is_root(lo):
        n += 1
    return n


def compare_max_roots_oracle(p: RatPoly, q: RatPoly) -> int:
    """Bisect the chain of squarefree_part(sp * sq) down to its top root."""
    sp, sq = squarefree_part(p), squarefree_part(q)
    s = squarefree_part(sp * sq)
    chain = sturm_chain(s)
    bound = cauchy_root_bound_oracle(s)
    lo, hi = -bound - 1, bound
    if chain.count_half_open(lo, hi) == 0:
        raise ParameterError("max-root comparison needs real roots")
    while chain.count_half_open(lo, hi) > 1:
        mid = (lo + hi) / 2
        if chain.count_half_open(mid, hi) >= 1:
            lo = mid
        else:
            hi = mid
    p_has = sturm_chain(sp).count_half_open(lo, hi) >= 1
    q_has = sturm_chain(sq).count_half_open(lo, hi) >= 1
    if p_has and q_has:
        return 0
    return 1 if p_has else -1


def fired_wins_oracle(fired: RatPoly, unfired: RatPoly) -> bool:
    """``search._fired_wins`` before it took integers and proved cells
    first: on RatPolys, a chain count of each candidate's real roots, then
    ``compare_max_roots_oracle``."""
    fired_real = squarefree_sturm_chain(fired).count_all() > 0
    if fired_real and squarefree_sturm_chain(unfired).count_all() > 0:
        return compare_max_roots_oracle(fired, unfired) < 0
    return fired_real


# The two hand-written Taylor shifts the shared kernel replaced.


def split_at_oracle(q: tuple, t: int) -> tuple[int, int]:
    """(roots below t, roots at t) of a real-rooted integer polynomial."""
    c = list(q)
    n = len(c) - 1
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            c[k] += t * c[k + 1]
    at = next(k for k, v in enumerate(c) if v)
    signs = [v > 0 for v in c[at:] if v]
    above = sum(a != b for a, b in zip(signs, signs[1:]))
    return n - above - at, at


def holds_top_root_oracle(coeffs: tuple, lo: int, hi: int, scale: int) -> bool:
    homog = _homogenised(coeffs, scale)
    at_lo = 0
    for c in reversed(homog):
        at_lo = at_lo * lo + c
    if at_lo >= 0:
        return False
    n = len(homog) - 1
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            homog[k] += hi * homog[k + 1]
        if homog[i] < 0:
            return False
    return True


def bernoulli_oracle(rng, p) -> bool:
    """The Fraction-comparison Bernoulli draw the integer checks replaced."""
    if p < 0 or p > 1:
        raise ValueError("bernoulli probability must lie in [0, 1]")
    if p == 0:
        return False
    if p == 1:
        return True
    return rng.below(p.denominator) < p.numerator


def sample_oracle(program: SwapProgram, rng) -> Permutation:
    """The sampler that rebuilt the image tuple for every fired swap."""
    image = tuple(range(program.dimension))
    for sw in program.swaps:
        if rng.bernoulli(sw.prob):
            image = tuple(sw.t if v == sw.s else sw.s if v == sw.t else v for v in image)
    return Permutation(image)


def sampled_suffixes_oracle(program: SwapProgram, m, i, j, rng, samples) -> list:
    """The sampled descent step that drew every program's suffix: the
    deciding program's from swap j + 1 on, then a full one for each other
    program in order, those the step's conditionals pin included."""

    def empirical(start):
        counts = Counter(_sample_image(program, rng, start) for _ in range(samples))
        return tuple((img, Fraction(c, samples)) for img, c in sorted(counts.items()))

    tail = empirical(j + 1)
    return [tail if k == i else empirical(0) for k in range(m)]


# The float rotation-degree probe the exact nine-point check replaced.

# Multiple of d * eps * (Hadamard bound) below which a Fourier coefficient of
# the sampled determinants is indistinguishable from rounding.
_FOURIER_ROUNDING_SLACK = 64.0


def _float_det(rows: list[list[float]]) -> float:
    """Determinant by LU with partial pivoting; plenty for small probes."""
    n = len(rows)
    a = [row[:] for row in rows]
    det = 1.0
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) < 1e-300:
            return 0.0
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1.0 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f:
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return det


def fourier_float_oracle(
    a: RatMatrix, b: RatMatrix, samples: int = 16, rel_tol: float = 1e-8
) -> bool:
    """Whether theta -> det(A + G B G^T), G rotating coordinates 0 and 1,
    shows no Fourier content beyond the second harmonic in a DFT of
    ``samples`` float determinants, relative to the largest coefficient.

    The scale is never taken below the rounding noise of the sampled
    determinants divided by ``rel_tol`` (a multiple of machine epsilon times
    their Hadamard bound), so a determinant that vanishes identically passes."""
    d = a.nrows
    fa = [[float(v) for v in row] for row in a.rows]
    fb = [[float(v) for v in row] for row in b.rows]
    values = []
    hadamard = 0.0
    for j in range(samples):
        theta = 2.0 * math.pi * j / samples
        c, s = math.cos(theta), math.sin(theta)
        g = [[1.0 if i == k else 0.0 for k in range(d)] for i in range(d)]
        g[0][0], g[0][1], g[1][0], g[1][1] = c, -s, s, c
        gb = [
            [
                sum(g[i][u] * fb[u][v] * g[k][v] for u in range(d) for v in range(d))
                for k in range(d)
            ]
            for i in range(d)
        ]
        m = [[fa[i][k] + gb[i][k] for k in range(d)] for i in range(d)]
        hadamard = max(hadamard, math.prod(math.hypot(*row) for row in m))
        values.append(_float_det(m))
    coeffs = []
    for k in range(samples):
        acc = 0j
        for j, v in enumerate(values):
            acc += v * cmath.exp(-2j * math.pi * k * j / samples)
        coeffs.append(abs(acc) / samples)
    noise = _FOURIER_ROUNDING_SLACK * d * sys.float_info.epsilon * hadamard
    scale = max(max(coeffs), noise / rel_tol, 1e-300)
    tail = max(
        coeffs[k] for k in range(samples) if abs(k if k <= samples // 2 else k - samples) >= 3
    )
    return tail / scale <= rel_tol


def rotated_det_oracle(a: RatMatrix, b: RatMatrix, t: int) -> Fraction:
    """det(A + G B G^T) for the rotation G of coordinates 0 and 1 with
    cos = (1 - t**2) / (1 + t**2) and sin = 2t / (1 + t**2), on Fractions."""
    d = a.nrows
    w = 1 + t * t
    g = [[Fraction(int(i == k)) for k in range(d)] for i in range(d)]
    g[0][0] = g[1][1] = Fraction(1 - t * t, w)
    g[0][1], g[1][0] = Fraction(-2 * t, w), Fraction(2 * t, w)
    gm = RatMatrix.from_rows(g)
    gbg = gm @ b @ gm.transpose()
    m = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, gbg.rows)]
    return (-1) ** d * faddeev_leverrier(m)[0]
