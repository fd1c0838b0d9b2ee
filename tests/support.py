"""Shared strategies and helpers for the tests."""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations, product
from math import factorial

from hypothesis import strategies as st

from ffc import (
    MatchingUnion,
    ParameterError,
    Permutation,
    RamanujanCertificate,
    RatMatrix,
    RandomSwap,
    RatPoly,
    SignedCoeffs,
    SwapProgram,
    as_quad,
    cauchy_root_bound,
    count_roots_in_mult,
    deflate_trivial,
    leaf_distribution,
    ramanujan_bound,
    relabel_grid,
    SturmChain,
    root_multiplicity_at,
    squarefree_part,
    sturm_chain,
    uniform_permutation,
)
from ffc.graphs import NOT_RAMANUJAN, STRICT, WITH_BOUNDARY
from ffc.sturm import NEG_INF, POS_INF, _chain_from_coeffs, _homogenised


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


def mc_oracle(matrices, trials: int, rng) -> tuple[RatPoly, tuple]:
    """Monte Carlo mean and standard errors over Fraction sums."""
    grids = [_fraction_grid(m) for m in matrices]
    n = len(grids[0])
    sums = [Fraction(0)] * (n + 1)
    sq_sums = [Fraction(0)] * (n + 1)
    for _ in range(trials):
        conj = [grids[0]]
        for g in grids[1:]:
            conj.append(relabel_grid(g, uniform_permutation(n, rng).image))
        for k, c in enumerate(faddeev_leverrier(_summed(conj))):
            sums[k] += c
            sq_sums[k] += c * c
    mean = [t / trials for t in sums]
    if trials == 1:
        return RatPoly.from_coeffs(mean), tuple(0.0 for _ in mean)
    stderr = tuple(
        math.sqrt(max(0.0, float((sq - trials * mu * mu) / (trials - 1))))
        / math.sqrt(trials)
        for sq, mu in zip(sq_sums, mean)
    )
    return RatPoly.from_coeffs(mean), stderr


# The convolution kernel before the power-series rescaling: the closed-form
# weights applied to each product a_i b_j, and an m-fold convolution as m - 1
# repeated convolutions.


def convolve_oracle(p: RatPoly, q: RatPoly, d: int, squared: bool) -> RatPoly:
    """Sym (``squared`` false) or asym convolution at level d, weight by weight."""
    ap = SignedCoeffs.from_poly(p, d).a
    aq = SignedCoeffs.from_poly(q, d).a
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
    return SignedCoeffs(level=d, a=tuple(out)).to_poly()


def m_fold_oracle(p: RatPoly, m: int, d: int, squared: bool) -> RatPoly:
    """p convolved with itself m times, one convolution after another."""
    acc = p
    for _ in range(m - 1):
        acc = convolve_oracle(acc, p, d, squared)
    return acc


# Root location before the float-guided bracket: Sturm bisection of the
# Cauchy interval, and the inverse Cauchy transform bisected on Fractions.


def max_root_bracket_oracle(p: RatPoly, width=Fraction(1, 1024)) -> tuple:
    """(lo, hi] from bisecting (-B-1, B] with Sturm counts until hi - lo <= width.

    The count of roots in (mid, hi] is V(mid) - V(hi) for the chain's sign
    variations V; V(hi) is kept from the step that set hi.
    """
    chain = sturm_chain(p)
    bound = cauchy_root_bound(p)
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


# Root location before the chain ran on p itself: the same integer primitive
# remainder sequence started from the Fraction square-free part, and the
# queries built on it.


def squarefree_sturm_chain(p: RatPoly) -> SturmChain:
    """The chain of squarefree_part(p), with p as its source."""
    chain = _chain_from_coeffs(squarefree_part(p).coeffs)
    return SturmChain(source=p, elements=chain.elements)


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
    bound = cauchy_root_bound(s)
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
