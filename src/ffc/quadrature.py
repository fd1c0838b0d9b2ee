"""Permutation quadrature oracles and structural checks.

The central object is the exact average of characteristic polynomials of
conjugated sums: for matrices A_1, ..., A_m of size d, the average of
char(sum_i P_i A_i P_i^T) over independent uniform permutation matrices P_i.
Conjugating the whole sum by P_1^T shows the average is unchanged when P_1 is
pinned to the identity, so the enumeration walks (d!)**(m-1) tuples.

Every exact average here, and the descent's conditional averages in
``ffc.search``, runs through one kernel, ``weighted_charpoly_sum``: one
(image, weight) distribution per summand, the budget checked before any
work, integer weights over each distribution's common denominator, and
integer characteristic polynomials summed on integers.  The averages here
divide once at the end (``weighted_charpoly_average``); the descent keeps
the integers and one denominator.  Rational matrices
clear their denominators once per call.

``verify_sym_quadrature`` and ``verify_bip_quadrature`` compare such averages
against the closed-form convolution predictions for constant-row-sum inputs;
they are the ground truth the convolution weight formulas are accepted
against.  The bipartite check averages char(N N^T) of the d x d biadjacency
and substitutes x**2, since char([[0, N], [N^T, 0]]) = char(N N^T)(x**2).
``expected_charpoly_swaps`` averages over swap-program outcomes instead of
full permutation tuples.  ``fourier_degree_test`` probes the structural fact
that drives real-rootedness of swap averages, that rotation sweeps have no
harmonics beyond the second, and decides it exactly.

Exact work is refused up front: permutation enumerations by their count
against ``config.MAX_DET_EVALS`` (``check_quadrature_budget`` checks a side
before any matrix exists), swap programs by their length against
``config.MAX_SWAPS``, and rotation probes and swap averages by their side
against ``MAX_PROBE_SIDE`` (``check_probe_side``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations as all_permutations
from itertools import product
from typing import Callable, Iterable, Sequence

from . import config
from .convolution import asym_convolve, sym_convolve
from .errors import BudgetError, ContractError, ParameterError
from .graphs import _gram, deflate_trivial
from .matrix import RatMatrix, _clear_denominators, _grid_sum, char_poly, charpoly_int_coeffs
from .perms import (
    SwapProgram,
    leaf_distribution,
    relabel_grid,
    uniform_permutation,
)
from .poly import RatPoly
from .rng import SplitMix64

# The largest side a rotation probe or a swap average may have.  Both run
# exact integer determinants of the side; a probe at the limit takes about
# 7 s on one core, and at d = 2000 the two random matrices alone cost seconds.
MAX_PROBE_SIDE = 64


@dataclass(frozen=True)
class ExpectedPoly:
    """An averaged characteristic polynomial plus how it was produced."""

    poly: RatPoly
    terms: int
    method: str


@dataclass(frozen=True)
class QuadratureReport:
    kind: str
    dim: int
    lhs: RatPoly
    rhs: RatPoly
    terms: int

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class FourierReport:
    samples: tuple[Fraction, ...]
    passed: bool


# -- the weighted-average kernel ---------------------------------------------------


def weighted_charpoly_average(
    dists: Sequence[Iterable[tuple]],
    charpoly: Callable[[tuple], Sequence[int]],
    scale: int = 1,
) -> tuple[RatPoly, int]:
    """Exact sum, over one outcome drawn from each distribution, of the
    product of the outcomes' weights times a characteristic polynomial.

    ``dists`` holds one sized collection of (image, weight) pairs per
    summand; ``charpoly`` maps a tuple of images, one per summand, to the
    ascending integer coefficients of det(x I - scale * M) for the summed
    matrix M of size n.  The sum runs on integers (``weighted_charpoly_sum``)
    and is divided once at the end, coefficient k also by scale**(n - k).
    Returns the polynomial and the number of terms.
    """
    acc, denominator, count = weighted_charpoly_sum(dists, charpoly)
    n = len(acc) - 1
    poly = RatPoly.from_coeffs(
        Fraction(c, denominator * scale ** (n - k)) for k, c in enumerate(acc)
    )
    return poly, count


def weighted_charpoly_sum(
    dists: Sequence[Iterable[tuple]],
    charpoly: Callable[[tuple], Sequence[int]],
) -> tuple[list[int], int, int]:
    """The integer core of ``weighted_charpoly_average``: coefficients acc
    and one positive denominator with sum_k acc[k] x**k / denominator the
    weighted sum of the polynomials ``charpoly`` returns, and the number of
    terms.

    More terms than ``config.MAX_DET_EVALS`` are refused before any
    evaluation.  Each distribution's weights are put over their common
    denominator, whose product is the denominator, so the sum runs on
    integers.
    """
    count = _enumeration_size(dists)
    integer_dists = []
    denominator = 1
    for dist in dists:
        pairs = list(dist)
        den = math.lcm(*(w.denominator for _, w in pairs))
        integer_dists.append(
            [(image, w.numerator * (den // w.denominator)) for image, w in pairs]
        )
        denominator *= den
    acc: list[int] = []
    for combo in product(*integer_dists):
        weight = 1
        for _, w in combo:
            weight *= w
        coeffs = charpoly(tuple(image for image, _ in combo))
        if not acc:
            acc = [0] * len(coeffs)
        for k, c in enumerate(coeffs):
            acc[k] += weight * c
    return acc, denominator, count


def _enumeration_size(dists: Sequence) -> int:
    """The number of terms, refused when it exceeds ``config.MAX_DET_EVALS``."""
    sizes = [len(dist) for dist in dists]
    count = math.prod(sizes)
    if count > config.MAX_DET_EVALS:
        # a size of sys.maxsize is _Uniform's clamp, not a count
        need = f"more than {sys.maxsize}" if sys.maxsize in sizes else count
        raise BudgetError(
            f"enumeration needs {need} determinant evaluations, "
            f"budget allows {config.MAX_DET_EVALS}"
        )
    return count


class _Uniform:
    """Every permutation image of size n with weight 1/n!, listed lazily so a
    budget check can refuse the distribution before n! images exist."""

    def __init__(self, n: int) -> None:
        self.n = n

    def __len__(self) -> int:
        # len() must fit a machine word, so n! is clamped at sys.maxsize, past
        # any budget; 21! already exceeds 64 bits, so no larger n! is formed
        return min(math.factorial(min(self.n, 21)), sys.maxsize)

    def __iter__(self):
        weight = Fraction(1, math.factorial(self.n))
        return ((image, weight) for image in all_permutations(range(self.n)))


def _grids(matrices: Sequence[RatMatrix]) -> tuple[list, int]:
    """Integer grids of s * A_i for the lcm s of every denominator, and s:
    det(x I - B / s) = s**-n det(s x I - B)."""
    if not matrices:
        raise ParameterError("need at least one matrix")
    n = matrices[0].nrows
    for m in matrices:
        if not m.is_square or m.nrows != n:
            raise ParameterError("matrices must be square and equally sized")
    return _clear_denominators([m.rows for m in matrices])


def _conjugated_sum_charpoly(grids: list) -> Callable[[tuple], tuple[int, ...]]:
    """Images -> integer charpoly of sum_i P_i G_i P_i^T."""
    return lambda images: charpoly_int_coeffs(
        _grid_sum([relabel_grid(g, image) for g, image in zip(grids, images)])
    )


def check_probe_side(d: int) -> None:
    """Refuse a rotation probe or a swap average of side past
    ``MAX_PROBE_SIDE``.  Cheap, so a caller can run it before drawing a
    matrix."""
    if d > MAX_PROBE_SIDE:
        raise BudgetError(f"side {d} exceeds the budget of {MAX_PROBE_SIDE}")


def check_quadrature_budget(d: int, bipartite: bool) -> None:
    """Refuse a quadrature check of side d whose enumeration exceeds the
    determinant budget: d! terms, or (d!)**2 in bipartite mode.  Cheap for
    any d, so a caller can run it before drawing a matrix."""
    if d < 2:
        raise ParameterError("need dimension at least 2")
    _enumeration_size([_Uniform(d)] * (1 + bipartite))


# -- exact enumeration ------------------------------------------------------------


def expected_charpoly_perm(matrices: Sequence[RatMatrix]) -> ExpectedPoly:
    """Exact average of char(sum_i P_i A_i P_i^T) over uniform independent
    permutations, with P_1 pinned to the identity by conjugation invariance."""
    grids, s = _grids(matrices)
    n = len(grids[0])
    dists = [[(tuple(range(n)), 1)]] + [_Uniform(n)] * (len(grids) - 1)
    poly, terms = weighted_charpoly_average(dists, _conjugated_sum_charpoly(grids), s)
    return ExpectedPoly(poly=poly, terms=terms, method="enumeration")


def expected_charpoly_swaps(
    matrices: Sequence[RatMatrix],
    programs: Sequence[SwapProgram],
) -> ExpectedPoly:
    """Exact average of char(sum_i Q_i A_i Q_i^T) with each Q_i drawn from its
    own swap program, weighted by the exact outcome probabilities.  A side
    past ``MAX_PROBE_SIDE`` is refused before any work."""
    if len(matrices) != len(programs):
        raise ParameterError("one program per matrix required")
    check_probe_side(max((m.nrows for m in matrices), default=0))
    grids, s = _grids(matrices)
    n = len(grids[0])
    for prog in programs:
        if prog.dimension != n:
            raise ParameterError("program dimension must match matrix size")
    dists = [
        [(p.image, pr) for p, pr in leaf_distribution(prog).items()]
        for prog in programs
    ]
    poly, terms = weighted_charpoly_average(dists, _conjugated_sum_charpoly(grids), s)
    return ExpectedPoly(poly=poly, terms=terms, method="swaps")


# -- quadrature identity checks -----------------------------------------------------


def verify_sym_quadrature(a: RatMatrix, b: RatMatrix) -> QuadratureReport:
    """Exact check of the symmetric quadrature identity for two symmetric
    constant-row-sum matrices: the permutation average of char(A + P B P^T)
    must equal (x - (ra + rb)) times the symmetric convolution, at level d-1,
    of the row-sum-deflated characteristic polynomials."""
    for mat in (a, b):
        if not mat.is_square or not mat.is_symmetric:
            raise ParameterError("symmetric quadrature needs symmetric matrices")
    if a.nrows != b.nrows:
        raise ParameterError("matrices must have equal size")
    d = a.nrows
    if d < 2:
        raise ParameterError("need dimension at least 2")
    ra, rb = a.constant_row_sum(), b.constant_row_sum()
    if ra is None or rb is None:
        raise ContractError("constant row sums required and missing")
    lhs = expected_charpoly_perm([a, b])
    p = deflate_trivial(char_poly(a), ra, bipartite=False)
    q = deflate_trivial(char_poly(b), rb, bipartite=False)
    rhs = RatPoly.from_coeffs([-(ra + rb), 1]) * sym_convolve(p, q, d - 1)
    return QuadratureReport(
        kind="sym", dim=d, lhs=lhs.poly, rhs=rhs, terms=lhs.terms
    )


def verify_bip_quadrature(a: RatMatrix, b: RatMatrix) -> QuadratureReport:
    """Exact check of the bipartite quadrature identity for two doubly
    regular matrices: the average over permutation pairs (P, S) of
    char([[0, N], [N^T, 0]]) with N = A + P B S^T must equal
    (x**2 - (ra + rb)**2) times the square-substituted asymmetric
    convolution, at level d-1, of the deflated char(A A^T) and char(B B^T)."""
    if not a.is_square or not b.is_square or a.nrows != b.nrows:
        raise ParameterError("need square matrices of equal size")
    d = a.nrows
    if d < 2:
        raise ParameterError("need dimension at least 2")
    ra = a.constant_doubly_regular_sum()
    rb = b.constant_doubly_regular_sum()
    if ra is None or rb is None:
        raise ContractError("double regularity required and missing")
    # char(dilation N) = char(N N^T)(x**2): average the d x d Gram matrix
    (ga, gb), s = _grids([a, b])

    def gram_charpoly(images: tuple) -> tuple[int, ...]:
        pimg, simg = images
        n = [row[:] for row in ga]
        for i in range(d):
            src, dest = gb[i], n[pimg[i]]
            for j in range(d):
                dest[simg[j]] += src[j]
        return charpoly_int_coeffs(_gram(n))

    gram_avg, terms = weighted_charpoly_average(
        [_Uniform(d), _Uniform(d)], gram_charpoly, s * s
    )
    lhs = gram_avg.substitute_square()
    p = deflate_trivial(char_poly(a @ a.transpose()), ra * ra, bipartite=False)
    q = deflate_trivial(char_poly(b @ b.transpose()), rb * rb, bipartite=False)
    conv = asym_convolve(p, q, d - 1)
    shifted = RatPoly.from_coeffs([-((ra + rb) ** 2), 0, 1])
    rhs = shifted * conv.substitute_square()
    return QuadratureReport(kind="bip", dim=d, lhs=lhs, rhs=rhs, terms=terms)


# -- structural probes ----------------------------------------------------------------


def _rotated_sum(a: list, b: list, t: int) -> tuple[list[list[int]], int]:
    """N = k (A + G B G^T) on integers, and k = (1 + t**2)**2, for G the
    rotation of coordinates 0 and 1 by 2 atan(t).  N = k A + H B H^T, where
    H = (1 + t**2) G is (1 + t**2) I but for its leading block
    [[1 - t**2, -2t], [2t, 1 - t**2]], so C = H B and C H^T take O(d**2)."""
    w = 1 + t * t
    block = ((1 - t * t, -2 * t), (2 * t, 1 - t * t))
    c = [[h0 * x + h1 * y for x, y in zip(b[0], b[1])] for h0, h1 in block]
    c += [[w * x for x in row] for row in b[2:]]
    grid = []
    for arow, crow in zip(a, c):
        row = [w * (w * x + y) for x, y in zip(arow, crow)]
        for j, (h0, h1) in enumerate(block):
            row[j] = w * w * arow[j] + h0 * crow[0] + h1 * crow[1]
        grid.append(row)
    return grid, w * w


def fourier_degree_test(a: RatMatrix, b: RatMatrix) -> FourierReport:
    """Exact check that theta -> det M, M = A + G B G^T for G the rotation
    of coordinates 0 and 1 by theta, has no harmonic above the second.

    Only rows and columns 0 and 1 of M depend on theta, so each Leibniz term
    of det M has degree at most 4 in (cos theta, sin theta).  With
    t = tan(theta / 2), q(t) = det M * (1 + t**2)**2 is therefore
    P_8(t) / (1 + t**2)**2 with deg P_8 <= 8, and the sweep has degree at
    most two exactly when q is a polynomial P_4 of degree at most 4.  That
    holds exactly when the fifth differences of q(-4), ..., q(4) vanish:
    P_8 - P_4 (1 + t**2)**2 then has degree at most 8 and nine zeros.  Each
    q(t) is one integer determinant, of ``_rotated_sum``; the report keeps
    the nine values.  A side past ``MAX_PROBE_SIDE`` is refused first.
    """
    if not a.is_square or not b.is_square or a.nrows != b.nrows:
        raise ParameterError("need square matrices of equal size")
    d = a.nrows
    if d < 2:
        raise ParameterError("rotation sweep needs dimension at least 2")
    check_probe_side(d)
    (ga, gb), s = _clear_denominators([a.rows, b.rows])
    samples = []
    for t in range(-4, 5):
        grid, k = _rotated_sum(ga, gb, t)
        # grid = s k M, and det = (-1)**d char(0)
        det = (-1) ** d * charpoly_int_coeffs(grid)[0]
        samples.append(Fraction(det * (1 + t * t) ** 2, (s * k) ** d))
    return FourierReport(samples=tuple(samples), passed=_fits_degree_four(samples))


def _fits_degree_four(values: Sequence) -> bool:
    """Whether values at consecutive integers agree with one polynomial of
    degree at most 4: all their fifth differences vanish."""
    for _ in range(5):
        values = [y - x for x, y in zip(values, values[1:])]
    return not any(values)


# -- random instances for spot checks ----------------------------------------------


def random_regular_symmetric(d: int, rng: SplitMix64, span: int = 3) -> RatMatrix:
    """Random symmetric integer matrix with equal row sums.

    Off-diagonal entries are uniform in [-span, span]; the diagonal absorbs
    whatever each row is missing, which preserves symmetry.
    """
    if d < 1:
        raise ParameterError("dimension must be positive")
    grid = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            v = rng.below(2 * span + 1) - span
            grid[i][j] = v
            grid[j][i] = v
    sums = [sum(row) for row in grid]
    target = max(sums) + rng.below(span + 1)
    for i in range(d):
        grid[i][i] = target - sums[i]
    return RatMatrix.from_rows(grid)


def random_doubly_regular(
    d: int, rng: SplitMix64, terms: int = 3, weight_span: int = 3
) -> RatMatrix:
    """Random nonnegative integer matrix with all row and column sums equal:
    a weighted sum of ``terms`` permutation matrices."""
    if d < 1:
        raise ParameterError("dimension must be positive")
    grid = [[0] * d for _ in range(d)]
    for _ in range(terms):
        w = rng.below(weight_span + 1)
        p = uniform_permutation(d, rng)
        for i, j in enumerate(p.image):
            grid[j][i] += w
    return RatMatrix.from_rows(grid)
