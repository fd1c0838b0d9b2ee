"""Permutation quadrature oracles and structural checks.

The central object is the exact average of characteristic polynomials of
conjugated sums: for matrices A_1, ..., A_m of size d, the average of
char(sum_i P_i A_i P_i^T) over independent uniform permutation matrices P_i.
Conjugating the whole sum by P_1^T shows the average is unchanged when P_1 is
pinned to the identity, so the enumeration walks (d!)**(m-1) tuples.

``verify_sym_quadrature`` and ``verify_bip_quadrature`` compare such averages
against the closed-form convolution predictions for constant-row-sum inputs;
they are the ground truth the convolution weight formulas are accepted
against.  ``expected_charpoly_swaps`` averages over swap-program outcomes
instead of full permutation tuples, and ``expected_charpoly_mc`` estimates
the same average by sampling.  ``fourier_degree_test`` and ``rank2_check``
probe the two structural facts that drive real-rootedness of swap averages:
rotation sweeps have no harmonics beyond the second, and conjugation
differences A - S A S^T have rank at most two and trace zero.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations as all_permutations
from typing import Optional, Sequence

from .config import DEFAULT_BUDGETS, Budgets
from .convolution import asym_convolve, sym_convolve
from .errors import BudgetError, ContractError, ParameterError
from .matrix import RatMatrix, char_poly, charpoly_int_coeffs
from .perms import (
    Permutation,
    SwapProgram,
    leaf_distribution,
    relabel_grid,
    uniform_permutation,
)
from .poly import RatPoly
from .rng import SplitMix64


@dataclass(frozen=True)
class ExpectedPoly:
    """An averaged characteristic polynomial plus how it was produced."""

    poly: RatPoly
    terms: int
    method: str
    stderr: Optional[tuple[float, ...]] = None


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
    samples: int
    magnitudes: tuple[float, ...]
    second_harmonic: float
    max_tail_relative: float
    passed: bool


@dataclass(frozen=True)
class Rank2Report:
    rank: int
    trace: Fraction

    @property
    def passed(self) -> bool:
        return self.rank in (0, 2) and self.trace == 0


# -- grid plumbing ---------------------------------------------------------------


def _grids(matrices: Sequence[RatMatrix]) -> tuple[list, bool]:
    """Entry grids plus a flag for the all-integer fast path."""
    if not matrices:
        raise ParameterError("need at least one matrix")
    n = matrices[0].nrows
    for m in matrices:
        if not m.is_square or m.nrows != n:
            raise ParameterError("matrices must be square and equally sized")
    ints = [m.int_rows() for m in matrices]
    if all(g is not None for g in ints):
        return ints, True
    return [[list(row) for row in m.rows] for m in matrices], False


def _grid_sum(grids: list) -> list:
    n = len(grids[0])
    out = [row[:] for row in grids[0]]
    for g in grids[1:]:
        for i in range(n):
            row, src = out[i], g[i]
            for j in range(n):
                row[j] += src[j]
    return out


def _charpoly_grid(grid: list, is_int: bool):
    if is_int:
        return charpoly_int_coeffs(grid)
    return char_poly(RatMatrix.from_rows(grid)).coeffs


# -- exact enumeration ------------------------------------------------------------


def expected_charpoly_perm(
    matrices: Sequence[RatMatrix], budgets: Budgets = DEFAULT_BUDGETS
) -> ExpectedPoly:
    """Exact average of char(sum_i P_i A_i P_i^T) over uniform independent
    permutations, with P_1 pinned to the identity by conjugation invariance."""
    grids, is_int = _grids(matrices)
    n = len(grids[0])
    m = len(grids)
    count = math.factorial(n) ** (m - 1)
    if count > budgets.max_det_evals:
        raise BudgetError(
            f"enumeration needs {count} determinant evaluations, "
            f"budget allows {budgets.max_det_evals}"
        )
    acc = [Fraction(0)] * (n + 1)
    images = list(all_permutations(range(n)))
    if m == 1:
        tuples = [()]
    else:
        from itertools import product

        tuples = product(images, repeat=m - 1)
    terms = 0
    for tpl in tuples:
        total = [row[:] for row in grids[0]]
        for image, g in zip(tpl, grids[1:]):
            conj = relabel_grid(g, image)
            for i in range(n):
                row, src = total[i], conj[i]
                for j in range(n):
                    row[j] += src[j]
        coeffs = _charpoly_grid(total, is_int)
        for k in range(n + 1):
            acc[k] += coeffs[k]
        terms += 1
    inv = Fraction(1, terms)
    return ExpectedPoly(
        poly=RatPoly.from_coeffs([c * inv for c in acc]),
        terms=terms,
        method="enumeration",
    )


def expected_charpoly_swaps(
    matrices: Sequence[RatMatrix],
    programs: Sequence[SwapProgram],
    budgets: Budgets = DEFAULT_BUDGETS,
) -> ExpectedPoly:
    """Exact average of char(sum_i Q_i A_i Q_i^T) with each Q_i drawn from its
    own swap program, weighted by the exact outcome probabilities."""
    if len(matrices) != len(programs):
        raise ParameterError("one program per matrix required")
    grids, is_int = _grids(matrices)
    n = len(grids[0])
    for prog in programs:
        if prog.dimension != n:
            raise ParameterError("program dimension must match matrix size")
    dists = [
        sorted(
            leaf_distribution(prog, budgets.max_swaps).items(),
            key=lambda kv: kv[0].image,
        )
        for prog in programs
    ]
    count = 1
    for dist in dists:
        count *= len(dist)
    if count > budgets.max_det_evals:
        raise BudgetError(
            f"swap enumeration needs {count} determinant evaluations, "
            f"budget allows {budgets.max_det_evals}"
        )
    acc = [Fraction(0)] * (n + 1)
    from itertools import product

    terms = 0
    for combo in product(*dists):
        weight = Fraction(1)
        conjugated = []
        for (perm, pr), g in zip(combo, grids):
            weight *= pr
            conjugated.append(relabel_grid(g, perm.image))
        if weight == 0:
            continue
        coeffs = _charpoly_grid(_grid_sum(conjugated), is_int)
        for k in range(n + 1):
            acc[k] += weight * coeffs[k]
        terms += 1
    return ExpectedPoly(
        poly=RatPoly.from_coeffs(acc), terms=terms, method="swaps"
    )


def expected_charpoly_mc(
    matrices: Sequence[RatMatrix],
    trials: int,
    rng: SplitMix64,
    m: Optional[int] = None,
) -> ExpectedPoly:
    """Monte Carlo estimate of the permutation average, with per-coefficient
    standard errors of the mean.  The first permutation is pinned to the
    identity, matching the exact enumeration."""
    mats = list(matrices)
    if m is not None:
        if len(mats) == 1:
            mats = mats * m
        elif len(mats) != m:
            raise ParameterError("m disagrees with the number of matrices")
    if trials < 1:
        raise ParameterError("need at least one trial")
    grids, is_int = _grids(mats)
    n = len(grids[0])
    sums = [Fraction(0)] * (n + 1)
    sq_sums = [Fraction(0)] * (n + 1)
    for _ in range(trials):
        conjugated = [grids[0]]
        for g in grids[1:]:
            image = uniform_permutation(n, rng).image
            conjugated.append(relabel_grid(g, image))
        coeffs = _charpoly_grid(_grid_sum(conjugated), is_int)
        for k in range(n + 1):
            c = Fraction(coeffs[k])
            sums[k] += c
            sq_sums[k] += c * c
    inv = Fraction(1, trials)
    mean = [s * inv for s in sums]
    if trials > 1:
        stderr = tuple(
            math.sqrt(max(0.0, float((sq - trials * mu * mu) / (trials - 1))))
            / math.sqrt(trials)
            for sq, mu in zip(sq_sums, mean)
        )
    else:
        stderr = tuple(0.0 for _ in mean)
    return ExpectedPoly(
        poly=RatPoly.from_coeffs(mean),
        terms=trials,
        method="monte-carlo",
        stderr=stderr,
    )


# -- quadrature identity checks -----------------------------------------------------


def _strip_linear_root(p: RatPoly, root: Fraction) -> RatPoly:
    return p.div_exact(RatPoly.from_coeffs([-root, 1]))


def verify_sym_quadrature(
    a: RatMatrix, b: RatMatrix, budgets: Budgets = DEFAULT_BUDGETS
) -> QuadratureReport:
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
    lhs = expected_charpoly_perm([a, b], budgets)
    p = _strip_linear_root(char_poly(a), ra)
    q = _strip_linear_root(char_poly(b), rb)
    rhs = RatPoly.from_coeffs([-(ra + rb), 1]) * sym_convolve(p, q, d - 1)
    return QuadratureReport(
        kind="sym", dim=d, lhs=lhs.poly, rhs=rhs, terms=lhs.terms
    )


def verify_bip_quadrature(
    a: RatMatrix, b: RatMatrix, budgets: Budgets = DEFAULT_BUDGETS
) -> QuadratureReport:
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
    count = math.factorial(d) ** 2
    if count > budgets.max_det_evals:
        raise BudgetError(
            f"pair enumeration needs {count} determinant evaluations, "
            f"budget allows {budgets.max_det_evals}"
        )
    grids, is_int = _grids([a, b])
    ga, gb = grids
    acc = [Fraction(0)] * (2 * d + 1)
    terms = 0
    zero = 0 if is_int else Fraction(0)
    images = list(all_permutations(range(d)))
    for pimg in images:
        for simg in images:
            inner = [row[:] for row in ga]
            for i in range(d):
                src = gb[i]
                dest = inner[pimg[i]]
                for j in range(d):
                    dest[simg[j]] += src[j]
            total = [
                [zero] * d + inner[i] for i in range(d)
            ] + [
                [inner[i][j] for i in range(d)] + [zero] * d for j in range(d)
            ]
            coeffs = _charpoly_grid(total, is_int)
            for k in range(2 * d + 1):
                acc[k] += coeffs[k]
            terms += 1
    inv = Fraction(1, terms)
    lhs = RatPoly.from_coeffs([c * inv for c in acc])
    p = _strip_linear_root(char_poly(a @ a.transpose()), ra * ra)
    q = _strip_linear_root(char_poly(b @ b.transpose()), rb * rb)
    conv = asym_convolve(p, q, d - 1)
    shifted = RatPoly.from_coeffs([-((ra + rb) ** 2), 0, 1])
    rhs = shifted * conv.substitute_square()
    return QuadratureReport(kind="bip", dim=d, lhs=lhs, rhs=rhs, terms=terms)


# -- structural probes ----------------------------------------------------------------


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


def fourier_degree_test(
    a: RatMatrix, b: RatMatrix, samples: int = 16, rel_tol: float = 1e-8
) -> FourierReport:
    """Sweep a plane rotation G(theta) acting on the first two coordinates and
    check that theta -> det(A + G B G^T) has no Fourier content beyond the
    second harmonic (relative to the largest coefficient).

    The scale is never taken below the rounding noise of the sampled
    determinants divided by ``rel_tol``: the noise is bounded by a multiple of
    machine epsilon times the Hadamard bound of the sampled matrices, so a
    determinant that vanishes identically (whose coefficients are all noise)
    passes instead of comparing noise with noise."""
    if not a.is_square or not b.is_square or a.nrows != b.nrows:
        raise ParameterError("need square matrices of equal size")
    d = a.nrows
    if d < 2:
        raise ParameterError("rotation sweep needs dimension at least 2")
    if samples < 8:
        raise ParameterError("need at least 8 samples")
    if not rel_tol > 0:
        raise ParameterError("rel_tol must be positive")
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
    tail = 0.0
    second = 0.0
    for k in range(samples):
        freq = k if k <= samples // 2 else k - samples
        if abs(freq) == 2:
            second = max(second, coeffs[k])
        if abs(freq) >= 3:
            tail = max(tail, coeffs[k])
    rel = tail / scale
    return FourierReport(
        samples=samples,
        magnitudes=tuple(coeffs),
        second_harmonic=second,
        max_tail_relative=rel,
        passed=rel <= rel_tol,
    )


def rank2_check(a: RatMatrix, sigma: Permutation) -> Rank2Report:
    """Exact rank and trace of A - S A S^T for a permutation S."""
    if not a.is_square:
        raise ParameterError("need a square matrix")
    if sigma.degree != a.nrows:
        raise ParameterError("permutation degree must match matrix size")
    conj = RatMatrix.from_rows(
        relabel_grid([list(row) for row in a.rows], sigma.image)
    )
    diff = a + conj.scale(-1)
    return Rank2Report(rank=diff.rank(), trace=diff.trace())


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
