"""Unions of random perfect matchings and exact Ramanujan certification.

A sample is a union of m perfect matchings: in nonbipartite mode the sum of
m permutation-conjugates of one fixed matching on d vertices, in bipartite
mode the sum of m permutation matchings across a (d, d) bipartition.  Edge
entries count multiplicity, so samples are multigraphs.  ``union_grid``
builds every union's integer grid from raw permutation images, for
``MatchingUnion.grid`` and for the descent's conditional averages alike.

Certification is exact and runs on integers.  The adjacency spectrum is real,
so the verdict is a statement about the squared nontrivial eigenvalues
against the rational threshold 4(m-1), and Descartes' rule of signs counts
real-rooted polynomials exactly.  In bipartite mode the squared spectrum is
that of the d x d Gram matrix N N^T of the biadjacency N, whose
characteristic polynomial q gives char(A) = q(x**2); the trivial root m**2
is divided out of q.  In nonbipartite mode the trivial root m is divided out
of char(A) and the Graeffe square of the rest has the squared eigenvalues as
roots.  Both divisions are integer synthetic divisions of the integer
characteristic polynomial.  ``inertia_verdict`` reaches the same verdict for
less, when it can, from the inertia of the integer matrix G - 4(m-1) I,
where G is that Gram matrix or A**2.  No library path calls
``jacobi_eigenvalues`` or ``float_filter``; no verdict depends on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Iterable

from .errors import ContractError, ParameterError
from .matrix import RatMatrix, char_poly, dilation
from .perms import Permutation, uniform_permutation
from .poly import RatPoly
from .quadfield import QuadScalar, as_quad
from .rng import SplitMix64
from .sturm import _taylor_shift

# unused here; bench/tracing.py still looks them up in this module
from .perms import relabel_grid  # noqa: F401
from .sturm import count_roots_in_mult, root_multiplicity_at  # noqa: F401
from .transforms import ramanujan_bound

MODES = ("bipartite", "nonbipartite")

STRICT = "strictly-ramanujan"
WITH_BOUNDARY = "ramanujan-with-boundary"
NOT_RAMANUJAN = "not-ramanujan"


def union_grid(mode: str, d: int, images: Iterable[tuple[int, ...]]) -> list[list[int]]:
    """d x d grid, counting parallel edges, of the matchings ``images`` place
    (raw tuples, not validated): the adjacency with image[2k] joined to
    image[2k+1] (nonbipartite), or the biadjacency N with left j joined to
    right image[j] in N[image[j]][j] (bipartite)."""
    grid = [[0] * d for _ in range(d)]
    for image in images:
        if mode == "nonbipartite":
            for k in range(0, d, 2):
                a, b = image[k], image[k + 1]
                grid[a][b] += 1
                grid[b][a] += 1
        else:
            for j, i in enumerate(image):
                grid[i][j] += 1
    return grid


def matching_grid(d: int) -> list[list[int]]:
    """Adjacency grid of the fixed perfect matching pairing (2k, 2k+1)."""
    if d < 2 or d % 2:
        raise ParameterError("perfect matching needs an even vertex count")
    return union_grid("nonbipartite", d, [tuple(range(d))])


def check_shape(mode, d, m) -> None:
    """Raise ParameterError unless (mode, d, m) can describe a matching union."""
    if mode not in MODES:
        raise ParameterError(f"unknown mode {mode!r}")
    if type(d) is not int or type(m) is not int:
        raise ParameterError("d and m must be integers")
    if mode == "nonbipartite" and (d < 2 or d % 2):
        raise ParameterError("nonbipartite mode needs an even vertex count")
    if mode == "bipartite" and d < 1:
        raise ParameterError("side size must be positive")
    if m < 1:
        raise ParameterError("need m >= 1 permutations")


@dataclass(frozen=True)
class MatchingUnion:
    """Union of m perfect matchings, stored as the permutations that place them.

    Nonbipartite: d is the vertex count (even) and perm i conjugates the fixed
    matching, contributing P_i M P_i^T.  Bipartite: d is the per-side size and
    perm i is the matching from left vertex j to right vertex perm(j), so the
    graph has 2d vertices and biadjacency equal to the sum of the permutation
    matrices.
    """

    mode: str
    d: int
    m: int
    perms: tuple[Permutation, ...]

    def __post_init__(self) -> None:
        check_shape(self.mode, self.d, self.m)
        if self.m != len(self.perms):
            raise ParameterError(
                f"m = {self.m} needs {self.m} permutations, got {len(self.perms)}"
            )
        for p in self.perms:
            if p.degree != self.d:
                raise ParameterError("permutation degree does not match d")

    @property
    def n_vertices(self) -> int:
        return self.d if self.mode == "nonbipartite" else 2 * self.d

    def grid(self) -> list[list[int]]:
        """Integer adjacency (nonbipartite) or d x d biadjacency N (bipartite),
        entries counting parallel edges."""
        return union_grid(self.mode, self.d, (p.image for p in self.perms))

    def adjacency(self) -> RatMatrix:
        """Symmetric integer adjacency with entries counting parallel edges."""
        a = RatMatrix(tuple(tuple(map(Fraction, row)) for row in self.grid()))
        return a if self.mode == "nonbipartite" else dilation(a)


def _gram(n: list[list[int]]) -> list[list[int]]:
    """N N^T: its eigenvalues are the squared singular values of N.

    Summed column by column over the nonzero entries, so a union's grid,
    with at most m nonzeros per row, costs O(d**2 + d m**2), not O(d**3).
    """
    out = [[0] * len(n) for _ in n]
    for col in zip(*n):
        nonzero = [(i, a) for i, a in enumerate(col) if a]
        for i, a in nonzero:
            oi = out[i]
            for j, b in nonzero:
                oi[j] += a * b
    return out


def sample_nonbipartite(d: int, m: int, rng: SplitMix64) -> MatchingUnion:
    """Union of m uniform conjugates of the fixed matching on d vertices."""
    check_shape("nonbipartite", d, m)
    perms = tuple(uniform_permutation(d, rng) for _ in range(m))
    return MatchingUnion("nonbipartite", d, m, perms)


def sample_bipartite(d: int, m: int, rng: SplitMix64) -> MatchingUnion:
    """Union of m uniform matchings across a (d, d) bipartition."""
    check_shape("bipartite", d, m)
    perms = tuple(uniform_permutation(d, rng) for _ in range(m))
    return MatchingUnion("bipartite", d, m, perms)


def deflate_trivial(p: RatPoly, m: int, bipartite: bool) -> RatPoly:
    """Divide out the trivial eigenvalue m once, and -m once in bipartite mode.

    Exactly one copy is removed, so a disconnected sample keeps its surplus
    eigenvalue m and fails certification honestly.
    """
    out = p
    roots = [Fraction(m), Fraction(-m)] if bipartite else [Fraction(m)]
    for r in roots:
        try:
            out = out.div_exact(RatPoly.from_roots([r]))
        except ContractError:
            raise ContractError(
                f"characteristic polynomial has no root at {r}; "
                "the graph is not regular of the claimed degree"
            ) from None
    return out


@dataclass(frozen=True)
class RamanujanCertificate:
    """Exact root-location record for one matching union.

    interior_count and boundary_count are multiplicity counts of the deflated
    polynomial's roots inside (-bound, bound) and at +-bound; together with
    the exterior remainder they account for every root.
    """

    mode: str
    d: int
    m: int
    char_poly: RatPoly
    deflated: RatPoly
    bound: QuadScalar
    interior_count: int
    boundary_count: int
    verdict: str

    @property
    def is_ramanujan(self) -> bool:
        """Nonstrict reading: boundary eigenvalues allowed."""
        return self.verdict in (STRICT, WITH_BOUNDARY)


def _int_coeffs(p: RatPoly) -> tuple[int, ...]:
    """Coefficients of a polynomial known to have integer ones, such as the
    characteristic polynomial of an integer grid."""
    return tuple(c.numerator for c in p.coeffs)


def _deflate_int(p: tuple[int, ...], r: int) -> tuple[int, ...]:
    """Quotient of the integer polynomial p by x - r, by synthetic division,
    both ascending; one copy of the trivial root r, as in ``deflate_trivial``."""
    out = [0] * (len(p) - 1)
    acc = 0
    for k in range(len(p) - 1, 0, -1):
        acc = acc * r + p[k]
        out[k - 1] = acc
    if acc * r + p[0]:
        raise ContractError(
            f"characteristic polynomial has no root at {r}; "
            "the graph is not regular of the claimed degree"
        )
    return tuple(out)


def _graeffe_square(p: tuple[int, ...]) -> tuple[int, ...]:
    """(-1)**n p(sqrt(y)) p(-sqrt(y)) for p of degree n: its roots are the
    squares of the roots of p, with multiplicity."""
    even, odd = p[0::2], p[1::2]
    out = [0] * len(p)
    for i, a in enumerate(even):
        for j, b in enumerate(even):
            out[i + j] += a * b
    for i, a in enumerate(odd):
        for j, b in enumerate(odd):
            out[i + j + 1] -= a * b
    return tuple(out) if len(p) % 2 else tuple(-v for v in out)


def _split_at(q: tuple[int, ...], t: int) -> tuple[int, int]:
    """(roots below t, roots at t), with multiplicity, of a real-rooted q.

    Shifts q to q(z + t); its trailing zeros count the roots at t, and for a
    real-rooted polynomial Descartes' rule counts the positive roots exactly.
    """
    c = list(_taylor_shift(q, t))
    n = len(c) - 1
    at = next(k for k, v in enumerate(c) if v)
    signs = [v > 0 for v in c[at:] if v]
    above = sum(a != b for a, b in zip(signs, signs[1:]))
    return n - above - at, at


def certify(g: MatchingUnion) -> RamanujanCertificate:
    """Certify whether all nontrivial eigenvalues lie within 2*sqrt(m-1).

    All counts are exact root counts of integer polynomials in the squared
    eigenvalue y against 4(m-1).  Verdicts: strictly-ramanujan when every
    deflated root is interior, ramanujan-with-boundary when the rest sit
    exactly at the bound, else not-ramanujan.
    """
    # m = 1 degenerates to bound 0; the general formula needs m >= 2
    bound = ramanujan_bound(g.m) if g.m >= 2 else as_quad(0)
    if g.mode == "bipartite":
        q = char_poly(_gram(g.grid()))
        # one copy of the trivial eigenvalue m**2 of N N^T, i.e. of +-m
        squared = _deflate_int(_int_coeffs(q), g.m * g.m)
        cp = q.substitute_square()
        deflated = RatPoly.from_coeffs(squared).substitute_square()
        below, at = _split_at(squared, 4 * (g.m - 1))
        # each squared singular value y stands for the pair +-sqrt(y)
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


def inertia_verdict(g: MatchingUnion) -> str | None:
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


# cap on Jacobi sweeps; a screen that has not converged by then never skips
_JACOBI_SWEEPS = 100


def jacobi_eigenvalues(
    grid: list[list[float]], tol: float = 1e-10
) -> tuple[list[float], bool]:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, ascending,
    and whether every off-diagonal entry fell below tol within the sweep cap."""
    n = len(grid)
    a = [[float(x) for x in row] for row in grid]
    for sweep in range(_JACOBI_SWEEPS + 1):
        off = max(
            (abs(a[p][q]) for p in range(n) for q in range(p + 1, n)), default=0.0
        )
        if off < tol or sweep == _JACOBI_SWEEPS:
            break
        for p in range(n):
            for q in range(p + 1, n):
                if abs(a[p][q]) <= off * 1e-6:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
                t = 1.0 / (abs(theta) + (theta * theta + 1.0) ** 0.5)
                if theta < 0:
                    t = -t
                c = 1.0 / (t * t + 1.0) ** 0.5
                s = t * c
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
    return sorted(a[i][i] for i in range(n)), off < tol


def float_filter(g: MatchingUnion) -> float | None:
    """Approximate largest absolute nontrivial adjacency eigenvalue, or None
    when the eigensolver did not converge.

    Bipartite mode: sigma_2, the second singular value of the biadjacency,
    from the d x d Gram matrix.  Nonbipartite mode: the larger of the second
    eigenvalue and minus the smallest one.  Pre-screen only: callers may skip
    exact certification when this is far above the bound, and must never
    base a verdict on it.
    """
    if g.mode == "bipartite":
        eigs, converged = jacobi_eigenvalues(_gram(g.grid()))
        value = sqrt(max(eigs[-2], 0.0)) if g.d > 1 else 0.0
    else:
        eigs, converged = jacobi_eigenvalues(g.grid())
        value = max(eigs[-2], -eigs[0])
    return value if converged else None
