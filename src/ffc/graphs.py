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
characteristic polynomial.

The characteristic polynomial of M = A (plain) or N N^T (bipartite) comes
from one integer Krylov pass over the union's permutations
(``union_terms``): a start vector x orthogonal to the all-ones vector, so
the trivial eigenvector never enters, and n - 1 products, each a sum of
permutation gathers with no grid and no modulus, give the terms
s_k = <x, M**k x>.  They carry an exact Rayleigh-quotient witness
(``witnessed_terms``): with t = 4(m-1), s_2j+2 > t s_2j or
s_2j+1**2 > t s_2j**2 (plain), or s_k+1 > t s_k (bipartite, where M is
positive semidefinite), proves a nontrivial eigenvalue past the bound,
because each quotient averages the powers of eigenvalues that x reaches.
``certify`` passes the same terms to ``char_poly``, whose Berlekamp-Massey
step finds their minimal polynomial f; the divisor (x - m) f or
(x - m**2) f then has degree n unless M repeats an eigenvalue.  No library
path calls ``jacobi_eigenvalues`` or ``float_filter``; no verdict depends
on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Iterable, Iterator, Sequence

from .errors import BudgetError, ContractError, ParameterError
from .matrix import RatMatrix, _start_vector, char_poly, dilation, krylov_terms
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

# The most permutation entries, d * m, that one sampled union may hold.
# Drawing the largest takes a few seconds; past it a request such as
# d = 10**8 would exhaust memory before the first permutation is complete.
MAX_SAMPLE_ENTRIES = 1 << 20

# The largest side d and degree m a union may have for ``certify``, and so
# for a search trial or a descent.  A certificate is an exact integer
# characteristic polynomial of a d x d matrix whose entries grow with m: a
# plain one takes about 0.19 s at d = 256, m = 3, 2.7 s at d = 512 and 25 s
# at d = 1024 on one core, and one search trial at d = 256, m = 32 takes
# 0.7-1.9 s.  Each product of the Krylov pass makes m permutation gathers (2m
# in bipartite mode), so its time grows with m as well as d.
MAX_CERTIFY_SIDE = 256
MAX_SEARCH_DEGREE = 32

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


def _check_sample_size(mode: str, d: int, m: int) -> None:
    check_shape(mode, d, m)
    if d * m > MAX_SAMPLE_ENTRIES:
        raise BudgetError(
            f"a union of {m} permutations of {d} points has {d * m} entries, "
            f"budget allows {MAX_SAMPLE_ENTRIES}"
        )


def sample_nonbipartite(d: int, m: int, rng: SplitMix64) -> MatchingUnion:
    """Union of m uniform conjugates of the fixed matching on d vertices;
    refused before any draw past ``MAX_SAMPLE_ENTRIES``."""
    _check_sample_size("nonbipartite", d, m)
    perms = tuple(uniform_permutation(d, rng) for _ in range(m))
    return MatchingUnion("nonbipartite", d, m, perms)


def sample_bipartite(d: int, m: int, rng: SplitMix64) -> MatchingUnion:
    """Union of m uniform matchings across a (d, d) bipartition; refused
    before any draw past ``MAX_SAMPLE_ENTRIES``."""
    _check_sample_size("bipartite", d, m)
    perms = tuple(uniform_permutation(d, rng) for _ in range(m))
    return MatchingUnion("bipartite", d, m, perms)


def deflate_trivial(p: RatPoly, m: int | Fraction, bipartite: bool) -> RatPoly:
    """Divide out the trivial eigenvalue m once, and -m once in bipartite mode.

    Exactly one copy is removed, so a disconnected sample keeps its surplus
    eigenvalue m and fails certification honestly.
    """
    coeffs = p.coeffs
    for r in (m, -m) if bipartite else (m,):
        coeffs = _deflate_int(coeffs, r)
    return RatPoly.from_coeffs(coeffs)


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


def _deflate_int(p: Sequence, r) -> tuple:
    """Quotient of p by x - r, by synthetic division, both ascending; one
    copy of the trivial root r.  Exact over int or Fraction coefficients and
    roots, so integer inputs stay integer."""
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


def union_terms(g: MatchingUnion) -> Iterator[int]:
    """The 2(n - 1) terms s_k = <x, M**k x> of M = A (plain) or N N^T
    (bipartite), both of side n = d, for ``_start_vector(n)``, in order.

    Each product sums the union's permutation gathers: A y adds y at each
    matching's partner, N^T y gathers y through each permutation and N z
    through each inverse.  The integers are exact, with no modulus.
    """
    d = g.d
    if g.mode == "nonbipartite":
        partners = []
        for p in g.perms:
            partner, im = [0] * d, p.image
            for k in range(0, d, 2):
                partner[im[k]], partner[im[k + 1]] = im[k + 1], im[k]
            partners.append(partner)

        def product(y: list[int]) -> list[int]:
            return list(map(sum, zip(*(map(y.__getitem__, q) for q in partners))))
    else:
        images = [p.image for p in g.perms]
        inverses = [sorted(range(d), key=im.__getitem__) for im in images]

        def product(y: list[int]) -> list[int]:
            z = list(map(sum, zip(*(map(y.__getitem__, q) for q in images))))
            return list(map(sum, zip(*(map(z.__getitem__, q) for q in inverses))))

    return krylov_terms(product, _start_vector(d), d - 1)


def witnessed_terms(g: MatchingUnion) -> list[int] | None:
    """The terms of ``union_terms(g)``, or None as soon as an exact
    Rayleigh quotient of them proves a nontrivial eigenvalue past
    2*sqrt(m-1), so that ``certify`` would find ``g`` NOT_RAMANUJAN.

    Each quotient is a weighted average of the eigenvalues, or their
    squares, that the start vector reaches, and it never reaches the
    trivial eigenvector.
    """
    t = 4 * (g.m - 1)
    terms: list[int] = []
    plain = g.mode == "nonbipartite"
    for k, s in enumerate(union_terms(g)):
        if plain:
            # s_2j+1**2 > t s_2j**2, or s_2j+2 > t s_2j
            past = s * s > t * terms[k - 1] ** 2 if k % 2 else k and s > t * terms[k - 2]
        else:
            past = k and s > t * terms[k - 1]
        if past:
            return None
        terms.append(s)
    return terms


def certify(g: MatchingUnion, terms: Sequence[int] | None = None) -> RamanujanCertificate:
    """Certify whether all nontrivial eigenvalues lie within 2*sqrt(m-1).

    All counts are exact root counts of integer polynomials in the squared
    eigenvalue y against 4(m-1).  Verdicts: strictly-ramanujan when every
    deflated root is interior, ramanujan-with-boundary when the rest sit
    exactly at the bound, else not-ramanujan.  ``terms`` are those of
    ``union_terms(g)`` when the caller already holds them.  A side past
    ``MAX_CERTIFY_SIDE`` or a degree past ``MAX_SEARCH_DEGREE`` is refused
    before any grid is built.
    """
    if g.d > MAX_CERTIFY_SIDE:
        raise BudgetError(f"side {g.d} exceeds the budget of {MAX_CERTIFY_SIDE}")
    if g.m > MAX_SEARCH_DEGREE:
        raise BudgetError(f"degree {g.m} exceeds the budget of {MAX_SEARCH_DEGREE}")
    if terms is None:
        terms = list(union_terms(g))
    # m = 1 degenerates to bound 0; the general formula needs m >= 2
    bound = ramanujan_bound(g.m) if g.m >= 2 else as_quad(0)
    if g.mode == "bipartite":
        q = char_poly(_gram(g.grid()), terms)
        # one copy of the trivial eigenvalue m**2 of N N^T, i.e. of +-m
        squared = _deflate_int(_int_coeffs(q), g.m * g.m)
        cp = q.substitute_square()
        deflated = RatPoly.from_coeffs(squared).substitute_square()
        below, at = _split_at(squared, 4 * (g.m - 1))
        # each squared singular value y stands for the pair +-sqrt(y)
        interior, boundary = 2 * below, 2 * at
    else:
        cp = char_poly(g.grid(), terms)
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
