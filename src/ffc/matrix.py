"""Exact rational matrices and characteristic polynomials.

One characteristic-polynomial kernel serves every caller.  The integer
coefficients of det(xI - A) are computed modulo one Mersenne prime
p = 2**e - 1, the smallest in ``_MERSENNE_EXPONENTS`` above twice the
a-priori bound |c_k| <= prod_i (1 + ||row_i||_2), and lifted to the
symmetric range (-p/2, p/2).  Known Mersenne primes are proved prime by
Lucas-Lehmer, so nothing is searched for, and one modulus needs no Chinese
remainder step.  The result is exact, not probable, and it is checked
against tr(A) and tr(A**2) before it is returned.

Modulo p, a symmetric matrix of side n >= ``_KRYLOV_MIN_N`` takes
Wiedemann's route: ``krylov_terms`` makes n sparse products for the 2n
terms s_k = <x, A**k x> of a Krylov sequence, and Berlekamp-Massey finds
their minimal polynomial f.  f divides the minimal polynomial of A, which
divides det(xI - A), so deg f = n proves f = det(xI - A).  A caller that
already holds integer terms passes them instead, at any side: the terms
of a start vector x orthogonal to the all-ones vector, for a symmetric A
whose rows all sum to r.  Then 1 is an eigenvector outside the Krylov
space, which stays in its orthogonal complement, so the divisor is
(x - r) * f, and n - 1 products gave the 2(n - 1) terms.  When the divisor
falls short by one or two degrees, the missing factor is rebuilt from the
power sums tr(A) - p_1 and tr(A**2) - p_2 of the divisor's roots by
Newton's identities.  A larger gap, a nonsymmetric matrix or a smaller
side goes to the O(n**3) Hessenberg reduction, whose recurrence gives the
polynomial directly.

``char_poly`` takes a ``RatMatrix`` or a plain square grid of ints or
Fractions, so integer callers pass their grids straight through.  Rational
entries are cleared by ``_clear_denominators`` first, the one helper the
permutation averages share: det(xI - B/s) = s**-n * det(s x I - B).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from operator import getitem, mul
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import BudgetError, ContractError, ParameterError
from .poly import RatPoly, _as_fraction


@dataclass(frozen=True)
class RatMatrix:
    """Immutable rational matrix stored as a tuple of row tuples."""

    rows: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RatMatrix":
        built = tuple(tuple(_as_fraction(v) for v in row) for row in rows)
        if not built:
            raise ParameterError("matrix needs at least one row")
        width = len(built[0])
        if any(len(r) != width for r in built):
            raise ParameterError("ragged rows")
        return cls(built)

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    # -- shape -----------------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @property
    def is_symmetric(self) -> bool:
        if not self.is_square:
            return False
        n = self.nrows
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(n)
            for j in range(i + 1, n)
        )

    def transpose(self) -> "RatMatrix":
        return RatMatrix(tuple(zip(*self.rows)))

    # -- arithmetic -------------------------------------------------------------

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.ncols != other.nrows:
            raise ParameterError("shape mismatch in matrix product")
        cols = other.transpose().rows
        return RatMatrix(
            tuple(
                tuple(sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols)
                for row in self.rows
            )
        )

    # -- structure probes --------------------------------------------------------

    def int_rows(self) -> Optional[list[list[int]]]:
        """Plain-int copy when every entry is an integer, else None."""
        out = []
        for row in self.rows:
            cur = []
            for v in row:
                if v.denominator != 1:
                    return None
                cur.append(v.numerator)
            out.append(cur)
        return out

    def constant_row_sum(self) -> Optional[Fraction]:
        sums = {sum(row, Fraction(0)) for row in self.rows}
        return sums.pop() if len(sums) == 1 else None

    def constant_doubly_regular_sum(self) -> Optional[Fraction]:
        """Common row-and-column sum, or None if none exists."""
        s = self.constant_row_sum()
        if s is None:
            return None
        t = self.transpose().constant_row_sum()
        return s if s == t else None


def dilation(m: RatMatrix) -> RatMatrix:
    """Symmetric block matrix [[0, M], [M^T, 0]]."""
    nr, nc = m.nrows, m.ncols
    zero = Fraction(0)
    top = tuple(
        tuple(zero for _ in range(nr)) + m.rows[i] for i in range(nr)
    )
    mt = m.transpose()
    bottom = tuple(
        mt.rows[j] + tuple(zero for _ in range(nc)) for j in range(nc)
    )
    return RatMatrix(top + bottom)


# -- characteristic polynomials ---------------------------------------------

# Exponents e of the known Mersenne primes 2**e - 1 from 61 up, each proved
# prime by Lucas-Lehmer.  Only the modulus a call needs is ever built.
_MERSENNE_EXPONENTS = (
    61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689,
    9941, 11213, 19937, 21701, 23209, 44497, 86243, 110503, 132049, 216091,
    756839, 859433, 1257787, 1398269, 2976221, 3021377, 6972593, 13466917,
    20996011, 24036583, 25964951, 30402457, 32582657, 37156667, 42643801,
    43112609, 57885161, 74207281, 77232917, 82589933,
)


# Below this side a grid that brings no Krylov terms goes to the Hessenberg
# kernel, which is faster there: small unions are often derogatory, so the
# Krylov route falls back anyway, and the Berlekamp-Massey overhead
# outweighs the O(n**3) it saves.  On random m = 3 union grids the two
# routes cost the same at n = 10-12 (Krylov/Hessenberg time modulo 2**61 - 1
# 1.34 at plain n = 10, 1.03 at n = 12, 0.84 at n = 14; 0.94 at bipartite
# n = 10, 0.89 at n = 11; best of 5 over 300 grids, CPython 3.11).
_KRYLOV_MIN_N = 12


def _charpoly_mod(
    rows: list[list[int]], p: int, terms: Sequence[int] | None = None
) -> list[int]:
    """Ascending coefficients of det(xI - A) modulo the odd prime p.

    With ``terms``, the integer Krylov terms of a start vector orthogonal
    to the all-ones vector, A is symmetric with row sums r and the divisor
    is (x - r) * f.  Without them, a symmetric A of side at least
    ``_KRYLOV_MIN_N`` makes its own terms modulo p and the divisor is f,
    where f is the minimal polynomial of the terms.  The divisor is the
    answer when it has degree n, and a missing factor of degree at most two
    is rebuilt from traces.  Anything else goes to ``_hessenberg_mod``.
    """
    n = len(rows)
    if terms is not None:
        r = sum(rows[0])
        if any(sum(row) != r for row in rows):
            raise ContractError("Krylov terms orthogonal to 1 need equal row sums")
        f = _mul_mod([-r, 1], _berlekamp_massey([s % p for s in terms], p), p)
    elif n >= _KRYLOV_MIN_N and all(tuple(r) == c for r, c in zip(rows, zip(*rows))):
        entries = [(i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v]

        def product(x: list[int]) -> list[int]:
            y = [0] * n
            for i, j, v in entries:
                y[i] += v * x[j]
            return [v % p for v in y]

        x = [(i + 1) * 0x9E3779B97F4A7C15 % p for i in range(n)]
        f = _berlekamp_massey([s % p for s in krylov_terms(product, x, n)], p)
    else:
        return _hessenberg_mod(rows, p)
    missing = n + 1 - len(f)
    if not missing:
        return f
    if missing <= 2:
        return _complete_by_traces(rows, f, missing, p)
    return _hessenberg_mod(rows, p)


def krylov_terms(
    product: Callable[[list[int]], list[int]], x: list[int], steps: int
) -> Iterator[int]:
    """The terms s_k = <x, M**k x>, k < 2 * steps, in order, where
    ``product`` applies a symmetric M.

    With x_k = M**k x, s_2k = <x_k, x_k> and s_2k+1 = <x_k, x_k+1>, so the
    terms cost ``steps`` products, and a caller can stop at any term.
    """
    for _ in range(steps):
        y = product(x)
        yield sum(map(mul, x, x))
        yield sum(map(mul, x, y))
        x = y


def _berlekamp_massey(s: list[int], p: int) -> list[int]:
    """Ascending coefficients of the minimal polynomial of a linearly
    recurrent sequence over GF(p), exact when s has at least twice its
    degree in terms."""
    c, b = [1], [1]  # connection polynomials, constant term first
    # inv_last inverts the discrepancy b was saved at; it changes only with b
    length, shift, inv_last = 0, 1, 1
    for i, v in enumerate(s):
        k = min(len(c), i + 1)
        d = sum(map(mul, c[:k], reversed(s[i + 1 - k:i + 1]))) % p
        if not d:
            shift += 1
            continue
        coef = d * inv_last % p
        prev = c
        c = c + [0] * (len(b) + shift - len(c))
        c[shift:shift + len(b)] = [
            (a - coef * e) % p for a, e in zip(c[shift:shift + len(b)], b)
        ]
        if 2 * length <= i:
            length, b, inv_last, shift = i + 1 - length, prev, pow(d, -1, p), 1
        else:
            shift += 1
    c += [0] * (length + 1 - len(c))
    # the minimal polynomial is x**length * C(1/x)
    return c[length::-1]


def _complete_by_traces(rows: list[list[int]], f: list[int], r: int, p: int) -> list[int]:
    """det(xI - A) modulo p from a monic divisor f of degree n - r, r <= 2,
    and a symmetric A of side n.

    The cofactor h has power sums tr(A**k) - p_k(f) for k = 1, 2, and
    Newton's identities give its coefficients because p is odd.
    """
    tr1 = sum(row[i] for i, row in enumerate(rows))
    tr2 = sum(v * v for row in rows for v in row)
    # a divisor of degree below two has zero elementary symmetric functions past it
    *_, c2, c1, _ = [0, 0] + f
    e1 = -c1
    p1 = (tr1 - e1) % p
    p2 = (tr2 - e1 * e1 + 2 * c2) % p
    if r == 1:
        h = [-p1 % p, 1]
    else:
        h = [(p1 * p1 - p2) * pow(2, -1, p) % p, -p1 % p, 1]
    return _mul_mod(f, h, p)


def _mul_mod(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Product modulo p of two polynomials, ascending coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return [v % p for v in out]


def _hessenberg_mod(rows: list[list[int]], p: int) -> list[int]:
    """Ascending coefficients of det(xI - A) modulo the prime p, by an
    O(n**3) reduction to Hessenberg form; any square A."""
    n = len(rows)
    h = [[v % p for v in row] for row in rows]
    # Hessenberg reduction by similarity: clear column j below the subdiagonal
    for j in range(n - 2):
        j1 = j + 1
        pivot = next((i for i in range(j1, n) if h[i][j]), None)
        if pivot is None:
            continue
        if pivot != j1:
            h[pivot], h[j1] = h[j1], h[pivot]
            for row in h:
                row[pivot], row[j1] = row[j1], row[pivot]
        top = h[j1]
        inv = pow(top[j], -1, p)
        # the row eliminations all use the original row j1; the matching
        # column operations commute, so they are applied together afterwards
        multipliers = []
        for i in range(j + 2, n):
            row = h[i]
            u = row[j] * inv % p
            if u:
                row[j:] = [(a - u * b) % p for a, b in zip(row[j:], top[j:])]
                multipliers.append((i, u))
        if multipliers:
            for row in h:
                row[j1] = (row[j1] + sum(u * row[i] for i, u in multipliers)) % p
    # charpolys of the leading principal submatrices, each from the
    # earlier ones through the last column and the subdiagonal
    polys = [[1]]
    for k in range(1, n + 1):
        prev = polys[-1]
        diag = h[k - 1][k - 1]
        cur = [0] + prev
        for e, c in enumerate(prev):
            cur[e] -= diag * c
        sub = 1
        for i in range(k - 1, 0, -1):
            sub = sub * h[i][i - 1] % p
            c = h[i - 1][k - 1] * sub % p
            if c:
                for e, v in enumerate(polys[i - 1]):
                    cur[e] -= c * v
        polys.append([v % p for v in cur])
    return polys[-1]


def _grid_sum(grids: Iterable[list[list[int]]]) -> list[list[int]]:
    """Entrywise sum of one or more equally sized integer grids."""
    return [list(map(sum, zip(*rows))) for rows in zip(*grids)]


def charpoly_int_coeffs(
    rows: list[list[int]], terms: Sequence[int] | None = None
) -> tuple[int, ...]:
    """Ascending coefficients of det(xI - A) for an integer matrix A;
    ``terms`` are optional integer Krylov terms as ``_charpoly_mod`` takes
    them.

    Its only limit is on the modulus: a coefficient bound past the largest
    listed Mersenne prime raises BudgetError.  Nothing limits its time,
    which grows with the side cubed and with the bound's length, so callers
    that take sizes from users refuse them before building the matrix
    (``graphs.MAX_CERTIFY_SIDE``, for one).
    """
    bound = 1
    for row in rows:
        sq = sum(map(mul, row, row))
        r = isqrt(sq)
        bound *= 1 + r + (r * r < sq)  # 1 + ceil(||row||_2)
    # 2**e - 1 > 2 * bound exactly when e reaches the bit length of 2 * bound + 1
    need = (2 * bound + 1).bit_length()
    e = next((k for k in _MERSENNE_EXPONENTS if k >= need), None)
    if e is None:
        raise BudgetError(
            f"coefficient bound of {bound.bit_length()} bits needs a modulus "
            f"past 2**{_MERSENNE_EXPONENTS[-1]} - 1"
        )
    p = (1 << e) - 1
    half = p // 2
    out = tuple(c - p if c > half else c for c in _charpoly_mod(rows, p, terms))
    n = len(rows)
    tr = sum(map(getitem, rows, range(n)))
    if -out[n - 1] != tr:
        raise ContractError("modular characteristic polynomial fails the trace check")
    # 2 c_{n-2} = tr(A)**2 - tr(A**2), and tr(A**2) = sum_ij a_ij a_ji
    if n > 1 and 2 * out[n - 2] != tr * tr - sum(
        sum(map(mul, row, col)) for row, col in zip(rows, zip(*rows))
    ):
        raise ContractError("modular characteristic polynomial fails the tr(A^2) check")
    return out


def _clear_denominators(grids: Sequence[Sequence[Sequence]]) -> tuple[list, int]:
    """Integer grids of s * A_i, int or Fraction entries, and the lcm s of
    every denominator."""
    # an all-int grid, such as a matching union's, needs no lcm scan
    if all(type(v) is int for g in grids for row in g for v in row):
        return list(grids), 1
    s = lcm(*(v.denominator for g in grids for row in g for v in row))
    return [[[v.numerator * (s // v.denominator) for v in row] for row in g] for g in grids], s


def char_poly(m: RatMatrix | Sequence[Sequence], terms: Sequence[int] | None = None) -> RatPoly:
    """Monic characteristic polynomial det(xI - M), exactly, of a
    ``RatMatrix`` or a square grid of ints or Fractions.

    ``terms`` are integer Krylov terms of an integer grid, as
    ``_charpoly_mod`` takes them, which the caller already holds.
    """
    rows = m.rows if isinstance(m, RatMatrix) else m
    n = len(rows)
    if not n or any(len(row) != n for row in rows):
        raise ParameterError("characteristic polynomial needs a square matrix")
    (scaled,), s = _clear_denominators([rows])
    b = charpoly_int_coeffs(scaled, terms)
    return RatPoly(tuple(Fraction(c, s ** (n - k)) for k, c in enumerate(b)))
