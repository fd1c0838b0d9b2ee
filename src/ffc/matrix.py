"""Exact rational matrices and characteristic polynomials.

One characteristic-polynomial kernel serves every caller.  An integer matrix
is reduced to upper Hessenberg form modulo word-size primes, its
characteristic polynomial is read off the Hessenberg recurrence modulo each
prime, and the integer coefficients are rebuilt by the Chinese remainder
theorem.  The number of primes comes from the a-priori bound
|c_k| <= prod_i (1 + ||row_i||_2), so the result is exact, not probable.  A
rational matrix clears its denominators first:
det(xI - B/s) = s**-n * det(s x I - B).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
from typing import Iterable, Optional

from .errors import ContractError, ParameterError
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

    @classmethod
    def zero(cls, n: int, m: int | None = None) -> "RatMatrix":
        m = n if m is None else m
        return cls.from_rows([[0] * m for _ in range(n)])

    # -- shape and scalars ----------------------------------------------------

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

    def trace(self) -> Fraction:
        if not self.is_square:
            raise ParameterError("trace needs a square matrix")
        return sum((self.rows[i][i] for i in range(self.nrows)), Fraction(0))

    def transpose(self) -> "RatMatrix":
        return RatMatrix(tuple(zip(*self.rows)))

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ParameterError("shape mismatch in matrix addition")
        return RatMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

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

    def scale(self, c) -> "RatMatrix":
        c = _as_fraction(c)
        return RatMatrix(tuple(tuple(c * v for v in row) for row in self.rows))

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

    def rank(self) -> int:
        """Exact rank via Gaussian elimination over the rationals."""
        work = [list(row) for row in self.rows]
        nr, nc = len(work), len(work[0])
        rank, pivot_row = 0, 0
        for col in range(nc):
            pivot = next(
                (r for r in range(pivot_row, nr) if work[r][col] != 0), None
            )
            if pivot is None:
                continue
            work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
            inv = 1 / work[pivot_row][col]
            for r in range(pivot_row + 1, nr):
                f = work[r][col] * inv
                if f:
                    for c in range(col, nc):
                        work[r][c] -= f * work[pivot_row][c]
            pivot_row += 1
            rank += 1
            if pivot_row == nr:
                break
        return rank


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


@lru_cache(maxsize=None)
def _prime(i: int) -> int:
    """The i-th prime below 2**62, counting down; found on first use."""
    c = (_prime(i - 1) if i else _PRIME_CEILING + 1) - 2
    while not _is_prime(c):
        c -= 2
    return c


def _charpoly_mod(rows: list[list[int]], p: int) -> list[int]:
    """Ascending coefficients of det(xI - A) modulo the prime p."""
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


def charpoly_int_coeffs(rows: list[list[int]]) -> tuple[int, ...]:
    """Ascending coefficients of det(xI - A) for an integer matrix A."""
    bound = 1
    for row in rows:
        sq = sum(v * v for v in row)
        r = isqrt(sq)
        bound *= 1 + r + (r * r < sq)  # 1 + ceil(||row||_2)
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
    out = tuple(c - modulus if c > half else c for c in coeffs)
    n = len(rows)
    if -out[n - 1] != sum(rows[k][k] for k in range(n)):
        raise ContractError("modular characteristic polynomial fails the trace check")
    return out


def char_poly(m: RatMatrix) -> RatPoly:
    """Monic characteristic polynomial det(xI - M), exactly."""
    if not m.is_square:
        raise ParameterError("characteristic polynomial needs a square matrix")
    s = lcm(*(v.denominator for row in m.rows for v in row))
    scaled = [[v.numerator * (s // v.denominator) for v in row] for row in m.rows]
    b = charpoly_int_coeffs(scaled)
    n = m.nrows
    return RatPoly(tuple(Fraction(c, s ** (n - k)) for k, c in enumerate(b)))
