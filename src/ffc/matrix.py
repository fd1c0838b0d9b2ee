"""Exact rational matrices and characteristic polynomials.

One characteristic-polynomial kernel serves every caller.  The integer
coefficients of det(xI - A) are computed modulo word-size primes and rebuilt
by the Chinese remainder theorem.  The number of primes comes from the
a-priori bound |c_k| <= prod_i (1 + ||row_i||_2), so the result is exact, not
probable, and it is checked against tr(A) and tr(A**2) before it is returned.

Modulo each prime, a symmetric matrix of side n >= ``_KRYLOV_MIN_N`` takes
Wiedemann's route: n sparse products give the 2n terms <x, A**k x> of a
Krylov sequence, and Berlekamp-Massey finds their minimal polynomial f.
f divides the minimal polynomial of A, which divides det(xI - A), so
deg f = n proves f = det(xI - A).  When deg f is n - 1 or n - 2, the missing
factor is rebuilt from the power sums tr(A) - p_1(f) and tr(A**2) - p_2(f)
by Newton's identities.  A larger gap, a nonsymmetric matrix or a smaller
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
from functools import lru_cache
from math import isqrt, lcm
from operator import getitem, mul
from typing import Iterable, Optional, Sequence

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


# Below this side the Hessenberg kernel is faster: small unions are often
# derogatory, so the Krylov route falls back anyway, and the Berlekamp-Massey
# overhead outweighs the O(n**3) it saves.  On random m = 3 unions the two
# routes cost the same at n = 11-12 (Krylov/Hessenberg time 1.47 at plain
# n = 10, 1.06 at n = 12, 0.89 at n = 14; 0.98 at bipartite n = 11).
_KRYLOV_MIN_N = 12


def _charpoly_mod(rows: list[list[int]], p: int) -> list[int]:
    """Ascending coefficients of det(xI - A) modulo the odd prime p.

    A symmetric A of side at least ``_KRYLOV_MIN_N`` goes through the
    minimal polynomial f of its Krylov sequence, which divides det(xI - A):
    f is the answer when deg f = n, and a missing factor of degree at most
    two is rebuilt from traces.  Anything else goes to ``_hessenberg_mod``.
    """
    n = len(rows)
    if n >= _KRYLOV_MIN_N and all(tuple(r) == c for r, c in zip(rows, zip(*rows))):
        f = _krylov_minpoly_mod(rows, p)
        missing = n + 1 - len(f)
        if not missing:
            return f
        if missing <= 2:
            return _complete_by_traces(rows, f, missing, p)
    return _hessenberg_mod(rows, p)


def _krylov_minpoly_mod(rows: list[list[int]], p: int) -> list[int]:
    """Ascending coefficients of the minimal polynomial, modulo p, of the
    sequence s_k = <x, A**k x> for a symmetric A and a fixed x.

    With x_k = A**k x, s_2k = <x_k, x_k> and s_2k+1 = <x_k, x_k+1>, so the
    2n terms Berlekamp-Massey needs cost n sparse products.  The result
    divides the minimal polynomial of A, hence det(xI - A).
    """
    n = len(rows)
    entries = [(i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v]
    x = [(i + 1) * 0x9E3779B97F4A7C15 % p for i in range(n)]
    seq = []
    for _ in range(n):
        y = [0] * n
        for i, j, v in entries:
            y[i] += v * x[j]
        y = [v % p for v in y]
        seq += (sum(map(mul, x, x)) % p, sum(map(mul, x, y)) % p)
        x = y
    return _berlekamp_massey(seq, p)


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
    """det(xI - A) modulo p from a divisor f of degree n - r, r <= 2, and a
    symmetric A of side n >= 4.

    The cofactor h has power sums tr(A**k) - p_k(f) for k = 1, 2, and
    Newton's identities give its coefficients because p is odd.
    """
    m = len(f) - 1
    tr1 = sum(row[i] for i, row in enumerate(rows))
    tr2 = sum(v * v for row in rows for v in row)
    e1 = -f[m - 1]
    p1 = (tr1 - e1) % p
    p2 = (tr2 - e1 * e1 + 2 * f[m - 2]) % p
    if r == 1:
        h = [-p1 % p, 1]
    else:
        h = [(p1 * p1 - p2) * pow(2, -1, p) % p, -p1 % p, 1]
    out = [0] * (m + r + 1)
    for i, a in enumerate(f):
        for j, b in enumerate(h):
            out[i + j] += a * b
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


def charpoly_int_coeffs(rows: list[list[int]]) -> tuple[int, ...]:
    """Ascending coefficients of det(xI - A) for an integer matrix A."""
    bound = 1
    for row in rows:
        sq = sum(map(mul, row, row))
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


def char_poly(m: RatMatrix | Sequence[Sequence]) -> RatPoly:
    """Monic characteristic polynomial det(xI - M), exactly, of a
    ``RatMatrix`` or a square grid of ints or Fractions."""
    rows = m.rows if isinstance(m, RatMatrix) else m
    n = len(rows)
    if not n or any(len(row) != n for row in rows):
        raise ParameterError("characteristic polynomial needs a square matrix")
    (scaled,), s = _clear_denominators([rows])
    b = charpoly_int_coeffs(scaled)
    return RatPoly(tuple(Fraction(c, s ** (n - k)) for k, c in enumerate(b)))
