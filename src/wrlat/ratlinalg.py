"""Exact rational scalars and dense rational linear algebra.

Every quantity in this package that can be rational is kept rational: the
scalar type is ``fractions.Fraction`` (aliased ``Rational``), matrices are
dense row-major tuples of Fractions, and all eliminations are exact.
Matrices are small (desk-scale ranks, at most ~12), so dense algorithms are
the right tool.  Determinants, LDL, rank and Schur steps run fraction-free on
the integer matrix s A, with s the lcm of A's denominators; only the
solvers (`rref`) eliminate in Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NotPositiveDefinite, NotSymmetric

Rational = Fraction


def parse_rational(s: str) -> Fraction:
    """Parse "p/q" or "p" (optional leading '-') into an exact Fraction."""
    if not isinstance(s, str):
        raise ValueError(f"not a rational literal: {s!r} (write it as a string)")
    text = s.strip().replace("−", "-")
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational literal: {s!r}") from exc


def format_rational(x: Fraction) -> str:
    """Render a Fraction as "p/q", or "p" when the denominator is 1."""
    return str(Fraction(x))


def int_sqrt_floor(q: Fraction | int) -> int:
    """Largest nonnegative integer t with t*t <= q.

    Exact for any nonnegative rational: t^2 is an integer, so t^2 <= q
    iff t^2 <= floor(q).
    """
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative radicand")
    return math.isqrt(q.numerator // q.denominator)


class RatMatrix:
    """Immutable dense matrix of Fractions, stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable):
        ent = tuple(Fraction(e) for e in entries)
        if rows < 0 or cols < 0 or len(ent) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(ent)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", ent)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RatMatrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        if any(len(r) != nc for r in rows):
            raise ValueError("ragged rows")
        return cls(nr, nc, [e for r in rows for e in r])

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls(rows, cols, [Fraction(0)] * (rows * cols))

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other.entries[k * other.cols + j] for k in range(self.cols)))
        return RatMatrix(self.rows, other.cols, out)

    def scaled(self, factor) -> "RatMatrix":
        f = Fraction(factor)
        return RatMatrix(self.rows, self.cols, [f * e for e in self.entries])

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self[i, j] == self[j, i] for i in range(self.rows) for j in range(i + 1, self.cols)
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"RatMatrix({self.rows}x{self.cols}: {body})"


def block_diag(*mats: RatMatrix) -> RatMatrix:
    n = sum(m.rows for m in mats)
    c = sum(m.cols for m in mats)
    out = [[Fraction(0)] * c for _ in range(n)]
    ro = co = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                out[ro + i][co + j] = m[i, j]
        ro += m.rows
        co += m.cols
    return RatMatrix.from_rows(out)


def integer_scaled(a: RatMatrix) -> tuple[int, list[list[int]]]:
    """(s, s A) as integer rows, with s the lcm of the denominators of A."""
    scale = math.lcm(*(e.denominator for e in a.entries))
    return scale, [[e.numerator * (scale // e.denominator) for e in a.row(i)] for i in range(a.rows)]


def gram_of_vectors(g: RatMatrix, vectors: Sequence[Sequence[int]]) -> list[list[Fraction]]:
    """Inner products u^T G w for every pair of integer coefficient vectors u, w.

    The products are taken in integers on s G and divided by s once.  G is
    symmetric, so only the products with w at or after u are computed.
    """
    scale, a = integer_scaled(g)
    gu = [[sum(x * y for x, y in zip(row, u)) for row in a] for u in vectors]
    out = [[None] * len(vectors) for _ in vectors]
    for i, gu_i in enumerate(gu):
        for j in range(i, len(vectors)):
            out[i][j] = out[j][i] = Fraction(sum(x * y for x, y in zip(gu_i, vectors[j])), scale)
    return out


def rat_det(a: RatMatrix) -> Fraction:
    """Exact determinant: integer Bareiss elimination of D A (every // is exact), over D^n."""
    if a.rows != a.cols:
        raise ValueError("determinant needs a square matrix")
    n = a.rows
    scale, m = integer_scaled(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot is None:
                return Fraction(0)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return Fraction(sign * m[n - 1][n - 1], scale**n) if n else Fraction(1)


def pivot(m: list[list[Fraction]], r: int, c: int, rows: Iterable[int]) -> None:
    """Scale row r of m in place so that m[r][c] == 1, then clear column c
    from each of `rows`.

    The row update of the Fraction eliminations (`rref`, the simplex).  Work
    is confined to the columns where row r is nonzero, so nothing left of its
    first nonzero entry is touched, and rows already zero in column c are
    skipped.
    """
    prow = m[r]
    p = prow[c]
    nz = [j for j in range(len(prow)) if prow[j]]
    if p != 1:
        for j in nz:
            prow[j] /= p
    for i in rows:
        row = m[i]
        f = row[c]
        if f:
            for j in nz:
                row[j] -= f * prow[j]


def rref(m: list[list[Fraction]], ncols: int) -> list[int]:
    """Reduced row echelon form of m in place over its first ncols columns.

    Returns the pivot columns: row i then has a leading 1 in column
    pivots[i] and zeros above and below it; rows from len(pivots) on are zero
    in the first ncols columns.  Row swaps move the row lists themselves.
    """
    nr = len(m)
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nr:
            break
        p = next((i for i in range(r, nr) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pivot(m, r, c, range(r + 1, nr))
        pivots.append(c)
    for i in range(len(pivots) - 1, 0, -1):
        pivot(m, i, pivots[i], range(i))
    return pivots


def int_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination, one row at a time.

    Each row is reduced against the echelon rows kept so far, r <- p r - r_c b
    for the pivot p = b_c of each kept row b, which zeroes r at every kept
    pivot column; a nonzero remainder is independent of them and is kept,
    divided by the gcd of its entries.  Stops once the rank reaches the column
    count, so the rows after the first full-rank prefix are never read.
    """
    kept: list[tuple[int, list[int]]] = []  # (pivot column, row)
    ncols = len(rows[0]) if rows else 0
    for row in rows:
        r = list(row)
        for c, b in kept:
            f = r[c]
            if f:
                p = b[c]
                r = [p * x - f * y for x, y in zip(r, b)]
        c = next((j for j, x in enumerate(r) if x), None)
        if c is None:
            continue
        g = math.gcd(*r)
        kept.append((c, [x // g for x in r]))
        if len(kept) == ncols:
            break
    return len(kept)


def rat_rank(a: RatMatrix) -> int:
    """Rank over the rationals: `int_rank` of the integer matrix s A."""
    return int_rank(integer_scaled(a)[1])


def sylvester_step(m: list[list[int]], d: int, p: int) -> tuple[int, list[list[int]]]:
    """One fraction-free Schur step on pivot p (Sylvester's identity, as in Bareiss).

    For an integer symmetric A and an index set S, let m be the residual
    m[i][j] = det A_{S+i,S+j} over the indices outside S, and d = det A_SS
    (1 for S empty, where m is A itself).  Returns (d', m') for S + p: d' is
    m[p][p], and m' drops row and column p, with
    m'[i][j] = (m[p][p] m[i][j] - m[i][p] m[p][j]) // d, an exact division.
    """
    top = m[p]
    piv = top[p]
    out = []
    for i, row in enumerate(m):
        if i != p:
            f = row[p]
            new = [(piv * x - f * y) // d for x, y in zip(row, top)]
            del new[p]
            out.append(new)
    return piv, out


def rat_solve(a: RatMatrix, b: Sequence) -> list[Fraction] | None:
    """Solve A x = b exactly for nonsingular square A; None when A is singular."""
    if a.rows != a.cols:
        raise ValueError("rat_solve needs a square matrix")
    n = a.rows
    if len(b) != n:
        raise ValueError("right-hand side length mismatch")
    m = [list(a.row(i)) + [Fraction(b[i])] for i in range(n)]
    if len(rref(m, n)) < n:
        return None
    return [row[n] for row in m]


def rat_inv(a: RatMatrix) -> RatMatrix:
    """Exact inverse of a nonsingular square matrix."""
    if a.rows != a.cols:
        raise ValueError("inverse needs a square matrix")
    n = a.rows
    m = [list(a.row(i)) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    if len(rref(m, n)) < n:
        raise ValueError("singular matrix")
    return RatMatrix.from_rows([row[n:] for row in m])


def solve_affine(a_rows: Sequence[Sequence], b: Sequence):
    """General exact solver for A x = b with any shape.

    Returns (particular, nullspace_basis) or None when inconsistent.
    The nullspace basis vectors are indexed by the free columns in order.
    """
    nr = len(a_rows)
    nc = len(a_rows[0]) if nr else 0
    m = [[Fraction(e) for e in row] + [Fraction(b[i])] for i, row in enumerate(a_rows)]
    piv_cols = rref(m, nc)
    if any(m[i][nc] != 0 for i in range(len(piv_cols), nr)):
        return None
    particular = [Fraction(0)] * nc
    for i, c in enumerate(piv_cols):
        particular[c] = m[i][nc]
    free_cols = [c for c in range(nc) if c not in piv_cols]
    null_basis = []
    for fc in free_cols:
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for i, c in enumerate(piv_cols):
            v[c] = -m[i][fc]
        null_basis.append(v)
    return particular, null_basis


class LDLFactorization:
    """Exact G = L D L^T with L unit lower triangular and rational pivots D."""

    __slots__ = ("unit_lower", "diag")

    def __init__(self, unit_lower: RatMatrix, diag: tuple[Fraction, ...]):
        object.__setattr__(self, "unit_lower", unit_lower)
        object.__setattr__(self, "diag", tuple(Fraction(d) for d in diag))

    def __setattr__(self, name, value):
        raise AttributeError("LDLFactorization is immutable")

    def reconstruct(self) -> RatMatrix:
        n = len(self.diag)
        low = self.unit_lower
        out = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                out[i][j] = sum(low[i, k] * self.diag[k] * low[j, k] for k in range(n))
        return RatMatrix.from_rows(out)


def ldl_decompose(g: RatMatrix) -> LDLFactorization:
    """Exact LDL^T factorization of a symmetric positive-definite matrix.

    Integer Bareiss elimination of M = s G: pivot k is the leading minor P_{k+1}
    of M, D_k = P_{k+1} / (s P_k), L_ik = M_ik / P_{k+1} (M_ik is final at step k).
    Raises NotSymmetric / NotPositiveDefinite (at the first pivot <= 0).
    """
    if not g.is_symmetric():
        raise NotSymmetric("matrix is not symmetric")
    n = g.rows
    scale, m = integer_scaled(g)
    diag: list[Fraction] = []
    prev = 1
    for k in range(n):
        p = m[k][k]
        if p <= 0:
            raise NotPositiveDefinite(f"pivot {k} is {Fraction(p, prev * scale)}")
        diag.append(Fraction(p, prev * scale))
        for i in range(k + 1, n):
            for j in range(k + 1, i + 1):
                # Bareiss update: every division here is exact.
                m[i][j] = (p * m[i][j] - m[i][k] * m[j][k]) // prev
        prev = p
    low = [[Fraction(m[i][j], m[j][j]) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    return LDLFactorization(RatMatrix.from_rows(low), tuple(diag))


def rational_sqrt_exact(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None when irrational."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative input")
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None
