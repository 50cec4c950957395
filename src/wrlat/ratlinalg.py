"""Exact rational scalars and dense rational linear algebra.

Every quantity in this package that can be rational is kept rational: the
scalar type is ``fractions.Fraction``, and all eliminations are exact.
Matrices are small (desk-scale ranks, at most ~12), so dense algorithms are
the right tool.  A `RatMatrix` M keeps one form, its canonical scale s, the
lcm of its denominators, and the integer rows of s M; Fractions are made
only where its entries are read.  A `Lattice` reads s and s G off its Gram,
and every layer works on that integer form.
Every elimination runs fraction-free on integers (Bareiss, Math. Comp. 22,
1968), in three kernels.  `tail_step`, the forward step, computes only the
upper half of a symmetric residual: `diagonal_pivots` runs it down the
diagonal of a Gram (its leading minors decide positive definiteness, give
the determinant, the levels of the shortest-vector enumerator and the angle
profiles), and the all-orderings verdict and the minimal-basis search (on
the integer Gram of the minimal pairs from `gram_of_vectors`) on the tails
of sorted index sets.  `row_reduce`, lazy Gauss-Jordan, rewrites a row only
where its pivot-column entry is nonzero: the integer eutaxy system, whose
rows the LP's `simplex.sylvester_step` pivots on, and `adjugate`, the one
place where G^-1 is formed (eutaxy and `minvec.certified_box` read it).
`int_rank` stops once the rank reaches the column count; the enumerator
falls back on it when its ties' tops miss a level.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InputError


def parse_rational(s: str) -> Fraction:
    """Parse "p/q" or "p" (optional leading '-') into an exact Fraction."""
    if not isinstance(s, str):
        raise InputError(f"not a rational literal: {s!r} (write it as a string)")
    text = s.strip().replace("−", "-")
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational literal: {s!r}") from exc


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
    """Immutable dense rational matrix M, kept as its integer form: the
    canonical scale s, the lcm of M's denominators, and the integer rows
    `int_rows` of s M.  Fractions are made only where entries are read.
    The public attributes are read-only properties over private slots."""

    __slots__ = ("_rows", "_cols", "_scale", "_int_rows")
    rows = property(operator.attrgetter("_rows"))
    cols = property(operator.attrgetter("_cols"))
    scale = property(operator.attrgetter("_scale"))
    int_rows = property(operator.attrgetter("_int_rows"))

    def __init__(self, rows: int, cols: int, entries: Iterable):
        ratios = [(e if type(e) is Fraction else Fraction(e)).as_integer_ratio() for e in entries]
        if rows < 0 or cols < 0 or len(ratios) != rows * cols:
            raise ValueError(f"need {rows * cols} entries, got {len(ratios)}")
        s = math.lcm(*(q for _, q in ratios))
        self._keep(rows, cols, s, [p * (s // q) for p, q in ratios])

    def _keep(self, rows: int, cols: int, scale: int, flat: list[int]) -> None:
        """Keep flat / scale, row-major, with the common factor of scale and
        the entries divided out, so that the scale is canonical."""
        g = math.gcd(scale, *flat)
        if g > 1:
            scale, flat = scale // g, [x // g for x in flat]
        self._rows, self._cols, self._scale = rows, cols, scale
        self._int_rows = tuple(tuple(flat[i * cols : (i + 1) * cols]) for i in range(rows))

    @classmethod
    def from_scaled(cls, scale: int, int_rows: Sequence[Sequence[int]]) -> "RatMatrix":
        """The matrix int_rows / scale, for a positive integer scale."""
        nc = len(int_rows[0]) if int_rows else 0
        if scale < 1 or any(len(r) != nc for r in int_rows):
            raise ValueError("need a positive scale and rows of one length")
        m = cls.__new__(cls)
        m._keep(len(int_rows), nc, scale, [x for r in int_rows for x in r])
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RatMatrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        if any(len(r) != nc for r in rows):
            raise ValueError("ragged rows")
        return cls(nr, nc, [e for r in rows for e in r])

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(n, n, [int(i == j) for i in range(n) for j in range(n)])

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return Fraction(self._int_rows[i][j], self._scale)

    def row(self, i: int) -> tuple[Fraction, ...]:
        s = self._scale
        return tuple(Fraction(x, s) for x in self._int_rows[i])

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """All entries, row-major."""
        return tuple(e for i in range(self.rows) for e in self.row(i))

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def scaled(self, factor) -> "RatMatrix":
        f = Fraction(factor)
        return RatMatrix.from_scaled(self.scale * f.denominator, [[f.numerator * x for x in r] for r in self.int_rows])

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and (self.cols, self.scale, self.int_rows) == (
            other.cols, other.scale, other.int_rows)

    def __hash__(self) -> int:
        return hash((self.cols, self.scale, self.int_rows))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"RatMatrix({self.rows}x{self.cols}: {body})"


def block_diag(*mats: RatMatrix) -> RatMatrix:
    s = math.lcm(*(m.scale for m in mats))
    c, co, out = sum(m.cols for m in mats), 0, []
    for m in mats:
        f = s // m.scale
        out += [[0] * co + [f * x for x in row] + [0] * (c - co - m.cols) for row in m.int_rows]
        co += m.cols
    return RatMatrix.from_scaled(s, out)


def gram_of_vectors(a: Sequence[Sequence[int]], vectors: Sequence[Sequence[int]]) -> list[list[int]]:
    """The integer Gram U^T A U of integer coefficient vectors u_i, the columns of U.

    A is a symmetric integer Gram, such as a lattice's `int_gram` s G, so
    only the k(k+1)/2 products u_i^T A u_j with j >= i are computed.
    """
    gu = [[sum(map(operator.mul, row, u)) for row in a] for u in vectors]
    out = [[0] * len(vectors) for _ in vectors]
    for i, gu_i in enumerate(gu):
        for j in range(i, len(vectors)):
            out[i][j] = out[j][i] = sum(map(operator.mul, gu_i, vectors[j]))
    return out


def tail_step(m: list[list[int]], d: int, k: int) -> list[list[int]]:
    """The forward step on the diagonal entry k of a symmetric tail kept as upper rows.

    For a symmetric integer A and an index set P, the *tail* of P is its
    residual over the indices t_0 < t_1 < ... above max P, with d = det A_PP
    (1 and A for P empty), kept as upper rows: m[i][j] = det A_{P+t_i,P+t_{i+j}}.
    The step on p = m[k][0] gives the tail of P + t_k: with top = m[k], each
    row i > k, whose entry in column k is f = top[i - k], becomes
    (p row - f top[i - k:]) // d, exactly (Sylvester's identity).
    """
    top = m[k]
    p = top[0]
    return [
        [(p * x - f * y) // d for x, y in zip(row, top[j:])] if (f := top[j]) else [p * x // d for x in row]
        for j, row in enumerate(m[k + 1 :], 1)
    ]


def diagonal_pivots(a: Sequence[Sequence[int]]) -> tuple[list[int], list[Sequence[int]]]:
    """`tail_step` down the diagonal of a symmetric integer matrix A, in order,
    from the upper rows of A.

    Returns the leading principal minors P_0 = 1, P_1, ... of A and, for each
    step k, the top row of the residual before it, which is also its first
    column: entry j - k is the minor M_jk = det A_{[0, k) + j, [0, k]}, and
    entry 0 is P_{k+1}.  Stops after the first pivot <= 0, so A is positive
    definite iff the last pivot returned is > 0 (Sylvester's criterion).
    """
    m = [row[i:] for i, row in enumerate(a)]
    pivots, cols = [1], []
    while m:
        top = m[0]
        pivots.append(top[0])
        cols.append(top)
        if top[0] <= 0:
            break
        m = tail_step(m, pivots[-2], 0)
    return pivots, cols


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


def row_reduce(a_rows: Sequence[Sequence[int]], b: Sequence[int]) -> tuple[list[list[int]], list[int], int] | None:
    """The reduced row echelon form of the integer system [A | b] by fraction-free
    Gauss-Jordan elimination.

    Returns (rows, pivot columns, d), or None when A x = b is inconsistent:
    one integer row per pivot, holding d in column pivots[i] and zeros in
    the other pivot columns, so that the reduced form is rows / d.  d may be
    negative.  The zero rows are dropped.  A rational system is passed as the
    integer rows of its `RatMatrix`.

    Lazy Bareiss: the result is that of the eager form, which rewrites every
    row at every step, but a row is rewritten only where its entry f in the
    pivot column is nonzero, to (p row - f top) // level[i], with level[i] the
    pivot that last wrote it and the pivot row top brought to the current d.
    Each result is an eager row, so every division is exact."""
    nr = len(a_rows)
    nc = len(a_rows[0]) if nr else 0
    if len(b) != nr:
        raise ValueError("right-hand side length mismatch")
    # integer data only: operator.index raises TypeError on a Fraction
    m = [[*map(operator.index, row), operator.index(b_i)] for row, b_i in zip(a_rows, b)]
    level = [1] * nr
    pivots: list[int] = []
    d = 1
    for c in range(nc):
        r = len(pivots)
        s = next((i for i in range(r, nr) if m[i][c]), None)
        if s is None:
            continue
        m[r], m[s], level[r], level[s] = m[s], m[r], level[s], level[r]
        top = m[r] if level[r] == d else [x * d // level[r] for x in m[r]]
        p = top[c]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                m[i] = [(p * x - f * y) // level[i] for x, y in zip(row, top)]
                level[i] = p
        m[r], level[r], d = top, p, p
        pivots.append(c)
    if any(m[i][nc] for i in range(len(pivots), nr)):
        return None
    return [row if lv == d else [x * d // lv for x in row] for row, lv in zip(m[: len(pivots)], level)], pivots, d


def adjugate(a: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """(det A, adj A) of a positive-definite integer A by `row_reduce` on [A | I]:
    its leading minors are positive, so it pivots down the diagonal with no
    row swap and ends on [det A I | adj A], d times [I | A^-1]."""
    n = len(a)
    rows, _, d = row_reduce([[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(a)], [0] * n)
    return d, [row[n:-1] for row in rows]


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
