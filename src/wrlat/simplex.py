"""Small exact linear-programming solver over the rationals.

Two-phase dense simplex with Bland's rule (no cycling), used to decide
strict positivity of eutaxy coefficient solution sets.  The tableau is
integer (Edmonds' integer-preserving pivoting): the LP is scaled to integers
by one positive factor, the tableau holds d times the rational one, with d
the last pivot, and every pivot is one `ratlinalg.sylvester_step`.  The
reduced costs, times d, are one more tableau row, set once per phase and
updated by the same step.  Ratios are compared by cross-multiplying.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .ratlinalg import sylvester_step

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


def _pivot(tab: list[list[int]], d: int, basis: list[int], row: int, col: int):
    """Pivot on tab[row][col]; returns (tab, d) with d > 0, negating every row after a negative pivot."""
    tab = sylvester_step(tab, d, row, col)
    basis[row] = col
    d = tab[row][col]
    if d < 0:
        tab, d = [[-x for x in r] for r in tab], -d
    return tab, d


def _optimize(tab: list[list[int]], d: int, basis: list[int], cost: list[int], allowed):
    """Bland's rule from the basis, with the reduced costs d (cost - c_B B^-1 [A | b])
    kept as one more row; returns (status, the constraint rows, d)."""
    z = [d * c for c in cost] + [0]
    for i, b in enumerate(basis):
        if cost[b]:
            z = [x - cost[b] * y for x, y in zip(z, tab[i])]
    tab = tab + [z]
    m = len(basis)
    while True:
        entering = next((j for j in allowed if tab[m][j] > 0), None)  # Bland: first improving index
        if entering is None:
            return OPTIMAL, tab[:m], d
        leaving = None
        for i in range(m):
            a = tab[i][entering]
            if a > 0:
                if leaving is None:
                    leaving = i
                    continue
                lhs, rhs = tab[i][-1] * tab[leaving][entering], tab[leaving][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving = i
        if leaving is None:
            return UNBOUNDED, tab[:m], d
        tab, d = _pivot(tab, d, basis, leaving, entering)


def simplex_max(c: Sequence, a_rows: Sequence[Sequence], b: Sequence):
    """Maximize c.x subject to A x <= b, x >= 0, exactly.

    Returns (status, optimum, x) with status one of "optimal", "unbounded",
    "infeasible"; optimum and x are None unless optimal.
    """
    m = len(a_rows)
    n = len(c)
    cvec = [Fraction(x) for x in c]
    rows = [[Fraction(e) for e in row] + [Fraction(b[i])] for i, row in enumerate(a_rows)]
    # one positive factor for the whole LP: scaling rows apart would reweight
    # the phase-1 artificials and lead Bland's rule to another vertex
    scale = math.lcm(*(x.denominator for x in cvec), *(e.denominator for row in rows for e in row))
    neg = [i for i in range(m) if rows[i][-1] < 0]
    width = n + m + len(neg) + 1
    basis = [n + m + neg.index(i) if i in neg else n + i for i in range(m)]
    tab = []
    for i, row in enumerate(rows):
        sign = -1 if i in neg else 1
        t = [int(sign * scale * e) for e in row[:n]] + [0] * (width - n)
        t[-1] = int(sign * scale * row[-1])
        # slack keeps its original +1 sign; negated rows carry -1 and need an artificial
        t[n + i] = sign
        t[basis[i]] = 1
        tab.append(t)
    d = 1

    if neg:
        cost1 = [0] * (n + m) + [-1] * len(neg)
        status, tab, d = _optimize(tab, d, basis, cost1, range(width - 1))
        assert status == OPTIMAL  # phase-1 objective is bounded above by 0
        if any(tab[i][-1] for i in range(m) if basis[i] >= n + m):
            return INFEASIBLE, None, None
        # drive leftover artificials out of the basis
        for i in range(m):
            if basis[i] >= n + m:
                col = next((j for j in range(n + m) if tab[i][j] != 0), None)
                if col is not None:
                    tab, d = _pivot(tab, d, basis, i, col)
        # rows still basic in an artificial are identically zero; harmless

    cost2 = [int(scale * x) for x in cvec] + [0] * (width - 1 - n)
    status, tab, d = _optimize(tab, d, basis, cost2, range(n + m))
    if status != OPTIMAL:
        return status, None, None
    x = [Fraction(0)] * n
    for i, bcol in enumerate(basis):
        if bcol < n:
            x[bcol] = Fraction(tab[i][-1], d)
    value = sum(cvec[j] * x[j] for j in range(n))
    return OPTIMAL, value, x


def simplex_max_free(c: Sequence, a_rows: Sequence[Sequence], b: Sequence):
    """Maximize c.x subject to A x <= b with x unrestricted in sign."""
    n = len(c)
    c2 = [Fraction(x) for x in c] + [-Fraction(x) for x in c]
    rows2 = [list(row) + [-Fraction(e) for e in row] for row in a_rows]
    status, value, xs = simplex_max(c2, rows2, b)
    if status != OPTIMAL:
        return status, None, None
    x = [xs[j] - xs[n + j] for j in range(n)]
    return OPTIMAL, value, x
