"""Small exact linear-programming solver on integer data.

One LP form, max c.x subject to A x = b and x >= 0 with A, b and c integer,
solved by a two-phase dense simplex with one artificial variable per row and
Bland's rule (no cycling); eutaxy uses it to find the largest smallest
coefficient.  The tableau is integer (Edmonds' integer-preserving pivoting):
it starts from the rows as given, holds d times the rational tableau, with d
the last pivot, and every pivot is one `ratlinalg.sylvester_step`.  The
reduced costs, times d, are one more tableau row, set once per phase and
updated by the same step.  Ratios are compared by cross-multiplying.

A rational LP is scaled to integers by the caller: [A | b] by one positive
factor, since scaling rows apart reweights the phase-1 artificials and
leads Bland's rule to another vertex, and c by any positive factor, since
the pivots read only the signs of the reduced costs; the optimum is then
that factor times the rational one.
"""

from __future__ import annotations

import operator
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


def simplex_max(c: Sequence[int], a_rows: Sequence[Sequence[int]], b: Sequence[int]):
    """Maximize c.x subject to A x = b, x >= 0, exactly, on integer data.

    Returns (status, optimum, x) with status one of "optimal", "unbounded",
    "infeasible"; optimum and x (Fractions) are None unless optimal.
    """
    m = len(a_rows)
    n = len(c)
    # integer data only: operator.index raises TypeError on a Fraction
    cost = list(map(operator.index, c))
    # a row with b_i < 0 is negated, so that its artificial n + i starts basic at b_i >= 0
    basis = list(range(n, n + m))
    tab = []
    for i, (row, b_i) in enumerate(zip(a_rows, map(operator.index, b))):
        sign = -1 if b_i < 0 else 1
        tab.append([sign * x for x in map(operator.index, row)] + [int(i == j) for j in range(m)] + [sign * b_i])
    d = 1

    status, tab, d = _optimize(tab, d, basis, [0] * n + [-1] * m, range(n + m))
    assert status == OPTIMAL  # phase-1 objective is bounded above by 0
    if any(tab[i][-1] for i in range(m) if basis[i] >= n):
        return INFEASIBLE, None, None
    # drive leftover artificials out of the basis
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is not None:
                tab, d = _pivot(tab, d, basis, i, col)
    # rows still basic in an artificial are identically zero; harmless

    status, tab, d = _optimize(tab, d, basis, cost + [0] * m, range(n))
    if status != OPTIMAL:
        return status, None, None
    x = [Fraction(0)] * n
    for i, bcol in enumerate(basis):
        if bcol < n:
            x[bcol] = Fraction(tab[i][-1], d)
    value = sum(cj * xj for cj, xj in zip(cost, x))
    return OPTIMAL, value, x
