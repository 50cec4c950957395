"""Small exact linear-programming solver over the rationals.

One LP form, max c.x subject to A x = b and x >= 0, solved by a two-phase
dense simplex with one artificial variable per row and Bland's rule (no
cycling); eutaxy uses it to find the largest smallest coefficient.  The
tableau is integer (Edmonds' integer-preserving pivoting): the LP is scaled
to integers by one positive factor, the tableau holds d times the rational
one, with d the last pivot, and every pivot is one
`ratlinalg.sylvester_step`.  The reduced costs, times d, are one more
tableau row, set once per phase and updated by the same step.  Ratios are
compared by cross-multiplying.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .ratlinalg import RatMatrix, integer_scaled, sylvester_step

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
    """Maximize c.x subject to A x = b, x >= 0, exactly.

    Returns (status, optimum, x) with status one of "optimal", "unbounded",
    "infeasible"; optimum and x are None unless optimal.
    """
    m = len(a_rows)
    n = len(c)
    # one positive factor for the whole LP: scaling rows apart would reweight
    # the phase-1 artificials and lead Bland's rule to another vertex
    _, rows = integer_scaled(RatMatrix.from_rows([[*row, b[i]] for i, row in enumerate(a_rows)] + [[*c, 0]]))
    cost = rows.pop()[:n]
    # a row with b_i < 0 is negated, so that its artificial n + i starts basic at b_i >= 0
    basis = list(range(n, n + m))
    tab = []
    for i, row in enumerate(rows):
        sign = -1 if row[-1] < 0 else 1
        tab.append([sign * x for x in row[:n]] + [int(i == j) for j in range(m)] + [sign * row[-1]])
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
    value = sum(Fraction(cj) * xj for cj, xj in zip(c, x))
    return OPTIMAL, value, x
