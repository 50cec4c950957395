"""Small exact linear-programming solver on integer data.

One LP form, max c.x subject to A x = b and x >= 0 with A, b and c integer,
started from a canonical basis as `ratlinalg.row_reduce` returns it: rows
holding d in their own basis column and 0 in the other basis columns, so
that the rational rows are rows / d.  Eutaxy uses it to find the largest
smallest coefficient.  The tableau is integer (Edmonds' integer-preserving
pivoting): d times the rational tableau, with d the last pivot, each pivot
one `sylvester_step`, and the reduced costs, times d, one more row
set once per phase.  Ratios are compared by cross-multiplying, and Bland's
rule prevents cycling.

A negative right side makes the start infeasible; phase 1 then solves the
auxiliary problem with one artificial column of -d (Vanderbei, *Linear
Programming: Foundations and Extensions*, ch. 2), which enters on the most
negative row (the lowest on a tie) and is minimized.  The rows keep their
own d, negated as a whole when d < 0: when they come from a fraction-free
elimination of [A | b], every entry is a minor of that matrix, the
artificial column (minus the sum of the basis columns) keeps that true, and
so every later `// d` is exact (Sylvester's identity).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Sequence

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


def sylvester_step(m: list[list[int]], d: int, r: int, c: int) -> list[list[int]]:
    """One fraction-free Gauss-Jordan step on the pivot p = m[r][c] (Sylvester's
    identity, as in Bareiss, Math. Comp. 22, 1968): new rows, row r as it is
    and every other row i as (p m[i] - m[i][c] m[r]) // d, zero in column c.
    When d is the pivot of the step before (1 for the first), every entry is
    a minor of the first matrix and every division is exact."""
    top = m[r]
    p = top[c]
    return [row if i == r else [(p * x - row[c] * y) // d for x, y in zip(row, top)] for i, row in enumerate(m)]


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


def _simplex_from_basis(c: Sequence[int], rows: Sequence[Sequence[int]], basis: Sequence[int], d: int):
    """Maximize c.x subject to A x = b, x >= 0, exactly, from a canonical basis.

    rows, basis and d (nonzero, of either sign) as `row_reduce` returns them
    for [A | b], or extended by integer combinations of its columns.  Returns
    (status, optimum, x) with status one of "optimal", "unbounded",
    "infeasible"; optimum and x (Fractions) are None unless optimal.

    Precondition, not checked: the rows come from a fraction-free elimination,
    so every `// d` is exact.  Other canonical integer rows floor silently and
    give a wrong vertex: ([0, 0, 0], [[2, 0, -1, -1], [0, 2, -2, -1]], [0, 1], 2)
    returns x = (0, 0, 1), which breaks the second row, as phase 1 divides -1
    by 2.  Hence private; its one caller passes `row_reduce`'s rows.
    """
    n = len(c)
    # integer data only: operator.index raises TypeError on a Fraction
    cost = list(map(operator.index, c))
    sign = 1 if d > 0 else -1
    # column n is the artificial, -d in every row
    tab = [[sign * x for x in map(operator.index, row[:-1])] + [-sign * d, sign * operator.index(row[-1])] for row in rows]
    d *= sign
    basis = list(basis)
    low = min(range(len(tab)), key=lambda i: tab[i][-1], default=None)
    if low is not None and tab[low][-1] < 0:
        tab, d = _pivot(tab, d, basis, low, n)
        status, tab, d = _optimize(tab, d, basis, [0] * n + [-1], range(n + 1))
        assert status == OPTIMAL  # phase-1 objective is bounded above by 0
        if n in basis:
            i = basis.index(n)
            if tab[i][-1]:
                return INFEASIBLE, None, None
            # the rows are independent, so the artificial's row is nonzero on A
            tab, d = _pivot(tab, d, basis, i, next(j for j in range(n) if tab[i][j]))

    status, tab, d = _optimize(tab, d, basis, cost + [0], range(n))
    if status != OPTIMAL:
        return status, None, None
    x = [Fraction(0)] * n
    for i, bcol in enumerate(basis):
        x[bcol] = Fraction(tab[i][-1], d)
    value = sum(cj * xj for cj, xj in zip(cost, x))
    return OPTIMAL, value, x
