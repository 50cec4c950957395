"""Small exact linear-programming solver over the rationals.

Two-phase dense simplex with Bland's rule (no cycling), used to decide
strict positivity of eutaxy coefficient solution sets.  Problem sizes here
are tiny, so the tableau recomputes reduced costs per iteration for clarity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .ratlinalg import pivot

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


def _pivot(tab: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    pivot(tab, row, col, (i for i in range(len(tab)) if i != row))
    basis[row] = col


def _optimize(tab, basis, cost, allowed) -> str:
    m = len(tab)
    while True:
        cb = [cost[b] for b in basis]
        entering = None
        for j in allowed:
            reduced = cost[j] - sum(cb[i] * tab[i][j] for i in range(m))
            if reduced > 0:  # Bland: first improving index
                entering = j
                break
        if entering is None:
            return OPTIMAL
        leaving = None
        best = None
        for i in range(m):
            if tab[i][entering] > 0:
                ratio = tab[i][-1] / tab[i][entering]
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leaving])
                ):
                    best, leaving = ratio, i
        if leaving is None:
            return UNBOUNDED
        _pivot(tab, basis, leaving, entering)


def simplex_max(c: Sequence, a_rows: Sequence[Sequence], b: Sequence):
    """Maximize c.x subject to A x <= b, x >= 0, exactly.

    Returns (status, optimum, x) with status one of "optimal", "unbounded",
    "infeasible"; optimum and x are None unless optimal.
    """
    m = len(a_rows)
    n = len(c)
    cvec = [Fraction(x) for x in c]
    rows = [[Fraction(e) for e in row] for row in a_rows]
    rhs = [Fraction(x) for x in b]
    neg = [i for i in range(m) if rhs[i] < 0]
    for i in neg:
        rows[i] = [-e for e in rows[i]]
        rhs[i] = -rhs[i]
    n_art = len(neg)
    width = n + m + n_art + 1
    tab: list[list[Fraction]] = []
    basis: list[int] = []
    art_cols = {}
    next_art = n + m
    for i in range(m):
        row = [Fraction(0)] * width
        row[:n] = rows[i]
        # slack keeps its original +1 sign; negated rows carry -1 and need an artificial
        row[n + i] = Fraction(-1) if i in neg else Fraction(1)
        if i in neg:
            row[next_art] = Fraction(1)
            art_cols[i] = next_art
            basis.append(next_art)
            next_art += 1
        else:
            basis.append(n + i)
        row[-1] = rhs[i]
        tab.append(row)

    if n_art:
        cost1 = [Fraction(0)] * width
        for col in art_cols.values():
            cost1[col] = Fraction(-1)
        status = _optimize(tab, basis, cost1, range(width - 1))
        assert status == OPTIMAL  # phase-1 objective is bounded above by 0
        value1 = sum(cost1[basis[i]] * tab[i][-1] for i in range(m))
        if value1 != 0:
            return INFEASIBLE, None, None
        # drive leftover artificials out of the basis
        art_set = set(art_cols.values())
        for i in range(m):
            if basis[i] in art_set:
                col = next(
                    (j for j in range(n + m) if tab[i][j] != 0),
                    None,
                )
                if col is not None:
                    _pivot(tab, basis, i, col)
        # rows still basic in an artificial are identically zero; harmless

    cost2 = [Fraction(0)] * width
    cost2[:n] = cvec
    allowed = [j for j in range(n + m)]
    status = _optimize(tab, basis, cost2, allowed)
    if status != OPTIMAL:
        return status, None, None
    x = [Fraction(0)] * n
    for i, bcol in enumerate(basis):
        if bcol < n:
            x[bcol] = tab[i][-1]
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
