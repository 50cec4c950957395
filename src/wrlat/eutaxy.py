"""Eutaxy classification and perfection, plus the aggregate lattice report.

Eutaxy is solved in Gram coordinates: with one representative u_i per
minimal pair, the defining identity ||v||^2 = sum_i c_i (v, x_i)^2 for all v
is equivalent to sum_i c_i u_i u_i^T = G^{-1}.  With A = s G integer (s the
lcm of G's denominators), G^{-1} = s adj(A) / det A, from `adjugate`, so
c' = det(A) c solves the integer system sum_i c'_i u_i u_i^T = s adj(A),
whose coefficient rows are the rank-one forms that `is_perfect` ranks (one
copy of each distinct row is kept; a repeat with another right side makes
the system inconsistent).

The reduced rows split by the components of the pair graph (u_i, u_j linked
when u_i^T A u_j != 0; they span orthogonal subspaces).  The trace pins each
component's coefficient sum, so its smallest coefficient is at most its mean,
reached only where all its coefficients are equal; a component with a free
column has a level, that mean, when c' (1, ..., 1) solves its own rows.  When
each such component has one, the forced point puts it at its level and every
other coefficient at its one value: it reaches the LP's optimum, and it is
read off the components, not the basis.  One rule:

  no real solution                          -> NotWeaklyEutactic
  every component with a free column has a level, at the forced point c:
    min c <= 0                              -> WeaklyEutactic
    all entries of c equal                  -> StronglyEutactic
    otherwise                               -> Eutactic
  otherwise the LP: optimum t > 0           -> Eutactic, else WeaklyEutactic

The LP maximizes t over c = x + t (1, ..., 1) with x, t >= 0, subject to the
reduced rows of the system (one per pivot of its elimination); the lattice
is Eutactic iff the optimum t is positive, and then t is the largest
possible smallest coefficient, reported at the vertex the LP ends on.  The
elimination and the LP run on integers only, and Fractions are built only
for the coefficients reported, each divided by det A.  The LP starts from
the basis the elimination found: the rows of `row_reduce` with their own d
and no common factor divided out, and their row sums as the column of t, so
every pivot divides exactly (`simplex`).

Perfection asks whether the rank-one forms u_i u_i^T span the whole space of
symmetric matrices.  Conjugation by the basis matrix preserves that rank, so
the Gram-coordinate test is equivalent to the ambient one, and the report
reads perfection from the eutaxy system's rank.  `is_perfect` keeps its own
early-stopping rank count, an independent check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import LatticeError, NotWellRounded
from .invariants import (
    _pair_pass,
    average_coherence,
    coherence,
    mu_nu,
    packing_density,
)
from .lattice import Lattice
from .minvec import is_well_rounded, minimal_vectors
from .ortho import PI_THIRD_COS_SQ, membership_report
from .ratlinalg import adjugate, format_rational, int_rank, row_reduce
from .simplex import OPTIMAL, UNBOUNDED, _simplex_from_basis


class EutaxyClass(enum.Enum):
    NOT_WEAKLY_EUTACTIC = "NotWeaklyEutactic"
    WEAKLY_EUTACTIC = "WeaklyEutactic"
    EUTACTIC = "Eutactic"
    STRONGLY_EUTACTIC = "StronglyEutactic"


@dataclass(frozen=True)
class EutaxyResult:
    klass: EutaxyClass
    coefficients: tuple[Fraction, ...] | None
    solution_space_dim: int  # -1 when the system is inconsistent


def _rank_one_rows(pairs, n):
    return [[u[a] * u[b] for a in range(n) for b in range(a, n)] for u in pairs]


def _common_value(rows_sums):
    """c' when c' (1, ..., 1) solves the reduced rows, given with their row
    sums: row[-1] == c' * s for every (row, s), as d cancels; else None."""
    common = next((Fraction(row[-1], s) for row, s in rows_sums if s), None)
    return common if common is not None and all(row[-1] == common * s for row, s in rows_sums) else None


def eutaxy_classify(lat: Lattice) -> EutaxyResult:
    """Classify eutaxy of a well-rounded lattice, with exact certificates."""
    if not is_well_rounded(lat):
        raise NotWellRounded(f"{lat.name!r} is not well-rounded")
    n = lat.rank
    pairs = minimal_vectors(lat).pairs
    k = len(pairs)
    det, adj = adjugate(lat.int_gram)

    # one equation per distinct row of sum_i c'_i u_i u_i^T = s adj(A), from
    # the entries (p, q), p <= q: a repeated row needs the same right side and
    # the zero row a zero one, or the system is inconsistent
    system = {}
    rhs = (lat.scale * adj[p][q] for p in range(n) for q in range(p, n))
    consistent = all(system.setdefault(row, b) == b for row, b in zip(zip(*_rank_one_rows(pairs, n)), rhs))
    reduced = row_reduce(list(system), list(system.values())) if consistent and not system.pop((0,) * k, 0) else None
    if reduced is None:
        return EutaxyResult(EutaxyClass.NOT_WEAKLY_EUTACTIC, None, -1)
    rows, pivots, d = reduced
    dim = k - len(pivots)
    # reduced row i, rows[i] / d, reads: c'_{pivots[i]} plus its
    # free-coefficient terms = rows[i][-1] / d
    sums = [sum(row[:-1]) for row in rows]
    particular = [Fraction(0)] * k
    for c, row in zip(pivots, rows):
        particular[c] = Fraction(row[-1], d * det)

    # each reduced row lies in its pivot's component, and each component has
    # a row with a nonzero sum (the trace pins its mean); a component with no
    # free column is fixed at particular and needs no level
    labels = _pair_pass(lat.int_gram, pairs)[-1]
    free = {labels[c] for c in set(range(k)).difference(pivots)}
    levels = {x: _common_value([(r, s) for r, s, c in zip(rows, sums, pivots) if labels[c] == x]) for x in free}
    if None not in levels.values():
        # the forced point, whose smallest coefficient is the LP's optimum
        forced = tuple(levels[labels[c]] / det if labels[c] in free else x for c, x in enumerate(particular))
        klass = EutaxyClass.STRONGLY_EUTACTIC if len(set(forced)) == 1 else EutaxyClass.EUTACTIC
        if min(forced) <= 0:
            klass = EutaxyClass.WEAKLY_EUTACTIC
        return EutaxyResult(klass, forced, dim)

    # maximize the smallest coefficient t: c = x + t (1, ..., 1) with x, t >= 0
    # on the reduced rows, whose row sums are the column of t, from the basis
    # of their pivot columns
    lp_rows = [row[:-1] + [s, row[-1]] for row, s in zip(rows, sums)]
    status, value, point = _simplex_from_basis([0] * k + [1], lp_rows, pivots, d)
    if status == OPTIMAL and value > 0:
        return EutaxyResult(EutaxyClass.EUTACTIC, tuple((x + value) / det for x in point[:k]), dim)
    if status == UNBOUNDED:
        # cannot happen (the trace identity pins the coefficient sum): a bug, not a guard trip
        raise RuntimeError(f"positivity LP ended with status {status!r}")
    return EutaxyResult(EutaxyClass.WEAKLY_EUTACTIC, tuple(particular), dim)


def is_perfect(lat: Lattice) -> bool:
    """True iff the rank-one forms of the minimal vectors span Sym_n."""
    if not is_well_rounded(lat):
        raise NotWellRounded(f"{lat.name!r} is not well-rounded")
    n = lat.rank
    pairs = minimal_vectors(lat).pairs
    target = n * (n + 1) // 2
    if len(pairs) < target:
        return False
    return int_rank(_rank_one_rows(pairs, n)) == target


@dataclass(frozen=True)
class ClassificationReport:
    """Everything this package can say about one lattice, guard trips flagged."""

    fields: dict
    warnings: tuple[str, ...]

    def to_json_dict(self) -> dict:
        d = dict(self.fields)
        d["warnings"] = list(self.warnings)
        return d


def classification_report(
    lat: Lattice,
    search_minimal_bases: bool = True,
    cos_sq_threshold: Fraction = PI_THIRD_COS_SQ,
) -> ClassificationReport:
    """Bundle all invariants; individual guard trips null the field and warn."""
    warnings: list[str] = []

    def attempt(label, fn, ready=True):
        if not ready:
            return None
        try:
            return fn()
        except LatticeError as exc:
            warnings.append(f"{label}: {exc}")
            return None

    mvs = attempt("minimal_vectors", lambda: minimal_vectors(lat))
    found = mvs is not None
    wr = attempt("well_rounded", lambda: is_well_rounded(lat), found)
    coh = attempt("coherence", lambda: format_rational(coherence(lat).value), found)
    avg = attempt("avg_coherence", lambda: format_rational(average_coherence(lat)), found)
    mu, nu = attempt("mu_nu", lambda: [str(v) for v in mu_nu(lat)]) or (None, None)
    dens = attempt("packing_density", lambda: packing_density(lat), found)
    member = attempt("membership", lambda: membership_report(lat, search_minimal_bases, cos_sq_threshold), wr)
    if wr is False:
        warnings.append("membership: lattice is not well-rounded")
    eut = attempt("eutaxy", lambda: eutaxy_classify(lat), wr)
    n = lat.rank
    fields = {
        "name": lat.name,
        "rank": n,
        "provenance": lat.provenance,
        "det_gram": format_rational(lat.det_gram()),
        "norm_sq": format_rational(mvs.norm_sq) if found else None,
        "kissing_number": mvs.count if found else None,
        "minimal_pairs": [list(u) for u in mvs.pairs] if found else None,
        "well_rounded": wr,
        "coherence": coh,
        "avg_coherence": avg,
        "mu": mu,
        "nu": nu,
        "delta": dens.delta_float if dens else None,
        "delta_sq_exact": format_rational(dens.delta_sq_over_omega_sq) if dens else None,
        "basis_verdict": member.stored_basis.to_json_dict() if member else None,
        "in_weak": member.in_weak if member else None,
        "in_strict": member.in_strict if member else None,
        "membership_reasons": list(member.reasons) if member else [],
        "eutaxy_class": eut.klass.value if eut else None,
        "eutaxy_coefficients": [format_rational(c) for c in eut.coefficients]
        if eut and eut.coefficients is not None
        else None,
        "eutaxy_solution_dim": eut.solution_space_dim if eut else None,
        # perfect iff the system's rank, k minus the solution dimension, is
        # n(n+1)/2; a perfect lattice's system is consistent, so -1 means not
        "perfect": 0 <= eut.solution_space_dim == len(mvs.pairs) - n * (n + 1) // 2
        if eut
        else None,
    }
    return ClassificationReport(fields=fields, warnings=tuple(warnings))
