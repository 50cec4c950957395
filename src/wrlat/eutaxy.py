"""Eutaxy classification and perfection, plus the aggregate lattice report.

Eutaxy is solved in Gram coordinates: with one representative u_i per
minimal pair, the defining identity ||v||^2 = sum_i c_i (v, x_i)^2 for all v
is equivalent to sum_i c_i u_i u_i^T = G^{-1}.  The classification ladder:

  no real solution            -> NotWeaklyEutactic
  a real solution exists      -> WeaklyEutactic
  a strictly positive one     -> Eutactic       (decided by an exact LP)
  the all-equal one works     -> StronglyEutactic (checked directly)

Perfection asks whether the rank-one forms u_i u_i^T span the whole space of
symmetric matrices; conjugation by the basis matrix preserves that rank, so
the Gram-coordinate test is equivalent to the ambient one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .errors import LatticeError, NotWellRounded
from .invariants import (
    average_coherence,
    coherence,
    mu_nu,
    packing_density,
)
from .lattice import Lattice
from .minvec import DEFAULT_MAX_DIM, is_well_rounded, minimal_vectors
from .ortho import PI_THIRD_COS_SQ, membership_report
from .ratlinalg import format_rational, int_rank, rat_inv, solve_affine
from .simplex import OPTIMAL, simplex_max_free


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

    def to_json_dict(self) -> dict:
        return {
            "class": self.klass.value,
            "coefficients": [format_rational(c) for c in self.coefficients]
            if self.coefficients is not None
            else None,
            "solution_space_dim": self.solution_space_dim,
        }


def _rank_one_rows(pairs, n):
    return [[u[a] * u[b] for a in range(n) for b in range(a, n)] for u in pairs]


def eutaxy_classify(lat: Lattice, max_dim: int = DEFAULT_MAX_DIM) -> EutaxyResult:
    """Classify eutaxy of a well-rounded lattice, with exact certificates."""
    if not is_well_rounded(lat, max_dim):
        raise NotWellRounded(f"{lat.name!r} is not well-rounded")
    n = lat.rank
    pairs = minimal_vectors(lat, max_dim).pairs
    ginv = rat_inv(lat.gram)

    # one equation per entry (a, b), a <= b: the transpose of the rank-one rows
    system_rows = list(zip(*_rank_one_rows(pairs, n)))
    rhs = [ginv[a, b] for a in range(n) for b in range(a, n)]
    solution = solve_affine(system_rows, rhs)
    if solution is None:
        return EutaxyResult(EutaxyClass.NOT_WEAKLY_EUTACTIC, None, -1)
    particular, null_basis = solution
    dim = len(null_basis)

    # direct all-equal test, independent of the LP below: c (1, ..., 1)
    # solves the system iff rhs_i == c * (sum of row i) for every i
    sums = [sum(row) for row in system_rows]
    common = next((r / s for r, s in zip(rhs, sums) if s), None)
    if common is not None and common > 0 and all(r == common * s for r, s in zip(rhs, sums)):
        return EutaxyResult(
            EutaxyClass.STRONGLY_EUTACTIC, (common,) * len(pairs), dim
        )

    if dim == 0:
        coeffs = tuple(particular)
        if all(c > 0 for c in coeffs):
            return EutaxyResult(EutaxyClass.EUTACTIC, coeffs, 0)
        return EutaxyResult(EutaxyClass.WEAKLY_EUTACTIC, coeffs, 0)

    # maximize the smallest coefficient over the affine solution set:
    # variables (y_1..y_dim, t), constraints t - (N y)_i <= particular_i
    k = len(pairs)
    a_rows = [
        [-null_basis[j][i] for j in range(dim)] + [Fraction(1)] for i in range(k)
    ]
    objective = [Fraction(0)] * dim + [Fraction(1)]
    status, value, point = simplex_max_free(objective, a_rows, particular)
    if status != OPTIMAL:
        # the coefficient sum is pinned by the trace identity, so the LP
        # cannot be unbounded; treat anything else as a hard error
        raise LatticeError(f"positivity LP ended with status {status!r}")
    if value > 0:
        y = point[:dim]
        coeffs = tuple(
            particular[i] + sum(null_basis[j][i] * y[j] for j in range(dim))
            for i in range(k)
        )
        return EutaxyResult(EutaxyClass.EUTACTIC, coeffs, dim)
    return EutaxyResult(EutaxyClass.WEAKLY_EUTACTIC, tuple(particular), dim)


def is_perfect(lat: Lattice, max_dim: int = DEFAULT_MAX_DIM) -> bool:
    """True iff the rank-one forms of the minimal vectors span Sym_n."""
    if not is_well_rounded(lat, max_dim):
        raise NotWellRounded(f"{lat.name!r} is not well-rounded")
    n = lat.rank
    pairs = minimal_vectors(lat, max_dim).pairs
    target = n * (n + 1) // 2
    if len(pairs) < target:
        return False
    return int_rank(_rank_one_rows(pairs, n)) == target


@dataclass(frozen=True)
class ClassificationReport:
    """Everything this package can say about one lattice, guard trips flagged."""

    lattice: Lattice
    fields: dict
    warnings: tuple[str, ...]

    def to_json_dict(self) -> dict:
        d = dict(self.fields)
        d["warnings"] = list(self.warnings)
        return d


def classification_report(
    lat: Lattice,
    search_minimal_bases: bool = True,
    max_dim: int = DEFAULT_MAX_DIM,
    cos_sq_threshold: Fraction = PI_THIRD_COS_SQ,
) -> ClassificationReport:
    """Bundle all invariants; individual guard trips null the field and warn."""
    warnings: list[str] = []
    fields: dict = {
        "name": lat.name,
        "rank": lat.rank,
        "provenance": lat.provenance,
        "det_gram": format_rational(lat.det_gram()),
    }

    def attempt(label, fn):
        try:
            return fn()
        except LatticeError as exc:
            warnings.append(f"{label}: {exc}")
            return None

    mvs = attempt("minimal_vectors", lambda: minimal_vectors(lat, max_dim=max_dim))
    if mvs is not None:
        fields["norm_sq"] = format_rational(mvs.norm_sq)
        fields["kissing_number"] = mvs.count
        fields["minimal_pairs"] = [list(u) for u in mvs.pairs]
    else:
        fields.update({"norm_sq": None, "kissing_number": None, "minimal_pairs": None})

    wr = attempt("well_rounded", lambda: is_well_rounded(lat, max_dim)) if mvs is not None else None
    fields["well_rounded"] = wr

    coh = attempt("coherence", lambda: coherence(lat, max_dim)) if mvs is not None else None
    fields["coherence"] = format_rational(coh.value) if coh is not None else None
    avg = attempt("avg_coherence", lambda: average_coherence(lat, max_dim)) if mvs is not None else None
    fields["avg_coherence"] = format_rational(avg) if avg is not None else None

    mn = attempt("mu_nu", lambda: mu_nu(lat))
    fields["mu"] = str(mn[0]) if mn is not None else None
    fields["nu"] = str(mn[1]) if mn is not None else None

    dens = attempt("packing_density", lambda: packing_density(lat, max_dim)) if mvs is not None else None
    if dens is not None:
        fields.update(dens.to_json_dict())
    else:
        fields.update({"delta": None, "delta_sq_exact": None})

    member = None
    if wr:
        member = attempt(
            "membership",
            lambda: membership_report(
                lat,
                search_minimal_bases=search_minimal_bases,
                cos_sq_threshold=cos_sq_threshold,
                max_dim=max_dim,
            ),
        )
    if member is not None:
        fields["basis_verdict"] = member.stored_basis.to_json_dict()
        fields["in_weak"] = member.in_weak
        fields["in_strict"] = member.in_strict
        fields["membership_reasons"] = list(member.reasons)
    else:
        fields.update(
            {"basis_verdict": None, "in_weak": None, "in_strict": None, "membership_reasons": []}
        )
        if wr is False:
            warnings.append("membership: lattice is not well-rounded")

    eut = attempt("eutaxy", lambda: eutaxy_classify(lat, max_dim)) if wr else None
    if eut is not None:
        fields["eutaxy_class"] = eut.klass.value
        fields["eutaxy_coefficients"] = (
            [format_rational(c) for c in eut.coefficients]
            if eut.coefficients is not None
            else None
        )
        fields["eutaxy_solution_dim"] = eut.solution_space_dim
    else:
        fields.update(
            {"eutaxy_class": None, "eutaxy_coefficients": None, "eutaxy_solution_dim": None}
        )

    perf = attempt("perfect", lambda: is_perfect(lat, max_dim)) if wr else None
    fields["perfect"] = perf

    return ClassificationReport(lattice=lat, fields=fields, warnings=tuple(warnings))
