"""Local density modification: exact on planar and block-coupled lattices,
rationalized (with post-hoc verification) in general position.

Changing the cosine between one decoupled pair of unit basis vectors from c
to c' scales the squared packing density by exactly (1 - c^2) / (1 - c'^2),
because only that pair's 2x2 determinant factor moves.  The general path
rotates one vector inside one coordinate plane, rationalizing the new row
when the rotation's scale is irrational, and then re-verifies in exact
arithmetic: the target value and the squared density ratio law, each within
a fixed 10^-9, and strict near-orthogonality of the result.  It never
returns an unverified lattice.
Strict near-orthogonality, of the input and of each result, is the exact
all-orderings verdict `is_theta_orthogonal`, which shares the enumeration
guard of rank 12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, NotNearlyOrthogonal, NotPositiveDefinite, VerificationFailed
from .invariants import mu_nu, packing_density
from .lattice import Lattice, lattice_from_gram, lattice_to_json_dict
from .minvec import minimal_norm_sq
from .ortho import is_theta_orthogonal
from .ratlinalg import RatMatrix, format_rational, rational_sqrt_exact

MU = "mu"
NU = "nu"
TOL = Fraction(1, 10**9)  # how far perturb_general's result may miss the target and the law


@dataclass(frozen=True)
class PerturbationOutcome:
    before: Lattice
    after: Lattice
    mode: str
    value_before: Fraction
    value_after: Fraction
    density_ratio_sq: Fraction
    still_nearly_orthogonal: bool
    gram_distance: Fraction  # max |entry change|; the similarity-class proxy

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "value_before": format_rational(self.value_before),
            "value_after": format_rational(self.value_after),
            "density_ratio_sq": format_rational(self.density_ratio_sq),
            "still_nearly_orthogonal": self.still_nearly_orthogonal,
            "gram_distance": format_rational(self.gram_distance),
            "before": lattice_to_json_dict(self.before),
            "after": lattice_to_json_dict(self.after),
        }


def _require_unit_diagonal(lat: Lattice) -> None:
    if any(lat.gram[i, i] != 1 for i in range(lat.rank)):
        raise InputError("perturbation requires a unit-diagonal Gram matrix")


def _density_ratio_sq(before: Lattice, after: Lattice) -> Fraction:
    return (
        packing_density(after).delta_sq_over_omega_sq
        / packing_density(before).delta_sq_over_omega_sq
    )


def _gram_distance(a: RatMatrix, b: RatMatrix) -> Fraction:
    return max(abs(x - y) for x, y in zip(a.entries, b.entries))


def _replace_pair(
    lat: Lattice, i: int, j: int, new_cos: Fraction, name: str, what: str
) -> PerturbationOutcome:
    """Set the cosine G_ij of the unit pair (i, j) to new_cos, keeping its sign."""
    if abs(new_cos) > Fraction(1, 2):
        raise InputError("|new cosine| must be at most 1/2")
    old = lat.gram[i, j]
    entry = -new_cos if old < 0 else new_cos
    rows = lat.gram.to_rows()
    rows[i][j] = rows[j][i] = entry
    after = lattice_from_gram(name, rows, provenance=f"{what} cosine moved from {old} to {entry}")
    return PerturbationOutcome(
        before=lat,
        after=after,
        mode="cos",
        value_before=abs(old),
        value_after=abs(new_cos),
        density_ratio_sq=_density_ratio_sq(lat, after),
        still_nearly_orthogonal=is_theta_orthogonal(after).strictly,
        gram_distance=_gram_distance(lat.gram, after.gram),
    )


def perturb_2d(lat: Lattice, new_cos: Fraction) -> PerturbationOutcome:
    """Replace the off-diagonal of a rank-2 unit Gram, preserving its sign."""
    if lat.rank != 2:
        raise InputError("perturb_2d needs a rank-2 lattice")
    _require_unit_diagonal(lat)
    new_cos = Fraction(new_cos)
    return _replace_pair(lat, 0, 1, new_cos, f"{lat.name}~cos={new_cos}", "pair")


def perturb_block(lat: Lattice, block_index: int, new_cos: Fraction) -> PerturbationOutcome:
    """Replace the coupling of the 2x2 block at rows (2i, 2i+1).

    The target pair must be decoupled from the rest of the basis and the
    Gram unit-diagonal; the density ratio law is then exact by determinant
    multiplicativity.
    """
    _require_unit_diagonal(lat)
    new_cos = Fraction(new_cos)
    i = 2 * block_index
    j = i + 1
    if block_index < 0 or j >= lat.rank:
        raise InputError(f"no block {block_index} in rank {lat.rank}")
    for k in range(lat.rank):
        if k not in (i, j) and (lat.gram[i, k] != 0 or lat.gram[j, k] != 0):
            raise InputError("target block is coupled to the rest of the basis")
    if minimal_norm_sq(lat) != 1:
        raise InputError("block perturbation expects minimal norm 1")
    name = f"{lat.name}~block{block_index}={new_cos}"
    return _replace_pair(lat, i, j, new_cos, name, f"block {block_index}")


def perturb_general(lat: Lattice, mode: str, target: Fraction) -> PerturbationOutcome:
    """Move mu (the smallest pairwise |cos|) or nu (the largest) to `target`.

    Rotates the second vector of the extreme pair inside that pair's plane
    to the target angle (all other vectors stay fixed, so only one Gram row
    changes).  The new row is exact when the rotation's scale factor is a
    rational square root; otherwise it is computed with one float square
    root and rationalized.  Succeeds only if the resulting lattice
    verifies, in exact arithmetic: the extreme value is within TOL = 10^-9
    of the target, the squared density ratio is within TOL of the law
    (1 - c^2) / (1 - c'^2), and the result is still nearly orthogonal.
    """
    if mode not in (MU, NU):
        raise InputError(f"mode must be 'mu' or 'nu', got {mode!r}")
    _require_unit_diagonal(lat)
    n = lat.rank
    if n < 2:
        raise InputError("need rank >= 2")
    target = Fraction(target)
    mu_before, nu_before = mu_nu(lat)
    if mode == MU:
        if not 0 < target <= Fraction(1, 2):
            raise InputError("mu-mode target must lie in (0, 1/2]")
    else:
        nu_cos = nu_before.exact_cos
        assert nu_cos is not None  # unit diagonal
        if not 0 <= target <= nu_cos:
            raise InputError("nu-mode target must lie in [0, current nu]")
    if not is_theta_orthogonal(lat).strictly:
        raise NotNearlyOrthogonal(
            f"{lat.name!r} is not certified nearly orthogonal; refusing to perturb"
        )

    g = lat.gram
    want = (mu_before if mode == MU else nu_before).cos_sq
    pair = min(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if g[i, j] * g[i, j] == want
    )
    i, j = pair
    value_before = abs(g[i, j])
    sign = -1 if g[i, j] < 0 else 1

    # Rotating b_j inside span{b_i, b_j} to cosine s*t with the unit b_i
    # moves only row j: g'_jk = s t g_ik + sqrt((1-t^2)/(1-c^2)) (g_jk - c g_ik)
    # with c = g_ij.  The rotated row is exact when the root is rational.
    c = g[i, j]
    root_sq = (1 - target * target) / (1 - c * c)
    root = rational_sqrt_exact(root_sq)
    root_float = math.sqrt(root_sq) if root is None else None
    rows = g.to_rows()
    for k in range(n):
        if k == j:
            continue
        along = sign * target * g[i, k]
        across = g[j, k] - c * g[i, k]
        if root is not None:
            val = along + root * across
        elif across:
            val = Fraction(float(along) + root_float * float(across)).limit_denominator(10**6)
        else:
            val = along
        rows[j][k] = rows[k][j] = val
    rows[j][j] = Fraction(1)

    diagnostics: dict = {"pair": pair, "mode": mode, "target": str(target)}
    try:
        after = lattice_from_gram(
            f"{lat.name}~{mode}={target}", rows, provenance="float-mode pair rotation"
        )
    except NotPositiveDefinite as exc:
        raise VerificationFailed(f"perturbed Gram not positive definite: {exc}", diagnostics)

    mu_after, nu_after = mu_nu(after)
    achieved = (mu_after if mode == MU else nu_after).exact_cos
    diagnostics["achieved"] = str(achieved)
    if achieved is None or abs(achieved - target) > TOL:
        raise VerificationFailed(
            f"{mode} after perturbation is {achieved}, wanted {target}", diagnostics
        )
    ratio_sq = _density_ratio_sq(lat, after)
    law_sq = (1 - value_before**2) / (1 - achieved**2)
    diagnostics["density_ratio_sq"] = str(ratio_sq)
    if abs(ratio_sq - law_sq) > TOL:
        raise VerificationFailed("density ratio law violated beyond tolerance", diagnostics)
    if not is_theta_orthogonal(after).strictly:
        raise VerificationFailed("perturbed lattice left the nearly orthogonal class", diagnostics)

    return PerturbationOutcome(
        before=lat,
        after=after,
        mode=mode,
        value_before=value_before,
        value_after=achieved,
        density_ratio_sq=ratio_sq,
        still_nearly_orthogonal=True,
        gram_distance=_gram_distance(lat.gram, after.gram),
    )
