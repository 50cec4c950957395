"""Coherence, packing density, basis cosine extremes, and the dimensional
coherence threshold under which a unit basis is forced nearly orthogonal.

Minimal vectors share the same norm, so every pairwise |cos| on the minimal
set is an exact rational |u^T G w| / minnorm^2.  Packing density is kept in
two forms: an exact rational delta^2 / omega_n^2 for comparisons, and a
float for display (omega_n, the unit-ball volume, is irrational).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import FewerThanTwoPairs, LatticeError
from .lattice import Lattice
from .minvec import minimal_norm_sq, minimal_vectors
from .ratlinalg import format_rational, gram_of_vectors, rational_sqrt_exact


def _pair_cos_numerators(lat: Lattice) -> tuple[tuple[tuple[int, ...], ...], list[list[Fraction]]]:
    pairs = minimal_vectors(lat).pairs
    return pairs, gram_of_vectors(lat.gram, pairs)


@dataclass(frozen=True)
class CoherenceValue:
    value: Fraction
    attaining_pair: tuple[tuple[int, ...], tuple[int, ...]]


def coherence(lat: Lattice) -> CoherenceValue:
    """Largest |cos| over distinct non-opposite pairs of minimal vectors.

    Always lands in [0, 1/2].  Reports the lexicographically smallest
    attaining pair for determinism.
    """
    pairs, dots = _pair_cos_numerators(lat)
    if len(pairs) < 2:
        raise FewerThanTwoPairs(f"{lat.name!r} has fewer than two minimal pairs")
    norm = minimal_norm_sq(lat)
    best = Fraction(-1)
    arg = None
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            c = abs(dots[i][j]) / norm
            if c > best:
                best, arg = c, (pairs[i], pairs[j])
    return CoherenceValue(value=best, attaining_pair=arg)


def average_coherence(lat: Lattice) -> Fraction:
    """Worst row-average of |cos| over one representative per minimal pair."""
    pairs, dots = _pair_cos_numerators(lat)
    k = len(pairs)
    if k < 2:
        raise FewerThanTwoPairs(f"{lat.name!r} has fewer than two minimal pairs")
    norm = minimal_norm_sq(lat)
    worst = max(
        sum(abs(dots[i][j]) for j in range(k) if j != i) / norm for i in range(k)
    )
    return worst / (k - 1)


@dataclass(frozen=True)
class BasisCos:
    """|cos| between two basis vectors, kept as an exact squared value.

    exact_cos is the rational |cos| itself when the squared value is the
    square of a rational (always the case on unit-diagonal Grams), else None
    and the string form falls back to "sqrt(p/q)".
    """

    cos_sq: Fraction

    @property
    def exact_cos(self) -> Fraction | None:
        return rational_sqrt_exact(self.cos_sq)

    def __str__(self) -> str:
        root = self.exact_cos
        if root is not None:
            return format_rational(root)
        return f"sqrt({format_rational(self.cos_sq)})"


def mu_nu(lat: Lattice) -> tuple[BasisCos, BasisCos]:
    """Min and max |cos| over distinct stored-basis vectors.

    Comparison happens on exact squared cosines g_ij^2 / (g_ii g_jj); the
    basis vectors need not be minimal.
    """
    n = lat.rank
    if n < 2:
        raise LatticeError("mu/nu need at least two basis vectors")
    g = lat.gram
    values = [
        g[i, j] * g[i, j] / (g[i, i] * g[j, j])
        for i in range(n)
        for j in range(i + 1, n)
    ]
    return BasisCos(min(values)), BasisCos(max(values))


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n via the half-integer recurrence."""
    if n < 0:
        raise ValueError("dimension must be nonnegative")
    if n == 0:
        return 1.0
    if n == 1:
        return 2.0
    return 2.0 * math.pi / n * unit_ball_volume(n - 2)


@dataclass(frozen=True)
class DensityValue:
    delta_float: float
    delta_sq_over_omega_sq: Fraction

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta_float,
            "delta_sq_exact": format_rational(self.delta_sq_over_omega_sq),
        }


def packing_density(lat: Lattice) -> DensityValue:
    """Sphere-packing density: exact squared part and a floating value.

    delta = omega_n * minnorm^n / (2^n * sqrt(det G)), so
    delta^2 / omega_n^2 = minnorm_sq^n / (4^n det G) stays rational.
    """
    n = lat.rank
    m = minimal_norm_sq(lat)
    exact = m**n / (Fraction(4) ** n * lat.det_gram())
    return DensityValue(
        delta_float=unit_ball_volume(n) * math.sqrt(float(exact)),
        delta_sq_over_omega_sq=exact,
    )


def cn_value(n: int) -> float:
    """The coherence threshold c_n = (sqrt((n-2)^2 + 16(n-1)) - (n-2)) / (8(n-1))."""
    if n < 2:
        raise ValueError("dimension must be at least 2")
    return (math.sqrt((n - 2) ** 2 + 16 * (n - 1)) - (n - 2)) / (8 * (n - 1))


def cn_test(c: Fraction, n: int) -> bool:
    """Exact test for c <= c_n without square roots.

    c_n is the positive root of 4(n-1)t^2 + (n-2)t - 1, so for c >= 0 the
    membership c <= c_n is equivalent to 4(n-1)c^2 + (n-2)c - 1 <= 0.
    """
    if n < 2:
        raise ValueError("dimension must be at least 2")
    c = Fraction(c)
    if c < 0:
        raise ValueError("coherence bound must be nonnegative")
    return 4 * (n - 1) * c * c + (n - 2) * c - 1 <= 0
