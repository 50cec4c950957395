"""Coherence, packing density, basis cosine extremes, and the dimensional
coherence threshold under which a unit basis is forced nearly orthogonal.

Minimal vectors share the same norm, so every pairwise |cos| on the minimal
set is an exact rational |u^T G w| / minnorm^2.  Both coherences read one
pass over the integer Gram of the minimal pairs, u_i^T (s G) u_j with s the
lcm of G's denominators (`ratlinalg.gram_of_vectors` on `Lattice.int_gram`);
the pass is cached on s G and the pairs, as coherence does not depend on
scale, and keeps only its maximum, the pair attaining it, the worst row sum
and the components of the graph linking pairs that are not orthogonal
(eutaxy reads them), not the matrix.  Packing density is kept in two forms:
an exact rational delta^2 / omega_n^2 for comparisons, and a float for
display (omega_n, the unit-ball volume, is irrational).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import NamedTuple

from .errors import FewerThanTwoPairs, LatticeError
from .lattice import Lattice
from .minvec import minimal_norm_sq, minimal_vectors
from .ratlinalg import format_rational, gram_of_vectors, rational_sqrt_exact


@lru_cache(maxsize=4096)
def _pair_pass(
    a: tuple[tuple[int, ...], ...], pairs: tuple[tuple[int, ...], ...]
) -> tuple[int, int, int, int, int, tuple[int, ...]]:
    """(norm, top, i, j, worst, labels) over the integer products
    d_ij = u_i^T A u_j of `gram_of_vectors` on the integer Gram A = s G.

    norm is d_ii (the same for every minimal pair), top = |d_ij| is the
    largest off the diagonal with (i, j) its lexicographically first pair
    (0 at (0, 0) for a single pair), and worst the largest row sum of |d_ij|
    over j != i.  labels[i] is the first pair of i's component in the graph
    linking i, j when d_ij != 0.
    """
    d = gram_of_vectors(a, pairs)
    off_diagonal = ((abs(d[i][j]), i, j) for i, j in combinations(range(len(d)), 2))
    top, i, j = max(off_diagonal, key=itemgetter(0), default=(0, 0, 0))
    worst = max(sum(map(abs, row)) - row[i] for i, row in enumerate(d))
    labels = [-1] * len(d)
    for first in range(len(d)):
        stack = [first] if labels[first] < 0 else []
        while stack:
            for nxt, x in enumerate(d[stack.pop()]):
                if x and labels[nxt] < 0:
                    labels[nxt] = first
                    stack.append(nxt)
    return d[0][0], top, i, j, worst, tuple(labels)


def _pairs_of_two_or_more(lat: Lattice) -> tuple[tuple[int, ...], ...]:
    pairs = minimal_vectors(lat).pairs
    if len(pairs) < 2:
        raise FewerThanTwoPairs(f"{lat.name!r} has fewer than two minimal pairs")
    return pairs


class CoherenceValue(NamedTuple):
    value: Fraction
    attaining_pair: tuple[tuple[int, ...], tuple[int, ...]]


def coherence(lat: Lattice) -> CoherenceValue:
    """Largest |cos| over distinct non-opposite pairs of minimal vectors.

    Always lands in [0, 1/2].  Reports the lexicographically smallest
    attaining pair for determinism.
    """
    pairs = _pairs_of_two_or_more(lat)
    norm, top, i, j, *_ = _pair_pass(lat.int_gram, pairs)
    return CoherenceValue(value=Fraction(top, norm), attaining_pair=(pairs[i], pairs[j]))


def average_coherence(lat: Lattice) -> Fraction:
    """Worst row-average of |cos| over one representative per minimal pair."""
    pairs = _pairs_of_two_or_more(lat)
    norm, *_, worst, _ = _pair_pass(lat.int_gram, pairs)
    return Fraction(worst, norm * (len(pairs) - 1))


class BasisCos(NamedTuple):
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

    Comparison happens on exact squared cosines a_ij^2 / (a_ii a_jj) of
    A = s G, where s cancels; the basis vectors need not be minimal.
    """
    if lat.rank < 2:
        raise LatticeError("mu/nu need at least two basis vectors")
    a = lat.int_gram
    values = [Fraction(a[i][j] ** 2, a[i][i] * a[j][j]) for i, j in combinations(range(lat.rank), 2)]
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


class DensityValue(NamedTuple):
    delta_float: float
    delta_sq_over_omega_sq: Fraction


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
