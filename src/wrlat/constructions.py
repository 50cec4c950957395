"""Generators for every lattice family studied here, as exact rational Grams.

Families whose textbook bases carry square roots (the staircase chain, K3',
the A_n frames, Coxeter-Barnes) are generated directly from the rational
inner products of those bases, so nothing irrational is ever stored.
The nine family constructors are memoized: equal arguments share one immutable
Lattice, built and validated once per process.  A bad call raises every time.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import InputError, PlanarSearchFailed
from .lattice import Lattice, lattice_from_gram, lattice_to_json_dict
from .ratlinalg import RatMatrix, block_diag, format_rational, int_sqrt_floor

PLANAR_SEARCH_CEILING = 10**6  # the largest denominator n' the planar scan tries
HEX_GRAM = RatMatrix.from_rows([[1, Fraction(1, 2)], [Fraction(1, 2), 1]])


@lru_cache(maxsize=4096)
def integer_lattice(n: int) -> Lattice:
    if n < 1:
        raise InputError("rank must be positive")
    return Lattice(f"Z^{n}", RatMatrix.identity(n), "orthonormal basis")


@lru_cache(maxsize=4096)
def hexagonal() -> Lattice:
    return Lattice("hex", HEX_GRAM, "two unit vectors at 60 degrees")


@lru_cache(maxsize=4096)
def lnm(n: int, m: int) -> Lattice:
    """Orthogonal sum of m hexagonal planes and n-2m orthonormal directions."""
    if n < 2 or m < 0 or 2 * m > n:
        raise InputError(f"need n >= 2 and 0 <= m <= n/2, got n={n} m={m}")
    blocks = [HEX_GRAM] * m + [RatMatrix.identity(n - 2 * m)] * (1 if n > 2 * m else 0)
    return Lattice(f"L({n},{m})", block_diag(*blocks), f"{m} hexagonal blocks plus identity of size {n - 2 * m}")


@lru_cache(maxsize=4096)
def staircase(n: int) -> Lattice:
    """Chain of unit vectors, each meeting the prior span at 60 degrees.

    The Gram recursion implements the projection rule: the projection of
    b_k onto span{b_0..b_{k-1}} is (b_0 - b_1 - ... - b_{k-1}) / 2, a
    vector of norm 1/2 along the running unit difference chain.  Hence
    g_ik = (g_0i - sum_{j=1}^{k-1} g_ji) / 2 for i < k (g_00 = ... = 1).
    """
    if n < 2:
        raise InputError("staircase needs rank >= 2")
    g = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n):
        for i in range(k):
            val = (g[0][i] - sum(g[j][i] for j in range(1, k))) / 2
            g[i][k] = g[k][i] = val
    return Lattice(f"staircase({n})", RatMatrix.from_rows(g), "60-degree chain basis")


def hybrid_max_m(n: int) -> int:
    """Largest m accepted by hybrid(n, m): (n-2)/2 for even n, (n-1)/2 for odd n."""
    return (n - 1) // 2


@lru_cache(maxsize=4096)
def hybrid(n: int, m: int) -> Lattice:
    """Staircase block padded with hexagonal planes.

    Valid for n >= 3 and 1 <= m <= (n-2)/2 for even n, (n-1)/2 for odd n;
    uses staircase(n - 2t) (+) hex^t with t = floor((n-1)/2) - m, which
    realizes the kissing number 3n + 2m (n even) or 3n - 1 + 2m (n odd).
    """
    if n < 3:
        raise InputError("hybrid needs rank >= 3")
    max_m = hybrid_max_m(n)
    if not 1 <= m <= max_m:
        raise InputError(f"need 1 <= m <= {max_m} for n={n}, got m={m}")
    t = max_m - m
    d = n - 2 * t
    blocks = [staircase(d).gram] + [HEX_GRAM] * t
    return Lattice(f"hybrid({n},{m})", block_diag(*blocks), f"staircase({d}) plus {t} hexagonal blocks")


@lru_cache(maxsize=4096)
def k3_prime() -> Lattice:
    """The irreducible eutactic 3-lattice spanned by three unit vectors with
    pairwise cosines -1/2, -1/2, 1/4."""
    h, q = Fraction(-1, 2), Fraction(1, 4)
    g = [[1, h, h], [h, 1, q], [h, q, 1]]
    return Lattice("K3'", RatMatrix.from_rows(g), "unit basis with cosines -1/2, -1/2, 1/4")


@lru_cache(maxsize=4096)
def an_root(n: int) -> Lattice:
    """Root lattice A_n in its simple-root basis e_i - e_{i+1} (Gram 2/-1)."""
    if n < 1:
        raise InputError("rank must be positive")
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = Fraction(2)
        if i + 1 < n:
            g[i][i + 1] = g[i + 1][i] = Fraction(-1)
    return Lattice(f"A{n}", RatMatrix.from_rows(g), "simple roots e_i - e_(i+1)")


@lru_cache(maxsize=4096)
def an_dual_frame(n: int) -> Lattice:
    """The dual A_n* presented by its cyclic frame of n+1 unit vectors.

    The n stored frame vectors are unit with pairwise inner product -1/n;
    the omitted frame vector is minus their sum.
    """
    if n < 2:
        raise InputError("frame needs rank >= 2")
    g = [[Fraction(1) if i == j else Fraction(-1, n) for j in range(n)] for i in range(n)]
    return Lattice(f"A{n}*", RatMatrix.from_rows(g), "cyclic unit frame, cosines -1/n")


@lru_cache(maxsize=4096)
def coxeter_barnes(n: int, r: int) -> Lattice:
    """The index-r Coxeter lattice between A_n and its dual.

    Basis: e_1 - e_i for 2 <= i <= n, plus the glue vector
    (n e_1 - e_2 - ... - e_{n+1}) / r, which lies in the zero-sum hyperplane.
    Requires n >= 7 and r a proper nontrivial divisor of n + 1.
    """
    if n < 7:
        raise InputError("defined for n >= 7")
    if not (1 < r < n + 1) or (n + 1) % r != 0:
        raise InputError(f"r={r} must be a divisor of n+1={n + 1} with 1 < r < n+1")
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n - 1):
        for j in range(n - 1):
            g[i][j] = Fraction(2) if i == j else Fraction(1)
    for i in range(n - 1):
        g[i][n - 1] = g[n - 1][i] = Fraction(n + 1, r)
    g[n - 1][n - 1] = Fraction(n * (n + 1), r * r)
    return Lattice(f"A{n}^{r}", RatMatrix.from_rows(g), "root differences plus glue vector")


def is_squarefree(d: int) -> bool:
    if d < 1:
        return False
    f = 2
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        f += 1
    return True


class PlanarWRResult(NamedTuple):
    """Integral planar well-rounded lattice with coherence p/q below epsilon.

    Generated from a rational gamma = m/(n sqrt(D)) slightly above 1:
    p = m^2 - D n^2, q = m^2 + D n^2, r = 2mn satisfy p^2 + r^2 D = q^2 and
    the Gram is [[q, p], [p, q]] with minimal norm q and coherence p/q.
    """

    epsilon: Fraction
    d: int
    m: int
    n: int
    p: int
    q: int
    r: int
    lattice: Lattice
    q_bound_float: float
    bound_holds: bool
    recipe_used: bool

    def to_json_dict(self) -> dict:
        return {
            "epsilon": format_rational(self.epsilon),
            "d": self.d,
            "m": self.m,
            "n": self.n,
            "p": self.p,
            "q": self.q,
            "r": self.r,
            "coherence": format_rational(Fraction(self.p, self.q)),
            "lattice": lattice_to_json_dict(self.lattice),
            "q_bound": self.q_bound_float,
            "bound_holds": self.bound_holds,
            "recipe_used": self.recipe_used,
        }


def _planar_valid(m: int, n: int, d: int, eps: Fraction) -> bool:
    if m * m <= d * n * n:  # gamma > 1 fails
        return False
    if math.gcd(m, n) != 1:
        return False
    p = m * m - d * n * n
    q = m * m + d * n * n
    return Fraction(p, q) < eps


def _q_bound_holds(q: int, eps: Fraction, d: int) -> bool:
    # q <= 2D/(1-e) * (1/e + 2 sqrt(1/e - 1)), decided by squaring
    a = 2 * d / (1 - eps) / eps
    b = 4 * d / (1 - eps)
    c = 1 / eps - 1
    lhs = q - a
    return lhs <= 0 or lhs * lhs <= b * b * c


def planar_wr(epsilon: Fraction, d: int) -> PlanarWRResult:
    """Construct an integral planar WR lattice with 0 < coherence < epsilon.

    Tries the closed-form choice m = floor(sqrt(D(1/e + 1))),
    n = floor(sqrt(1/e - 1)) + 1 first; when its validity conditions fail
    (they usually do once the floors bite), scans n' = 1, ..., PLANAR_SEARCH_CEILING
    for the first coprime m'/n' with D n'^2 < m'^2 <= D n'^2 (1+e)/(1-e) and
    coherence strictly below epsilon.  The q bound is only guaranteed on the
    closed-form path and is recorded rather than asserted elsewhere.
    """
    eps = Fraction(epsilon)
    if not 0 < eps <= Fraction(1, 2):
        raise InputError("epsilon must lie in (0, 1/2]")
    if not is_squarefree(d):
        raise InputError(f"D={d} must be a squarefree positive integer")

    m = int_sqrt_floor(d * (1 / eps + 1))
    n = int_sqrt_floor(1 / eps - 1) + 1
    recipe_used = _planar_valid(m, n, d, eps)
    if not recipe_used:
        hit = None
        ratio = (1 + eps) / (1 - eps)
        for nn in range(1, PLANAR_SEARCH_CEILING + 1):
            lo = d * nn * nn
            hi = lo * ratio
            mm = math.isqrt(lo) + 1
            while mm * mm <= hi:
                if _planar_valid(mm, nn, d, eps):
                    hit = (mm, nn)
                    break
                mm += 1
            if hit:
                break
        if hit is None:
            raise PlanarSearchFailed(
                f"no admissible (m, n) with n <= {PLANAR_SEARCH_CEILING} for epsilon={eps}, D={d}"
            )
        m, n = hit

    p = m * m - d * n * n
    q = m * m + d * n * n
    r = 2 * m * n
    assert p * p + r * r * d == q * q
    lat = lattice_from_gram(
        f"planar(eps={eps},D={d})",
        [[q, p], [p, q]],
        provenance=f"m={m} n={n}: Gram [[q,p],[p,q]] with p={p} q={q} r={r}",
    )
    bound_float = float(2 * d / (1 - eps)) * (float(1 / eps) + 2 * math.sqrt(float(1 / eps - 1)))
    return PlanarWRResult(
        epsilon=eps,
        d=d,
        m=m,
        n=n,
        p=p,
        q=q,
        r=r,
        lattice=lat,
        q_bound_float=bound_float,
        bound_holds=_q_bound_holds(q, eps, d),
        recipe_used=recipe_used,
    )


def weak_family_lattices(max_n: int):
    """All construction-family lattices certified (at least) weakly nearly
    orthogonal by their stored bases, up to rank max_n."""
    out = []
    for n in range(2, max_n + 1):
        for m in range(0, n // 2 + 1):
            out.append(lnm(n, m))
        out.append(staircase(n))
        for m in range(1, hybrid_max_m(n) + 1):
            out.append(hybrid(n, m))
    if max_n >= 3:
        out.append(k3_prime())
    return out


def strict_family_lattices(max_n: int):
    """Construction-family lattices lying in the strict (all-orderings) class."""
    out = []
    for n in range(2, max_n + 1):
        for m in range(0, n // 2 + 1):
            out.append(lnm(n, m))
    return out
