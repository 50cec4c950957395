"""Exact shortest-vector machinery: minimal norm, minimal vectors, well-roundedness.

One depth-first enumeration per Gram matrix finds the minimal norm and every
minimal vector together: the bound starts at the smallest diagonal entry,
drops to each strictly shorter vector found, and the vectors at the current
bound are kept as ties, so the ties left at the end are the complete minimal
set.  Its levels are read from one diagonal elimination of s G
(`ratlinalg.diagonal_pivots`) and scaled to integers, so the walk uses no
floating point and no Fraction.  Results are cached on the Gram matrix alone.
Well-roundedness is the integer rank of the pair matrix (`int_rank`, which
stops at n independent pairs), cached on the pairs.  Every helper that needs
the minimal vectors, here and in invariants, ortho and eutaxy, takes the rank
guard `max_dim` and passes it on, so one setting holds for a whole report.
A box-scan brute-force oracle cross-validates the enumerator: an integer
odometer over every coordinate but the last, which is swept row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DimensionGuardExceeded, PairCountGuardExceeded
from .lattice import Lattice, gram_pivots
from .ratlinalg import RatMatrix, format_rational, int_rank, integer_scaled

DEFAULT_MAX_DIM = 12
DEFAULT_PAIR_GUARD_FACTOR = 10
BRUTE_FORCE_POINT_GUARD = 10**8


@dataclass(frozen=True)
class MinimalVectorSet:
    """One canonical representative per +/- pair of minimal vectors.

    Representatives have their first nonzero coefficient positive and are
    sorted lexicographically; the full minimal set has size 2 * len(pairs).
    """

    norm_sq: Fraction
    pairs: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return 2 * len(self.pairs)

    def to_json_dict(self) -> dict:
        return {
            "norm_sq": format_rational(self.norm_sq),
            "pairs": [list(u) for u in self.pairs],
        }


def _canonical_pair(u: tuple[int, ...]) -> tuple[int, ...]:
    for x in u:
        if x != 0:
            return u if x > 0 else tuple(-y for y in u)
    return u


@lru_cache(maxsize=4096)
def _shortest(gram: RatMatrix, limit: int) -> tuple[Fraction, tuple[tuple[int, ...], ...], bool]:
    """Core exact enumerator: (minimal norm, canonical minimal pairs, overflowed).

    Explores the half-space where the highest-index nonzero coordinate is
    positive.  The bound tightens whenever a strictly shorter nonzero vector
    is found, which empties the tie list; every vector at the current bound
    is kept, up to `limit` pairs.  `overflowed` is True when a further tie at
    the final norm was dropped.  With the leading minors P and the column
    minors M_jk of s G (`diagonal_pivots`), level k adds
    (P_{k+1} x_k + sum_{j>k} M_jk x_j)^2 / (s P_k P_{k+1}).  With g_k the gcd
    of P_{k+1} and the M_jk, that is w_k (b_k x_k + a)^2 in units 1/S, with
    integers w_k, b_k = P_{k+1} / g_k and a = sum_{j>k} (M_jk / g_k) x_j.
    """
    n = gram.rows
    s, pivots, cols = gram_pivots(gram)
    g = [math.gcd(*col) for col in cols]
    b = [col[0] // gk for col, gk in zip(cols, g)]
    diag = [Fraction(p, s * prev) for prev, p in zip(pivots, pivots[1:])]
    scale = math.lcm(*(d.denominator * bk * bk for d, bk in zip(diag, b)))  # S q(u) is integral
    w = [int(d * scale / (bk * bk)) for d, bk in zip(diag, b)]
    terms = [[(k + i, c // g[k]) for i, c in enumerate(col) if i and c] for k, col in enumerate(cols)]
    x = [0] * n
    bound = int(min(gram[i, i] for i in range(n)) * scale)
    ties: list[tuple[int, ...]] = []
    overflowed = False

    def rec(k: int, partial: int, higher_zero: bool):
        nonlocal bound, ties, overflowed
        if k < 0:
            if higher_zero:
                return
            if partial < bound:
                bound, ties, overflowed = partial, [], False
            if len(ties) < limit:
                ties.append(_canonical_pair(tuple(x)))
            else:
                overflowed = True
            return
        # partial <= bound on entry: the caller checked it after its last drop
        wk, bk = w[k], b[k]
        a = sum(c * x[j] for j, c in terms[k])
        s = math.isqrt((bound - partial) // wk)
        lo = 0 if higher_zero else -((s + a) // bk)
        for xk in range(lo, (s - a) // bk + 1):
            t = bk * xk + a
            contrib = wk * t * t
            if partial + contrib > bound:
                continue
            x[k] = xk
            rec(k - 1, partial + contrib, higher_zero and xk == 0)
        x[k] = 0

    rec(n - 1, 0, True)
    return Fraction(bound, scale), tuple(sorted(ties)), overflowed


def _check_dim(lat: Lattice, max_dim: int) -> None:
    if lat.rank > max_dim:
        raise DimensionGuardExceeded(
            f"rank {lat.rank} exceeds the enumeration guard {max_dim}"
        )


def minimal_norm_sq(lat: Lattice, max_dim: int = DEFAULT_MAX_DIM) -> Fraction:
    """Exact squared minimal norm, min over nonzero integer u of u^T G u."""
    _check_dim(lat, max_dim)
    return _shortest(lat.gram, DEFAULT_PAIR_GUARD_FACTOR * lat.rank * lat.rank)[0]


def minimal_vectors(lat: Lattice, max_dim: int = DEFAULT_MAX_DIM) -> MinimalVectorSet:
    """Complete canonical set of minimal vectors, one per +/- pair.

    Completeness: every integer u with u^T G u equal to the minimal norm is
    listed up to sign.  Guards fail loudly instead of truncating: more than
    DEFAULT_PAIR_GUARD_FACTOR * n^2 pairs at the minimal norm raises.
    """
    _check_dim(lat, max_dim)
    limit = DEFAULT_PAIR_GUARD_FACTOR * lat.rank * lat.rank
    norm, pairs, overflowed = _shortest(lat.gram, limit)
    if overflowed:
        raise PairCountGuardExceeded(f"more than {limit} minimal pairs for {lat.name!r}")
    return MinimalVectorSet(norm_sq=norm, pairs=pairs)


@lru_cache(maxsize=4096)
def _spans(pairs: tuple[tuple[int, ...], ...], n: int) -> bool:
    return len(pairs) >= n and int_rank(pairs) == n


def is_well_rounded(lat: Lattice, max_dim: int = DEFAULT_MAX_DIM) -> bool:
    """True iff the minimal vectors span: rank of their coefficient matrix is n."""
    return _spans(minimal_vectors(lat, max_dim).pairs, lat.rank)


def brute_force_min_vectors(lat: Lattice, box: int) -> MinimalVectorSet:
    """Exhaustive scan of the coefficient box [-box, box]^n.

    Test oracle for the enumerator, independent of its elimination.  It
    evaluates, in integers on s G, every point of the half box whose first
    nonzero coordinate is negative, as q(-u) = q(u): an odometer over the
    prefix u_0..u_{n-2} carries g = s G (prefix, 0) and q0 = s prefix^T G
    prefix, and each row sweeps the last coordinate x at q0 + x (2 g_{n-1} +
    x a), a = s G_{n-1,n-1}, with x < 0 only on the all-zero prefix, the last
    row.  Exact but exponential: a guard.
    """
    n = lat.rank
    if box < 1:
        raise ValueError("box must be >= 1")
    points = (2 * box + 1) ** n
    if points > BRUTE_FORCE_POINT_GUARD:
        raise DimensionGuardExceeded(f"box {box} at rank {n} scans {points} points > {BRUTE_FORCE_POINT_GUARD}")
    scale, gi = integer_scaled(lat.gram)
    m = n - 1
    a = gi[m][m]
    xs = range(-box, box + 1)
    u = [-box] * m
    gu = [-box * sum(row[:m]) for row in gi]
    q0 = -box * sum(gu[:m])
    best, vecs = q0 + box * (box * a - 2 * gu[m]), []  # the first point, (-box, ..., -box)
    for left in reversed(range(((2 * box + 1) ** m + 1) // 2)):  # rows up to the all-zero prefix
        if not left:
            xs = range(-box, 0)
        c = 2 * gu[m]
        qs = [q0 + x * (c + x * a) for x in xs]
        low = min(qs)
        if low <= best:
            if low < best:
                best, vecs = low, []
            vecs += [(*u, x) for x, q in zip(xs, qs) if q == low]
        i, d = m, -1
        while left and d < 0:  # wrap each trailing prefix coordinate at box, then step one up
            i -= 1
            d = -2 * box if u[i] == box else 1
            col = gi[i]
            q0 += d * (2 * gu[i] + d * col[i])
            gu = [y + d * e for y, e in zip(gu, col)]
            u[i] += d
    pairs = sorted({_canonical_pair(u) for u in vecs})
    return MinimalVectorSet(norm_sq=Fraction(best, scale), pairs=tuple(pairs))
