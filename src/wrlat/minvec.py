"""Exact shortest-vector machinery: minimal norm, minimal vectors, well-roundedness.

One depth-first enumeration per Gram matrix finds the minimal norm and every
minimal vector together.  It walks the pair-reduced integer Gram
(`_pair_reduce`), so a disguised basis costs little more than a reduced one:
the bound starts at the smallest diagonal entry, drops to each strictly
shorter vector found, and the vectors at the current bound are kept as ties,
so the ties left at the end are the complete minimal set.  The walk carries
the vector in the input basis beside its reduced coordinates, so each tie is
kept as its canonical pair when it is found, with its top, the highest level
where it is nonzero.  Ties with n distinct tops are an echelon basis, so they
decide well-roundedness with no elimination; only when the tops miss a level
does `ratlinalg.int_rank` read the reduced ties.  The levels are read from
one diagonal elimination (`ratlinalg.diagonal_pivots`) and scaled to
integers, and each level's center and the input-basis vector are running
sums, so the walk uses no floating point and no Fraction.  Results
are cached on the integer Gram s G (`Lattice.int_gram`) and s alone: lattices
that differ only in scale can share s G.  One constant, `RANK_GUARD` (12),
bounds the rank of the enumeration and of the all-orderings verdict, so one
guard holds for a whole report.  A box-scan brute-force oracle
cross-validates the enumerator on the Gram as given, with no reduction: an
integer odometer over every coordinate but the last, which is swept row by
row.  The suite derives each box from a certificate, `certified_box`:
q(u) <= m gives u_i^2 <= m (G^-1)_ii, so m at least the minimum makes the
scan complete.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import DimensionGuardExceeded, PairCountGuardExceeded
from .lattice import Lattice
from .ratlinalg import adjugate, diagonal_pivots, int_rank

RANK_GUARD = 12
PAIR_GUARD_FACTOR = 10
BRUTE_FORCE_POINT_GUARD = 10**8


class MinimalVectorSet(NamedTuple):
    """One canonical representative per +/- pair of minimal vectors.

    Representatives have their first nonzero coefficient positive and are
    sorted lexicographically; the full minimal set has size 2 * len(pairs).
    """

    norm_sq: Fraction
    pairs: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return 2 * len(self.pairs)


def _canonical_pair(u: tuple[int, ...]) -> tuple[int, ...]:
    for x in u:
        if x != 0:
            return u if x > 0 else tuple(-y for y in u)
    return u


def _pair_reduce(a: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """(T A T^T, T) for a positive-definite integer Gram A, with |2 a_ij| <= a_jj.

    While some |2 a_ij| > a_jj, the move b_i -= q b_j, q the nearest integer
    to a_ij / a_jj, strictly lowers a_ii, so the loop ends.  The rows of the
    unimodular T give the reduced basis in input coordinates, ordered by
    ascending diagonal; when no move happens, T is a permutation.
    """
    a = [list(row) for row in a]
    n = len(a)
    t = [[0] * n for _ in range(n)]
    for i, row in enumerate(t):
        row[i] = 1
    moved = True
    while moved:
        moved = False
        for j, aj in enumerate(a):
            ajj = aj[j]
            # a move on b_i changes only row and column i, so the other a_ij stay as listed
            for i in [i for i, x in enumerate(aj) if 2 * abs(x) > ajj and i != j]:
                q = (2 * aj[i] + ajj) // (2 * ajj)
                ri = [x - q * y for x, y in zip(a[i], aj)]
                ri[i] -= q * ri[j]  # <b_i - q b_j, b_i - q b_j>
                a[i] = ri
                for row, x in zip(a, ri):
                    row[i] = x
                t[i] = [x - q * y for x, y in zip(t[i], t[j])]
                moved = True
    order = sorted(range(n), key=lambda i: a[i][i])
    return [[row[j] for j in order] for row in map(a.__getitem__, order)], [t[i] for i in order]


@lru_cache(maxsize=4096)
def _shortest(s: int, gram: tuple[tuple[int, ...], ...], limit: int) -> tuple[Fraction, tuple[tuple[int, ...], ...], bool, bool]:
    """Core exact enumerator: (minimal norm, canonical pairs, overflowed, spans).

    gram is the integer Gram s G.  Walks A = T (s G) T^T from `_pair_reduce`,
    over the half-space where the highest-index nonzero coordinate is
    positive.  The bound starts at A's smallest diagonal entry and tightens
    whenever a strictly shorter nonzero vector is found, which empties the
    tie list; every vector at the current bound is kept, up to `limit`
    pairs, as the canonical pair of u = sum_k x_k t_k over the rows t_k of T,
    which the walk carries.  `overflowed` is True when a further tie at the
    final norm was dropped; that set does not depend on the basis.  spans:
    the kept ties have rank n: their tops cover all n levels, or else
    `int_rank` finds it on the reduced ties, in reverse walk order, where it
    meets n independent ones sooner.  With the leading
    minors P and the column minors M_jk of A (`diagonal_pivots`), level k adds
    (P_{k+1} x_k + sum_{j>k} M_jk x_j)^2 / (s P_k P_{k+1}).  With g_k the gcd
    of P_{k+1} and the M_jk, that is w_k (b_k x_k + c_k)^2 in units 1/S, with
    integers w_k, b_k = P_{k+1} / g_k and the center c_k = sum_{j>k} (M_jk /
    g_k) x_j.  When x_j changes by d, each c_k that reads it gains d M_jk /
    g_k, and u gains d t_j.  Level 0 is swept in one loop, with no call per
    leaf.
    """
    n = len(gram)
    a, t = _pair_reduce(gram)
    pivots, cols = diagonal_pivots(a)
    g = [math.gcd(*col) for col in cols]
    b = [col[0] // gk for col, gk in zip(cols, g)]
    level = [(p, s * prev * bk * bk) for prev, p, bk in zip(pivots, pivots[1:], b)]  # w_k / S as p / q
    scale = math.lcm(*(q // math.gcd(p, q) for p, q in level))
    w = [p * scale // q for p, q in level]
    # readers[j]: each level k < j whose center reads x_j, with M_jk / g_k; then n + i, with t_ji != 0, for u
    readers = [[(k, cols[k][j - k] // g[k]) for k in range(j) if cols[k][j - k]] + [(n + i, e) for i, e in enumerate(tj) if e]
               for j, tj in enumerate(t)]
    found = ties, pairs, tops = [], [], []
    bound = _walk(n - 1, 0, a[0][0] * scale // s, -1, (w, b, [0] * 2 * n, [0] * n, readers, found, limit + 1))
    overflowed = len(ties) > limit
    for kept in found:
        del kept[limit:]
    spans = len(set(tops)) == n or int_rank(ties[::-1]) == n
    return Fraction(bound, scale), tuple(sorted(pairs)), overflowed, spans


def _walk(k: int, partial: int, bound: int, top: int, state) -> int:
    """Level k of `_shortest`'s walk, entered with partial <= bound; returns the
    bound.  top is the highest level above k with x nonzero, or -1, when only
    x_k >= 0 is walked (x_0 >= 1).  state is (w, b, center, x, readers, (ties,
    pairs, tops), cap), center holding the n centers and then u: each drop of
    the bound empties the three lists in place, and at most cap ties are kept.
    x may hold values left by an earlier branch below level k; the centers
    and u always agree with x, and each level resets its x before it reads
    it."""
    w, b, center, x, readers, (ties, pairs, tops), cap = state
    wk, bk, c = w[k], b[k], center[k]
    r = math.isqrt((bound - partial) // wk)
    lo = (0 if k else 1) if top < 0 else -((r + c) // bk)
    for xk in range(lo, (r - c) // bk + 1):
        y = bk * xk + c
        p = partial + wk * y * y
        if p > bound:
            continue
        if not k:
            if p < bound:
                bound = p
                for kept in (ties, pairs, tops):
                    kept.clear()
            if len(ties) == cap:
                continue
        step = xk - x[k]
        if step:
            x[k] = xk
            for i, m in readers[k]:
                center[i] += m * step
        if k:
            bound = _walk(k - 1, p, bound, k if top < 0 and xk else top, state)
        else:
            ties.append(tuple(x))
            pairs.append(_canonical_pair(tuple(center[len(x):])))
            tops.append(max(top, 0))
    return bound


def _enumeration(lat: Lattice) -> tuple[Fraction, tuple[tuple[int, ...], ...], bool, bool]:
    """The cached `_shortest` of lat, under the rank guard and the pair limit."""
    if lat.rank > RANK_GUARD:
        raise DimensionGuardExceeded(f"rank {lat.rank} exceeds the enumeration guard {RANK_GUARD}")
    return _shortest(lat.scale, lat.int_gram, PAIR_GUARD_FACTOR * lat.rank * lat.rank)


def minimal_norm_sq(lat: Lattice) -> Fraction:
    """Exact squared minimal norm, min over nonzero integer u of u^T G u."""
    return _enumeration(lat)[0]


def minimal_vectors(lat: Lattice) -> MinimalVectorSet:
    """Complete canonical set of minimal vectors, one per +/- pair.

    Completeness: every integer u with u^T G u equal to the minimal norm is
    listed up to sign.  Guards fail loudly instead of truncating: more than
    PAIR_GUARD_FACTOR * n^2 pairs at the minimal norm raises.
    """
    norm, pairs, overflowed, _ = _enumeration(lat)
    if overflowed:
        limit = PAIR_GUARD_FACTOR * lat.rank * lat.rank
        raise PairCountGuardExceeded(f"more than {limit} minimal pairs for {lat.name!r}")
    return MinimalVectorSet(norm_sq=norm, pairs=pairs)


def is_well_rounded(lat: Lattice) -> bool:
    """True iff the minimal vectors span: rank of their coefficient matrix is n."""
    minimal_vectors(lat)  # its guards; the rank comes with its cached enumeration
    return _enumeration(lat)[3]


def certified_box(lat: Lattice, m=None) -> int:
    """A box >= 1 holding every u with u^T G u <= m, in the basis as given.

    m defaults to the smallest diagonal entry, so the box holds every minimal
    vector.  Proof (Fincke-Pohst): u_i = (G^-1 e_i)^T G u, so Cauchy-Schwarz
    in G gives u_i^2 <= (G^-1)_ii q(u) <= m (G^-1)_ii.  On A = s G that is
    s m adj(A)_ii / det A, both read from one `adjugate` of A.
    """
    a, n = lat.int_gram, lat.rank
    m_s = min(a[i][i] for i in range(n)) if m is None else lat.scale * m
    det, adj = adjugate(a)
    return max(1, *(math.isqrt(m_s * adj[i][i] // det) for i in range(n)))


def brute_force_min_vectors(lat: Lattice, box: int) -> MinimalVectorSet:
    """Exhaustive scan of the coefficient box [-box, box]^n.

    Test oracle for the enumerator, independent of its elimination; a box
    from `certified_box` makes its answer the complete minimal set.  It
    evaluates, in integers on s G, every point of the half box whose first
    nonzero coordinate is negative, as q(-u) = q(u): an odometer over the
    prefix u_0..u_{n-2} carries g = s G (prefix, 0) and q0 = s prefix^T G
    prefix, and each row sweeps the last coordinate x at q0 + x (2 g_{n-1} +
    x a), a = s G_{n-1,n-1}, with x < 0 only on the all-zero prefix, the last
    row: (P - 1) / 2 of the P = (2 box + 1)^n points of the box, and P is guarded.
    """
    n = lat.rank
    if box < 1:
        raise ValueError("box must be >= 1")
    points = (2 * box + 1) ** n
    if points > BRUTE_FORCE_POINT_GUARD:
        raise DimensionGuardExceeded(f"box {box} at rank {n} holds {points} points > {BRUTE_FORCE_POINT_GUARD}")
    scale, gi = lat.scale, lat.int_gram
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
