"""Angles between basis vectors and spans; near-orthogonality verdicts.

A basis ordering b_0, ..., b_{n-1} has an angle profile: entry i is the
squared cosine of the angle between b_{i+1} and the span of b_0..b_i.  An
ordering is *weakly* theta-orthogonal when every profile entry stays at or
below cos^2(theta); the basis is *theta-orthogonal* when every ordering is.
All comparisons happen on squared cosines, which are exact rationals.

Each squared cosine is 1 - d_{S+w} / (d_S a_ww) on the integer Gram A = s G,
with d_P = det A_PP: along one ordering, consecutive leading minors from one
diagonal elimination (`ratlinalg.diagonal_pivots`).  The all-orderings verdict
decides from four facts about the angle to a span (`is_theta_orthogonal`).

Verdicts are relative to the stored basis.  For the strict class the
optional search over bases of minimal vectors is complete (a basis that is
nearly orthogonal consists of minimal vectors), for the weak class it is a
documented heuristic; membership_report also applies the kissing-number and
coherence bounds that decide some cases outright.  These bounds and the
search's completeness are pi/3 results, so they hold only at thresholds
cos^2 <= 1/4, where the class lies inside the pi/3 one.  The search works on
one integer Gram of the minimal pairs: a subset's Gram is a principal
submatrix of it, whose determinant decides whether the subset is a basis,
and the verdict runs on that submatrix.  The subsets are walked depth first,
one tail step per chosen pair, and it stops once nothing is left undecided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import DimensionGuardExceeded, NotWellRounded, SubsetGuardExceeded
from .invariants import coherence
from .lattice import Lattice
from .minvec import RANK_GUARD, is_well_rounded, minimal_vectors
from .ratlinalg import diagonal_pivots, format_rational, gram_of_vectors, tail_step

PI_THIRD_COS_SQ = Fraction(1, 4)
DEFAULT_SUBSET_GUARD = 50_000


@dataclass(frozen=True)
class AngleProfile:
    ordering: tuple[int, ...]
    cos_sq: tuple[Fraction, ...]


def angle_profile(lat: Lattice, ordering: Sequence[int]) -> AngleProfile:
    """Profile of squared cosines along one ordering (a permutation of 0..n-1).

    On the integer Gram A = s G (`Lattice.int_gram`) reordered by the
    ordering, with leading minors P (`diagonal_pivots`), the entry of
    w = ordering[i], i >= 1, is 1 - P_{i+1} / (P_i a_ww).  The minors are
    positive because a Lattice rejects a Gram that is not positive definite.
    """
    perm = tuple(ordering)
    if sorted(perm) != list(range(lat.rank)):
        raise ValueError(f"{ordering!r} is not a permutation of 0..{lat.rank - 1}")
    a = lat.int_gram
    pivots, _ = diagonal_pivots([[a[i][j] for j in perm] for i in perm])
    cos_sq = (1 - Fraction(pivots[i + 1], pivots[i] * a[w][w]) for i, w in enumerate(perm) if i)
    return AngleProfile(perm, tuple(cos_sq))


@dataclass(frozen=True)
class OrthoViolation:
    ordering: tuple[int, ...]
    level: int  # position of the offending vector within the ordering
    cos_sq: Fraction


@dataclass(frozen=True)
class OrthoVerdict:
    weakly: bool
    strictly: bool
    witness_ordering: tuple[int, ...] | None
    violation: OrthoViolation | None

    def to_json_dict(self) -> dict:
        return {
            "weakly": self.weakly,
            "strictly": self.strictly,
            "witness": list(self.witness_ordering) if self.witness_ordering else None,
            "violation": None
            if self.violation is None
            else {
                "ordering": list(self.violation.ordering),
                "level": self.violation.level,
                "cos_sq": format_rational(self.violation.cos_sq),
            },
        }


def is_theta_orthogonal(
    lat: Lattice,
    cos_sq_threshold: Fraction = PI_THIRD_COS_SQ,
) -> OrthoVerdict:
    """Quantify over all n! orderings.

    A vector's profile entry depends only on the *set* S before it, and
    cos^2(w, span S) cannot decrease as S grows.  With d_P = det A_PP on
    A = s G and the threshold p/q, w is *within* S iff (q - p) d_S a_ww <=
    q d_{S+w}.  (a) Strict iff each vector is within all the others; the
    witness is then 0..n-1.  (b) Weak iff a reverse greedy, removing any
    vector within the rest, empties the set.  (c) The witness, the first
    in-threshold ordering, takes at each step the least vector within the
    prefix after which (b) still places the rest.  (d) If (a) fails, the
    violation is the first met over sizes, sets in `combinations` order, then
    vectors, so the least by (size, sorted prefix set, vector): below its size
    all orderings are in threshold.  It orders the prefix set, the vector,
    then the rest.  Both replay under angle_profile.  d_{S+w} is read from the
    tail of S + w less its largest index (`_tail`): at most 2^(n-1) - 1 steps,
    so ranks above `minvec.RANK_GUARD` (12) are refused.
    """
    thr = Fraction(cos_sq_threshold)
    if not 0 <= thr <= 1:
        raise ValueError("threshold must be a squared cosine in [0, 1]")
    if lat.rank > RANK_GUARD:
        raise DimensionGuardExceeded(f"rank {lat.rank} exceeds the orderings guard {RANK_GUARD}")
    return _verdict(lat.int_gram, thr)


def _tail(tails: dict[int, tuple[int, list[list[int]]]], mask: int) -> tuple[int, list[list[int]]]:
    """(d_P, tail of P) for the mask P, made from its prefix on first read and
    kept in tails.  The tail is kept as upper rows (`tail_step`): row j stands
    for the index t = P.bit_length() + j and holds the columns from t on, so
    d_{P+t} is its entry [j][0]."""
    got = tails.get(mask)
    if got is None:
        top = mask.bit_length() - 1
        rest = mask ^ 1 << top
        d, m = _tail(tails, rest)
        k = top - rest.bit_length()
        got = tails[mask] = m[k][0], tail_step(m, d, k)
    return got


def _verdict(a: Sequence[Sequence[int]], thr: Fraction) -> OrthoVerdict:
    """`is_theta_orthogonal` on a positive-definite integer Gram a and a checked thr."""
    n = len(a)
    p, q = thr.numerator, thr.denominator
    full = (1 << n) - 1
    tails = {0: (1, [row[i:] for i, row in enumerate(a)])}

    def minor(mask: int) -> int:
        if not mask:
            return 1
        top = mask.bit_length() - 1
        rest = mask ^ 1 << top
        k = top - rest.bit_length()
        return _tail(tails, rest)[1][k][0]

    def within(s: int, v: int) -> bool:
        return (q - p) * minor(s) * a[v][v] <= q * minor(s | 1 << v)

    def placeable(fixed: int) -> bool:
        """(b) on the vectors outside fixed, removing the highest it can first."""
        rest = full
        while bit := next(
            (1 << v for v in reversed(range(n)) if (rest ^ fixed) >> v & 1 and within(rest ^ 1 << v, v)), 0
        ):
            rest ^= bit
        return rest == fixed

    def violations():
        """(d), in order; each minor is read once, from a tail met earlier in the scan."""
        minors = {1 << v: a[v][v] for v in range(n)}
        for size in range(1, n):
            for bits in combinations([1 << i for i in range(n)], size):
                mask = sum(bits)
                top = bits[-1].bit_length() - 1
                m = _tail(tails, mask)[1] if top < n - 1 else ()
                for j, row in enumerate(m):
                    minors[mask | 2 << top + j] = row[0]
                d = minors[mask]
                for v in range(n):
                    if not mask >> v & 1 and (q - p) * d * a[v][v] > q * minors[mask | 1 << v]:
                        prefix = tuple(b.bit_length() - 1 for b in bits)
                        ordering = prefix + (v,) + tuple(w for w in range(n) if w != v and w not in prefix)
                        yield OrthoViolation(ordering, size, 1 - Fraction(minors[mask | 1 << v], d * a[v][v]))

    if all(within(full ^ 1 << v, v) for v in reversed(range(n))):
        return OrthoVerdict(True, True, tuple(range(n)), None)
    witness, s = () if placeable(0) else None, 0
    while witness is not None and s != full:
        v = next(v for v in range(n) if not s >> v & 1 and within(s, v) and placeable(s | 1 << v))
        witness, s = witness + (v,), s | 1 << v
    return OrthoVerdict(witness is not None, False, witness, next(violations()))


@dataclass(frozen=True)
class MembershipReport:
    """Class-membership verdicts for a well-rounded lattice.

    stored_basis is the verdict for the lattice's own basis ordering set.
    in_weak / in_strict are three-valued: True/False when decided by a basis
    certificate, the kissing-number bounds, or the coherence rule; None when
    undecided.  The minimal-basis search decides in_strict completely.  Above
    the threshold 1/4 only a certificate decides: True, else None.
    """

    stored_basis: OrthoVerdict
    kissing_number: int
    in_weak: bool | None
    in_strict: bool | None
    searched: bool
    search_weak_witness: tuple[tuple[int, ...], ...] | None
    search_strict_witness: tuple[tuple[int, ...], ...] | None
    reasons: tuple[str, ...]


def minimal_basis_subsets(lat: Lattice):
    """Yield (subset, |det|) for every n-subset of minimal pairs that spans,
    with |det| the absolute determinant of its coefficient vectors: 1 means
    the subset is a basis of the lattice.

    One integer Gram A = U^T (s G) U of all k pairs (`gram_of_vectors`)
    serves every subset: its Gram is a principal submatrix of A, of
    determinant det(U_S)^2 det(s G), so the subset spans iff that is > 0, and
    then |det U_S| = isqrt(det A_SS / det(s G)), with det(s G) the last of
    the lattice's `leading_minors`.  The subsets are walked lazily, depth
    first in `combinations` order (`_spanning_subsets`).  Raises
    SubsetGuardExceeded before the first subset once C(k, n) exceeds the
    guard."""
    pairs = minimal_vectors(lat).pairs
    n, k = lat.rank, len(pairs)
    total = math.comb(k, n)
    if total > DEFAULT_SUBSET_GUARD:
        raise SubsetGuardExceeded(f"{total} candidate subsets exceed guard {DEFAULT_SUBSET_GUARD}")
    det_sg = lat.leading_minors[-1]
    upper = [row[i:] for i, row in enumerate(gram_of_vectors(lat.int_gram, pairs))]
    for idx, minor in _spanning_subsets(k, n, (), 1, upper):
        yield tuple(pairs[i] for i in idx), math.isqrt(minor // det_sg)


def _spanning_subsets(k: int, n: int, chosen: tuple[int, ...], d: int, m: list[list[int]]):
    """Yield (subset, det) for the n-subsets of range(k) that extend chosen and
    have a nonzero principal minor, in `combinations` order; d and m are the
    minor and the tail of chosen on a positive-semidefinite Gram, kept as
    upper rows, so one `tail_step` per chosen index and the diagonal [j][0]
    of the last tail give every minor, and a zero minor rules out every
    superset."""
    lo = chosen[-1] + 1 if chosen else 0
    for j in range(k - lo - (n - 1 - len(chosen))):  # leave room for the rest
        minor = m[j][0]
        if not minor:
            continue
        if len(chosen) == n - 1:
            yield chosen + (lo + j,), minor
        else:
            yield from _spanning_subsets(k, n, chosen + (lo + j,), minor, tail_step(m, d, j))


def membership_report(
    lat: Lattice,
    search_minimal_bases: bool = False,
    cos_sq_threshold: Fraction = PI_THIRD_COS_SQ,
) -> MembershipReport:
    """Decide in_weak and in_strict as far as the stored basis, the bounds and,
    on request, the minimal-basis search can.

    The search runs the verdict on the integer Gram of each basis of minimal
    vectors (`minimal_basis_subsets` with |det| = 1, in subset order) and
    stops once nothing is left undecided: at the first strict witness, which
    is also weak, or at the first weak witness when in_strict was decided
    before the search.  The search runs with in_strict decided only when the
    kissing number exceeds 3n, where no strict basis exists, so each witness
    reported is the first basis of its class.
    """
    if not is_well_rounded(lat):
        raise NotWellRounded(f"{lat.name!r} is not well-rounded")
    n = lat.rank
    mvs = minimal_vectors(lat)
    kiss = mvs.count
    thr = Fraction(cos_sq_threshold)
    stored = is_theta_orthogonal(lat, thr)
    bounded = thr <= PI_THIRD_COS_SQ
    reasons: list[str] = []
    in_weak: bool | None = True if stored.weakly else None
    in_strict: bool | None = True if stored.strictly else None
    if stored.weakly:
        reasons.append("stored basis is weakly nearly orthogonal")
    if stored.strictly:
        reasons.append("stored basis is nearly orthogonal under every ordering")

    if not bounded:
        reasons.append(f"threshold {thr} is above 1/4: the pi/3 bounds do not apply, only certificates decide")
    elif kiss > 4 * n - 2:
        in_weak, in_strict = False, False
        reasons.append(f"kissing number {kiss} exceeds 4n-2 = {4 * n - 2}")
    elif kiss > 3 * n and in_strict is None:
        in_strict = False
        reasons.append(f"kissing number {kiss} exceeds 3n = {3 * n}")
    # coherence below 1/2 with more than 2n minimal vectors excludes the
    # whole weak class; a weakly certified basis would force coherence 1/2
    if bounded and in_weak is None and kiss > 2 * n and coherence(lat).value < Fraction(1, 2):
        in_weak, in_strict = False, False
        reasons.append(f"coherence below 1/2 with kissing number {kiss} > 2n rules the class out")

    searched = False
    weak_witness = strict_witness = None
    if search_minimal_bases and (in_strict is None or in_weak is None):
        searched = True
        for subset, det in minimal_basis_subsets(lat):
            if det != 1:
                continue
            verdict = _verdict(gram_of_vectors(lat.int_gram, subset), thr)
            if verdict.weakly and weak_witness is None:
                weak_witness = subset
            if verdict.strictly:
                strict_witness = subset
                break
            if weak_witness is not None and in_strict is not None:
                break
        if in_strict is None and (bounded or strict_witness):
            # complete for the strict class: a nearly orthogonal basis
            # consists of minimal vectors, all of which were tried
            in_strict = strict_witness is not None
            found = "found a nearly orthogonal basis" if in_strict else "exhausted all minimal bases"
            reasons.append(f"minimal-basis search {found}")
        if in_weak is None and weak_witness is not None:
            in_weak = True
            reasons.append("minimal-basis search found a weakly nearly orthogonal basis")
        elif in_weak is None:
            reasons.append("weak class undecided: search over minimal bases is only a heuristic")

    return MembershipReport(
        stored_basis=stored,
        kissing_number=kiss,
        in_weak=in_weak,
        in_strict=in_strict,
        searched=searched,
        search_weak_witness=weak_witness,
        search_strict_witness=strict_witness,
        reasons=tuple(reasons),
    )
