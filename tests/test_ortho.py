import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wrlat import (
    DimensionGuardExceeded,
    RatMatrix,
    NotWellRounded,
    SubsetGuardExceeded,
    an_dual_frame,
    an_root,
    angle_profile,
    classification_report,
    hexagonal,
    hybrid,
    integer_lattice,
    is_theta_orthogonal,
    k3_prime,
    lattice_from_gram,
    lnm,
    membership_report,
    minimal_basis_subsets,
    reorder_basis,
    staircase,
)
from wrlat import minimal_vectors, ortho
from wrlat.ratlinalg import diagonal_pivots, gram_of_vectors

from conftest import disguise, from_sympy, schur_step, to_sympy

sympy = pytest.importorskip("sympy")

F = Fraction
QUARTER = F(1, 4)
THRESHOLDS = (F(0), F(1, 9), QUARTER, F(1, 3), F(1, 2), F(1))


def minor_cos_sq(lat, v, span):
    """cos^2 = 1 - det G_{S+v} / (det G_S g_vv), with sympy's determinants
    rather than the fraction-free steps of the package."""
    g = lat.gram

    def minor(idx):
        return _sympy_minor(g, tuple(sorted(idx)))

    return 1 - minor([*span, v]) / (minor(span) * g[v, v])


@lru_cache(maxsize=None)
def _sympy_minor(g, idx):
    """det G_SS for the sorted index tuple S (a principal minor does not depend on the order)."""
    return from_sympy(to_sympy([[g[i, j] for j in idx] for i in idx]).det()) if idx else F(1)


def cos_sq_after(lat, v, span):
    """cos^2 of b_v against span{b_i : i in span}: the profile entry of v in
    the ordering span + (v,) + rest, at index len(span) - 1."""
    rest = tuple(i for i in range(lat.rank) if i != v and i not in span)
    return angle_profile(lat, (*span, v, *rest)).cos_sq[len(span) - 1]


def is_weak_ordering(lat, ordering, threshold=QUARTER):
    return all(c <= threshold for c in angle_profile(lat, ordering).cos_sq)


def exhaustive_verdict(lat, threshold=QUARTER):
    """Oracle: replay all n! orderings without pruning or memoization."""
    n = lat.rank
    weakly, strictly = False, True
    for perm in permutations(range(n)):
        ok = all(minor_cos_sq(lat, perm[i], perm[:i]) <= threshold for i in range(1, n))
        weakly = weakly or ok
        strictly = strictly and ok
    return weakly, strictly


# --- angles to spans ---------------------------------------------------------


def test_orthogonal_direction_has_zero_angle():
    assert cos_sq_after(integer_lattice(3), 2, (0, 1)) == 0


def test_staircase3_last_vector_against_other_two():
    assert cos_sq_after(staircase(3), 0, (1, 2)) == F(2, 5)


def test_staircase3_prefix_angle():
    assert cos_sq_after(staircase(3), 2, (0, 1)) == QUARTER


@st.composite
def spd_lattices(draw, lo=2, hi=5, spread=2):
    """A lattice of rank lo-hi with a random SPD Gram L D L^T, |L_ij| <= spread."""
    n = draw(st.integers(lo, hi))
    ent = st.fractions(min_value=-spread, max_value=spread, max_denominator=4)
    pos = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)
    low = [[F(int(i == j)) if j >= i else draw(ent) for j in range(n)] for i in range(n)]
    diag = [draw(pos) for _ in range(n)]
    g = [[sum(low[i][k] * diag[k] * low[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    return lattice_from_gram("spd", g)


@st.composite
def spd_span_cases(draw):
    """A random SPD lattice, a vector index and a nonempty span avoiding it."""
    lat = draw(spd_lattices())
    v = draw(st.integers(0, lat.rank - 1))
    rest = [i for i in range(lat.rank) if i != v]
    span = draw(st.lists(st.sampled_from(rest), min_size=1, unique=True))
    return lat, v, span


@settings(max_examples=80, deadline=None)
@given(spd_span_cases())
def test_cos_sq_equals_projection_solve(case):
    lat, v, span = case
    g = lat.gram
    g_ss = RatMatrix.from_rows([[g[i, j] for j in span] for i in span])
    g_sv = [g[i, v] for i in span]
    x = [from_sympy(e) for e in to_sympy(g_ss.to_rows()).LUsolve(to_sympy([[e] for e in g_sv]))]
    want = sum(a * b for a, b in zip(g_sv, x)) / g[v, v]
    assert cos_sq_after(lat, v, span) == want


# --- profiles ----------------------------------------------------------------


def test_profile_integer_lattice_all_zero():
    prof = angle_profile(integer_lattice(4), (2, 0, 3, 1))
    assert prof.cos_sq == (F(0), F(0), F(0))


def test_profile_staircase3_identity():
    assert angle_profile(staircase(3), (0, 1, 2)).cos_sq == (QUARTER, QUARTER)


def test_profile_staircase3_rotated():
    assert angle_profile(staircase(3), (1, 2, 0)).cos_sq == (F(1, 16), F(2, 5))


@pytest.mark.parametrize("ordering", [(0, 1), (0, 1, 1), (0, 1, 3), (2, 1, 0, 0)])
def test_profile_rejects_an_ordering_that_is_not_a_permutation(ordering):
    with pytest.raises(ValueError, match="is not a permutation of 0..2"):
        angle_profile(staircase(3), ordering)


@pytest.mark.parametrize("threshold", [F(-1, 4), F(5, 4), 2])
def test_verdict_rejects_a_threshold_outside_0_1(threshold):
    with pytest.raises(ValueError, match=r"^threshold must be a squared cosine in \[0, 1\]$"):
        is_theta_orthogonal(staircase(3), threshold)


def test_profile_first_entries_invariant_under_prefix_shuffle():
    lat = staircase(4)
    base = angle_profile(lat, (0, 1, 2, 3)).cos_sq
    swapped = angle_profile(lat, (1, 0, 2, 3)).cos_sq
    assert base[1:] == swapped[1:]  # entries beyond the shuffled prefix agree


# --- weak orderings ----------------------------------------------------------


def test_staircase_identity_ordering_is_weak():
    for n in range(2, 9):
        assert is_weak_ordering(staircase(n), tuple(range(n)))


def test_staircase3_rotated_ordering_fails():
    assert not is_weak_ordering(staircase(3), (1, 2, 0))


def test_trivial_threshold_accepts_everything():
    assert is_weak_ordering(staircase(3), (1, 2, 0), threshold=F(1))


# --- all-orderings verdicts ----------------------------------------------------


def test_block_family_is_strict():
    for n in range(2, 8):
        for m in range(0, n // 2 + 1):
            assert is_theta_orthogonal(lnm(n, m)).strictly, (n, m)


def test_staircase3_weak_but_not_strict():
    verdict = is_theta_orthogonal(staircase(3))
    assert verdict.weakly and not verdict.strictly
    assert verdict.witness_ordering is not None
    assert is_weak_ordering(staircase(3), verdict.witness_ordering)
    v = verdict.violation
    assert v is not None
    # replay: the reported level of the reported ordering breaks the threshold
    prof = angle_profile(staircase(3), v.ordering)
    assert prof.cos_sq[v.level - 1] == v.cos_sq > QUARTER


def test_k3_prime_weak_but_not_strict(k3):
    verdict = is_theta_orthogonal(k3)
    assert verdict.weakly and not verdict.strictly


def test_hybrid_weak_but_not_strict():
    verdict = is_theta_orthogonal(hybrid(5, 1))
    assert verdict.weakly and not verdict.strictly


def test_frame_basis_not_even_weak():
    verdict = is_theta_orthogonal(an_dual_frame(3))
    assert not verdict.weakly and not verdict.strictly
    assert verdict.witness_ordering is None


def test_verdict_matches_exhaustive_replay():
    lats = [
        integer_lattice(3),
        hexagonal(),
        staircase(3),
        staircase(4),
        staircase(5),
        k3_prime(),
        lnm(4, 2),
        lnm(5, 1),
        hybrid(5, 1),
        an_dual_frame(3),
        an_dual_frame(4),
    ]
    for lat in lats:
        verdict = is_theta_orthogonal(lat)
        weakly, strictly = exhaustive_verdict(lat)
        assert (verdict.weakly, verdict.strictly) == (weakly, strictly), lat.name


# rank 3, with exactly one vector, b_0, b_1 or b_2, beyond the threshold of
# the span of the other two: each of the n cofactors decides strictness
ONE_COFACTOR_FAILS = (
    [[2, -1, -1], [-1, 2, F(1, 2)], [-1, F(1, 2), 2]],
    [[2, 1, F(1, 4)], [1, 2, F(1, 2)], [F(1, 4), F(1, 2), 2]],
    [[2, F(-1, 4), -1], [F(-1, 4), 2, F(1, 2)], [-1, F(1, 2), 2]],
)


@settings(max_examples=60, deadline=None)
@given(spd_lattices(), st.sampled_from(THRESHOLDS))
@example(lattice_from_gram("b0-out", ONE_COFACTOR_FAILS[0]), QUARTER)
@example(lattice_from_gram("b1-out", ONE_COFACTOR_FAILS[1]), QUARTER)
@example(lattice_from_gram("b2-out", ONE_COFACTOR_FAILS[2]), QUARTER)
def test_verdict_matches_oracle_on_random_grams(lat, thr):
    verdict = is_theta_orthogonal(lat, thr)
    assert (verdict.weakly, verdict.strictly) == exhaustive_verdict(lat, thr)
    assert (verdict.witness_ordering is not None) == verdict.weakly
    if verdict.weakly:
        w = verdict.witness_ordering
        assert all(c <= thr for c in angle_profile(lat, w).cos_sq)
        assert all(minor_cos_sq(lat, w[i], w[:i]) <= thr for i in range(1, lat.rank))
    v = verdict.violation
    assert (v is None) == verdict.strictly
    if v is not None:
        assert angle_profile(lat, v.ordering).cos_sq[v.level - 1] == v.cos_sq > thr
        prefix, vec = v.ordering[: v.level], v.ordering[v.level]
        assert minor_cos_sq(lat, vec, prefix) == v.cos_sq


@settings(max_examples=60, deadline=None)
@given(spd_lattices(), st.sampled_from(THRESHOLDS))
def test_witness_and_violation_are_the_first_by_definition(lat, thr):
    # replay the definition by brute force: the witness is the first
    # in-threshold permutation, the violation the least (level, prefix set, v)
    n = lat.rank

    def first_ordering(subset):
        for perm in permutations(sorted(subset)):
            if all(minor_cos_sq(lat, perm[i], perm[:i]) <= thr for i in range(1, len(perm))):
                return perm
        return None

    verdict = is_theta_orthogonal(lat, thr)
    assert verdict.witness_ordering == first_ordering(range(n))
    violating = (  # in (level, sorted prefix set, v) order, so the first is the least
        (chain, v)
        for level in range(n)
        for prefix in combinations(range(n), level)
        if (chain := first_ordering(prefix)) is not None
        for v in range(n)
        if v not in prefix and minor_cos_sq(lat, v, prefix) > thr
    )
    least = next(violating, None)
    if least is None:
        assert verdict.violation is None
    else:
        chain, v = least
        rest = tuple(w for w in range(n) if w != v and w not in chain)
        assert verdict.violation.ordering == chain + (v,) + rest
        assert verdict.violation.level == len(chain)
        assert verdict.violation.cos_sq == minor_cos_sq(lat, v, chain)


def counting_tail_steps():
    """Patch the `tail_step` the ortho module calls, counting its calls."""
    return mock.patch.object(ortho, "tail_step", wraps=ortho.tail_step)


@pytest.mark.parametrize("lat, steps", [(staircase(9), 16), (lnm(9, 4), 36), (an_dual_frame(9), None)])
def test_verdict_makes_one_tail_step_per_subset_below_the_last_index(lat, steps):
    # d_{S+v} is read from the tail of S + v less its largest index, which
    # never holds n - 1: at most 2^(n-1) - 1 steps.  L(9,4) is strict, so its
    # n cofactors decide; staircase(9) is weak with a violation at level 2;
    # stored A9*'s violation lies at level 7, so the scan reads most subsets
    with counting_tail_steps() as counted:
        is_theta_orthogonal(lat)
    assert counted.call_count <= 2 ** (lat.rank - 1) - 1
    assert steps is None or counted.call_count == steps


def reference_verdict(a, thr):
    """Reference level pass: each reachable mask S keeps its full residual
    M_S, and reaching S + v is one `schur_step`."""
    n = len(a)
    p, q = thr.numerator, thr.denominator
    violation = None
    level = {0: ((), 1, a)}
    for size in range(n):
        nxt = {}
        for mask, (chain, d, m) in level.items():
            outside = [w for w in range(n) if not mask >> w & 1]
            for pos, v in enumerate(outside):
                if (q - p) * d * a[v][v] > q * m[pos][pos]:
                    if violation is None:
                        ordering = chain + (v,) + tuple(w for w in outside if w != v)
                        violation = ortho.OrthoViolation(ordering, size, 1 - F(m[pos][pos], d * a[v][v]))
                elif mask | 1 << v not in nxt:
                    nxt[mask | 1 << v] = chain + (v,), m[pos][pos], schur_step(m, d, pos, pos)
        level = nxt
    full = (1 << n) - 1
    witness = level[full][0] if full in level else None
    return ortho.OrthoVerdict(witness is not None, violation is None, witness, violation)


RANK_12_LATTICES = {
    "staircase(12)": staircase(12),
    "A12*": an_dual_frame(12),
    "L(12,6)": lnm(12, 6),
    "hybrid(12,5)~": disguise(hybrid(12, 5), [(i, i + 1, (-1) ** i) for i in range(11)])[0],
    "A12": an_root(12),
    "Z^12": integer_lattice(12),
}


@pytest.mark.parametrize("thr", [QUARTER, F(1, 2)])
@pytest.mark.parametrize("name", list(RANK_12_LATTICES))
def test_rank_12_verdict_matches_the_reference_level_pass(name, thr):
    lat = RANK_12_LATTICES[name]
    assert is_theta_orthogonal(lat, thr) == reference_verdict(lat.int_gram, thr)


RANK_6_TO_8_FAMILY = (
    *(staircase(n) for n in (6, 7, 8)),
    lnm(7, 2),
    lnm(8, 4),
    hybrid(7, 2),
    hybrid(8, 2),
    an_root(7),
    an_dual_frame(6),
    an_dual_frame(8),
    integer_lattice(8),
)


@st.composite
def rank_6_to_8_lattices(draw):
    """A random SPD lattice of rank 6-8, or a family lattice of that rank with
    its basis reordered or in the basis of n random moves b_j += s b_i."""
    kind = draw(st.sampled_from(("spd", "reordered", "disguised")))
    if kind == "spd":
        return draw(spd_lattices(6, 8, draw(st.sampled_from((F(1, 2), 2)))))
    lat = draw(st.sampled_from(RANK_6_TO_8_FAMILY))
    if kind == "reordered":
        return reorder_basis(lat, draw(st.permutations(range(lat.rank))))
    moves = [(*draw(st.permutations(range(lat.rank)))[:2], draw(st.sampled_from((1, -1)))) for _ in range(lat.rank)]
    return disguise(lat, moves)[0]


@settings(max_examples=60, deadline=None)
@given(rank_6_to_8_lattices(), st.sampled_from([F(0), F(1, 10), QUARTER, F(1, 2), F(1)]))
@example(an_dual_frame(8), QUARTER)  # the violation lies at level 7 of 8
@example(reorder_basis(staircase(8), (3, 0, 5, 1, 6, 2, 4, 7)), QUARTER)  # witness (1, 3, 5, 0, 6, 2, 4, 7)
def test_verdict_equals_the_reference_level_pass_at_ranks_6_to_8(lat, thr):
    want = reference_verdict(lat.int_gram, thr)
    assert is_theta_orthogonal(lat, thr).to_json_dict() == want.to_json_dict()


def test_verdict_refuses_ranks_above_the_enumeration_guard():
    with pytest.raises(DimensionGuardExceeded, match=r"^rank 13 exceeds the orderings guard 12$"):
        is_theta_orthogonal(integer_lattice(13))


def test_verdict_invariant_under_reordering():
    lat = staircase(4)
    base = is_theta_orthogonal(lat)
    for perm in ((1, 0, 3, 2), (3, 2, 1, 0), (2, 0, 3, 1)):
        moved = is_theta_orthogonal(reorder_basis(lat, perm))
        assert (moved.weakly, moved.strictly) == (base.weakly, base.strictly)


def test_strict_basis_vectors_are_minimal():
    # with unit Gram and a strict verdict, every basis vector attains the norm
    for lat in (lnm(4, 2), lnm(5, 2), hexagonal()):
        assert is_theta_orthogonal(lat).strictly
        pairs = set(minimal_vectors(lat).pairs)
        for i in range(lat.rank):
            e = tuple(int(j == i) for j in range(lat.rank))
            assert e in pairs


def test_rank_one_verdict():
    verdict = is_theta_orthogonal(integer_lattice(1))
    assert verdict.weakly and verdict.strictly


def test_verdict_json_shape():
    d = is_theta_orthogonal(staircase(3)).to_json_dict()
    assert set(d) == {"weakly", "strictly", "witness", "violation"}
    assert d["violation"]["cos_sq"] == "2/5"


# --- membership --------------------------------------------------------------


def test_membership_requires_well_rounded():
    with pytest.raises(NotWellRounded):
        membership_report(lattice_from_gram("diag", [[1, 0], [0, 4]]))


def test_membership_a3_root_excluded_by_kissing_count():
    report = membership_report(an_root(3))
    assert report.kissing_number == 12
    assert report.in_weak is False and report.in_strict is False
    assert not report.searched  # the bound already decides, no search needed


def test_membership_frame3_excluded_by_coherence_rule():
    report = membership_report(an_dual_frame(3))
    # C = 1/3 < 1/2 with 8 > 6 minimal vectors rules the whole class out
    assert report.in_weak is False and report.in_strict is False


def test_membership_hexagonal_strict():
    report = membership_report(hexagonal())
    assert report.in_strict is True and report.in_weak is True


def test_membership_k3_prime_excluded_from_strict_class(k3):
    report = membership_report(k3)
    assert report.in_weak is True
    assert report.in_strict is False  # 10 minimal vectors exceed 3n = 9
    assert any("3n" in r for r in report.reasons)


def test_membership_staircase3_excluded_from_strict_class():
    report = membership_report(staircase(3))
    assert report.in_weak is True and report.in_strict is False


@pytest.mark.parametrize("theta", [F(1, 2), F(1, 3)], ids=str)
def test_membership_above_one_quarter_is_decided_by_certificates_only(theta):
    # the 4n-2 and 3n bounds, the coherence rule and the completeness of the
    # minimal-basis search are pi/3 results; A3's 12 minimal vectors exceed
    # 4n-2 = 10, yet it has a basis in threshold under every ordering here
    report = membership_report(an_root(3), cos_sq_threshold=theta)
    assert (report.in_weak, report.in_strict) == (True, True)
    assert not any("kissing" in r or "coherence" in r for r in report.reasons)
    assert f"threshold {theta} is above 1/4: the pi/3 bounds do not apply, only certificates decide" in report.reasons
    # with no strict certificate, the exhausted search leaves in_strict null
    report = membership_report(staircase(3), cos_sq_threshold=F(1, 3))
    assert (report.in_weak, report.in_strict) == (True, None)


@pytest.mark.parametrize(
    "lat,theta,want",
    [
        (an_root(3), QUARTER, (False, False, ("kissing number 12 exceeds 4n-2 = 10",))),
        (an_root(3), F(1, 10), (False, False, ("kissing number 12 exceeds 4n-2 = 10",))),
        (staircase(3), QUARTER, (True, False, ("stored basis is weakly nearly orthogonal", "kissing number 10 exceeds 3n = 9"))),
        (
            staircase(3),
            F(1, 10),
            (None, False, ("kissing number 10 exceeds 3n = 9", "weak class undecided: search over minimal bases is only a heuristic")),
        ),
    ],
    ids=["A3-1/4", "A3-1/10", "staircase3-1/4", "staircase3-1/10"],
)
def test_membership_at_or_below_one_quarter_applies_the_bounds(lat, theta, want):
    report = membership_report(lat, cos_sq_threshold=theta)
    assert (report.in_weak, report.in_strict, report.reasons) == want


def test_membership_searches_by_default_where_a_class_is_open():
    # L(3,1) after three moves: the stored basis is not weakly orthogonal and
    # no bound decides, so the search runs with no keyword and certifies both
    lat, _ = disguise(lnm(3, 1), [(0, 1, 1), (1, 2, 1), (2, 0, -1)])
    report = membership_report(lat)
    assert not report.stored_basis.weakly
    assert (report.in_weak, report.in_strict, report.searched) == (True, True, True)


def test_membership_search_finds_hidden_orthogonal_basis():
    # the hexagonal lattice presented in a skewed basis (b1, b1+b2): the
    # stored basis is not even weakly orthogonal, but the search over bases
    # of minimal vectors certifies both classes
    skew = lattice_from_gram("hex-skew", [[1, F(3, 2)], [F(3, 2), 3]])
    report = membership_report(skew)
    assert not report.stored_basis.weakly
    assert report.searched
    assert report.in_strict is True and report.in_weak is True
    assert report.search_strict_witness is not None


def test_membership_when_no_minimal_basis_is_unimodular():
    # Z^5 glued by (1, 1, 1, 1, 1) / 2: its 5 minimal pairs span a sublattice
    # of index 2, so the one spanning subset is skipped, the strict class is
    # excluded, and the weak class stays undecided
    h = F(1, 2)
    lat = lattice_from_gram("Z5+glue", [[int(i == j) for j in range(4)] + [h] for i in range(4)] + [[h] * 4 + [F(5, 4)]])
    pairs = minimal_vectors(lat).pairs
    assert len(pairs) == 5
    assert list(minimal_basis_subsets(lat)) == [(pairs, 2)]
    report = membership_report(lat)
    assert (report.in_weak, report.in_strict) == (None, False)
    assert (report.search_weak_witness, report.search_strict_witness) == (None, None)
    assert report.reasons == (
        "minimal-basis search exhausted all minimal bases",
        "weak class undecided: search over minimal bases is only a heuristic",
    )


def test_minimal_basis_subsets_spanning_dets():
    for lat in (lnm(4, 2), hexagonal(), lnm(6, 3)):
        seen = 0
        for subset, det in minimal_basis_subsets(lat):
            assert abs(det) == 1
            seen += 1
        assert seen > 0


def disguised(lat, u):
    """The lattice in the basis b U, for an integer unimodular U given by rows."""
    n, g = lat.rank, lat.gram
    rows = [[sum(u[a][i] * g[a, b] * u[b][j] for a in range(n) for b in range(n)) for j in range(n)] for i in range(n)]
    return lattice_from_gram(f"{lat.name}~", rows)


def bidiagonal(n):
    """b_j <- b_j + b_{j-1}: unimodular, and it skews every basis vector but the first."""
    return [[int(j in (i, i + 1)) for j in range(n)] for i in range(n)]


D4_CARTAN = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]


@pytest.mark.parametrize(
    "lat, dets", [(lattice_from_gram("D4", D4_CARTAN), {1, 2}), (disguised(staircase(4), bidiagonal(4)), {1})]
)
def test_minimal_basis_subsets_dets_match_sympy(lat, dets):
    want = []
    for subset in combinations(minimal_vectors(lat).pairs, lat.rank):
        det = abs(int(sympy.Matrix(subset).det()))
        if det:
            want.append((subset, det))
    assert list(minimal_basis_subsets(lat)) == want
    assert {d for _, d in want} == dets  # D4 has subsets of index 2


def reference_subsets(lat):
    """Reference search: every n-subset of pairs in `combinations` order,
    |det| from `diagonal_pivots` on its principal submatrix of the pair Gram."""
    pairs = minimal_vectors(lat).pairs
    sg = lat.int_gram
    det_sg = diagonal_pivots(sg)[0][-1]
    a = gram_of_vectors(sg, pairs)
    for idx in combinations(range(len(pairs)), lat.rank):
        minors, _ = diagonal_pivots([[a[i][j] for j in idx] for i in idx])
        if minors[-1] > 0:
            yield tuple(pairs[i] for i in idx), math.isqrt(minors[-1] // det_sg)


# rank <= 5, each with n-subsets of minimal pairs that do not span
DEPENDENT_PAIR_FAMILY = (
    an_root(3),
    an_root(4),
    lattice_from_gram("D4", D4_CARTAN),
    k3_prime(),
    lnm(3, 1),
    lnm(4, 2),
    lnm(5, 2),
    hybrid(5, 1),
    hybrid(5, 2),
    staircase(4),
)


@st.composite
def disguised_dependent_pairs(draw):
    lat = draw(st.sampled_from(DEPENDENT_PAIR_FAMILY))
    moves = []
    for _ in range(draw(st.integers(1, 2 * lat.rank))):
        i, j = draw(st.permutations(range(lat.rank)))[:2]
        moves.append((i, j, draw(st.sampled_from((1, -1)))))
    return disguise(lat, moves)[0]


@settings(max_examples=40, deadline=None)
@given(disguised_dependent_pairs())
@example(lattice_from_gram("D4", D4_CARTAN))  # subsets of index 2
@example(disguised(hybrid(5, 2), bidiagonal(5)))
def test_depth_first_search_matches_the_reference(lat):
    want = list(reference_subsets(lat))
    assert list(minimal_basis_subsets(lat)) == want
    assert len(want) < math.comb(len(minimal_vectors(lat).pairs), lat.rank)


def test_search_makes_tail_steps_only_for_what_is_taken():
    lat = hybrid(8, 2)
    with counting_tail_steps() as counted:
        next(minimal_basis_subsets(lat))
    first = counted.call_count
    with counting_tail_steps() as counted:
        everything = list(minimal_basis_subsets(lat))
    # the first subset costs one step per pair but the last; exhausting the
    # 432 spanning subsets of C(16, 8) = 12870 costs 1875
    assert (first, counted.call_count, len(everything)) == (7, 1875, 432)


def test_search_stops_at_the_first_weak_witness_when_strict_is_decided(monkeypatch):
    # kissing number 18 > 3n = 15 decides in_strict = False before the search,
    # so the first weakly nearly orthogonal basis decides everything left
    lat = disguised(hybrid(5, 2), bidiagonal(5))
    everything = list(minimal_basis_subsets(lat))
    first = next(
        i for i, (subset, det) in enumerate(everything)
        if det == 1 and is_theta_orthogonal(lattice_from_gram("b", ortho.gram_of_vectors(lat.int_gram, subset))).weakly
    )
    consumed, real = [], ortho.minimal_basis_subsets

    def counting(lat):
        for item in real(lat):
            consumed.append(item)
            yield item

    monkeypatch.setattr(ortho, "minimal_basis_subsets", counting)
    report = membership_report(lat)
    assert report.kissing_number == 18 and not report.stored_basis.weakly
    assert (report.in_weak, report.in_strict) == (True, False)
    assert report.search_weak_witness == everything[first][0]
    assert report.search_strict_witness is None
    assert consumed == everything[: first + 1] and first + 1 < len(everything)


def test_minimal_basis_subsets_guard_counts_subsets_taken(monkeypatch):
    # A8 has 36 minimal pairs, so C(36, 8) = 30260340 candidate subsets; the
    # walk is lazy, so the guard counts the spanning subsets it yields
    subset, det = next(minimal_basis_subsets(an_root(8)))
    assert len(subset) == 8 and det >= 1
    monkeypatch.setattr(ortho, "SUBSET_GUARD", 10)
    walk = minimal_basis_subsets(an_root(8))
    assert len([next(walk) for _ in range(10)]) == 10
    with pytest.raises(SubsetGuardExceeded, match=r"^more than 10 spanning subsets of 36 minimal pairs$"):
        next(walk)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "lat", [staircase(10), staircase(11), staircase(12), hybrid(11, 4), hybrid(12, 5)], ids=lambda lat: lat.name
)
def test_disguised_rank_10_12_membership_is_decided(lat, seed):
    # C(k, n) is 92378 to 1352078 here, above the subset guard, but the
    # search finds a weakly nearly orthogonal basis within its first subsets
    n = lat.rank
    rng = random.Random(seed)
    case = disguise(lat, [(*rng.sample(range(n), 2), rng.choice((1, -1))) for _ in range(n)])[0]
    got = classification_report(case)
    assert got.warnings == ()
    assert (got.fields["in_weak"], got.fields["in_strict"]) == (True, False)
    assert got.fields["basis_verdict"] is not None
    want = classification_report(lat).fields
    # the invariants of the lattice, as its stored basis reports them
    for key in ("norm_sq", "kissing_number", "coherence", "avg_coherence", "det_gram", "delta_sq_exact"):
        assert got.fields[key] == want[key], key
    assert (got.fields["eutaxy_class"], got.fields["perfect"]) == (want["eutaxy_class"], want["perfect"])


def test_frame3_exclusion_confirmed_by_exhaustive_search():
    # dual route to the coherence rule: literally every basis made of
    # minimal vectors of the rank-3 frame lattice fails weak orthogonality
    from wrlat.ratlinalg import gram_of_vectors

    lat = an_dual_frame(3)
    bases = 0
    for subset, det in minimal_basis_subsets(lat):
        if abs(det) != 1:
            continue
        cand = lattice_from_gram("b", gram_of_vectors(lat.int_gram, subset))
        assert not is_theta_orthogonal(cand).weakly
        bases += 1
    assert bases == 4  # any 3 of the 4 frame pairs span


def test_strict_certificate_forces_minimal_basis_vectors():
    # unit Gram + strict verdict means every basis vector is a shortest one
    from wrlat.constructions import strict_family_lattices

    for lat in strict_family_lattices(7):
        assert is_theta_orthogonal(lat).strictly
        pairs = set(minimal_vectors(lat).pairs)
        for i in range(lat.rank):
            e = tuple(int(j == i) for j in range(lat.rank))
            assert e in pairs, (lat.name, i)
