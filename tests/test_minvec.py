import gc
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wrlat import (
    DimensionGuardExceeded,
    Lattice,
    MinimalVectorSet,
    PairCountGuardExceeded,
    an_dual_frame,
    an_root,
    average_coherence,
    brute_force_min_vectors,
    coherence,
    coxeter_barnes,
    direct_sum,
    eutaxy_classify,
    hexagonal,
    integer_lattice,
    is_perfect,
    is_well_rounded,
    k3_prime,
    lattice_from_gram,
    lnm,
    minimal_norm_sq,
    minimal_vectors,
    packing_density,
    planar_wr,
    principal_sublattice,
    scale_gram,
    staircase,
    hybrid,
)
from wrlat import minvec, verify
from wrlat.minvec import _canonical_pair, _pair_reduce, _shortest
from wrlat.ratlinalg import diagonal_pivots, int_rank

from conftest import Z4_TOPS_MISS_A_LEVEL, disguise, hex_plus_2, positive_definite_integer, quad_form

F = Fraction


def rank_le_5_family():
    lats = [integer_lattice(n) for n in (1, 2, 3)]
    lats += [hexagonal(), k3_prime()]
    lats += [lnm(n, m) for n in range(2, 6) for m in range(0, n // 2 + 1)]
    lats += [staircase(n) for n in range(2, 6)]
    lats += [hybrid(n, m) for n in (3, 4, 5) for m in range(1, ((n - 2) // 2 if n % 2 == 0 else (n - 1) // 2) + 1)]
    lats += [an_root(n) for n in range(2, 6)]
    lats += [an_dual_frame(n) for n in range(2, 6)]
    lats += [planar_wr(F(1, 10), 2).lattice, planar_wr(F(1, 2), 1).lattice]
    return lats


def rank_le_8_family():
    lats = rank_le_5_family() + [staircase(n) for n in (6, 7, 8)] + [lnm(7, 2), lnm(8, 4), hybrid(8, 2)]
    lats += [an_root(7), an_root(8), an_dual_frame(7), an_dual_frame(8), coxeter_barnes(7, 4)]
    return lats + [lattice_from_gram("E8", e8_gram())]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def e8_gram():
    """The Cartan matrix of E8: 240 roots of norm 2."""
    g = [[2 * int(i == j) for j in range(8)] for i in range(8)]
    for i, j in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)]:
        g[i][j] = g[j][i] = -1
    return g


def test_min_norm_integer_lattice():
    for n in (1, 3, 6):
        assert minimal_norm_sq(integer_lattice(n)) == 1


def test_min_norm_root_lattices():
    for n in (2, 3, 4, 5):
        lat = an_root(n)
        # oracle: exhaustive box scan
        assert brute_force_min_vectors(lat, box=2).norm_sq == 2
        assert minimal_norm_sq(lat) == 2


def test_min_norm_planar_17():
    lat = lattice_from_gram("p17", [[17, 1], [1, 17]])
    assert brute_force_min_vectors(lat, box=3).norm_sq == 17
    assert minimal_norm_sq(lat) == 17


def test_minimal_vectors_hexagonal():
    mvs = minimal_vectors(hexagonal())
    assert mvs.pairs == ((0, 1), (1, -1), (1, 0))
    assert mvs.count == 6


def test_minimal_vectors_block_family_counts():
    for n in range(2, 9):
        for m in range(0, n // 2 + 1):
            assert minimal_vectors(lnm(n, m)).count == 2 * (n + m), (n, m)


def test_minimal_vectors_staircase4():
    assert minimal_vectors(staircase(4)).count == 14


def test_staircase3_has_five_pairs():
    mvs = brute_force_min_vectors(staircase(3), box=3)
    assert len(mvs.pairs) == 5 and mvs.count == 10
    assert minimal_vectors(staircase(3)).pairs == mvs.pairs


def test_well_rounded_integer_lattice():
    assert is_well_rounded(integer_lattice(4))


def test_not_well_rounded_stretched():
    assert not is_well_rounded(lattice_from_gram("diag14", [[1, 0], [0, 4]]))


def test_family_lattices_well_rounded():
    for lat in rank_le_5_family():
        assert is_well_rounded(lat), lat.name


def test_brute_force_z3():
    mvs = brute_force_min_vectors(integer_lattice(3), box=1)
    assert mvs.pairs == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_suite_oracle_scans_certified_boxes_of_1(monkeypatch):
    seen = []
    monkeypatch.setattr(verify, "brute_force_min_vectors", lambda *args: seen.append(args) or brute_force_min_vectors(*args))
    verify._check_enumerator_oracle(8)
    assert len(seen) == 29 and all(box == 1 == minvec.certified_box(lat) for lat, box in seen)
    for lat, box in seen:  # box 4 finds nothing that box 1 misses
        assert brute_force_min_vectors(lat, box) == brute_force_min_vectors(lat, 4), lat.name


def test_certified_box_pins():
    # b_1 = 3 b_0 + e_1 in Z^2: the minimal vector e_1 = b_1 - 3 b_0 needs box 3, at any scale
    for k in (1, 4):
        lat = lattice_from_gram("skewed", [[k, 3 * k], [3 * k, 10 * k]])
        assert minvec.certified_box(lat) == 3 and minimal_vectors(lat).pairs == ((1, 0), (3, -1))
    assert minvec.certified_box(integer_lattice(1)) == minvec.certified_box(lattice_from_gram("r1", [[F(7, 2)]])) == 1


def test_enumerator_matches_oracle_on_rank_le_5():
    for lat in rank_le_5_family():
        fast = minimal_vectors(lat)
        slow = brute_force_min_vectors(lat, box=4)
        assert fast.norm_sq == slow.norm_sq, lat.name
        assert fast.pairs == slow.pairs, lat.name


def test_minimal_vectors_canonical_form():
    for lat in (staircase(4), k3_prime(), an_dual_frame(4)):
        mvs = minimal_vectors(lat)
        assert list(mvs.pairs) == sorted(mvs.pairs)
        for u in mvs.pairs:
            first = next(x for x in u if x != 0)
            assert first > 0
            assert quad_form(lat, u) == mvs.norm_sq
        # no duplicated pair up to sign
        assert len({u for u in mvs.pairs}) == len(mvs.pairs)


def test_weak_class_upper_bound_4n_minus_2():
    from wrlat import is_theta_orthogonal

    for n in range(2, 8):
        for lat in [staircase(n)] + [lnm(n, m) for m in range(n // 2 + 1)]:
            if is_theta_orthogonal(lat).weakly:
                assert minimal_vectors(lat).count <= 4 * n - 2, lat.name


def test_strict_class_upper_bound_3n():
    from wrlat import is_theta_orthogonal

    for n in range(2, 8):
        for m in range(n // 2 + 1):
            lat = lnm(n, m)
            if is_theta_orthogonal(lat).strictly:
                assert minimal_vectors(lat).count <= 3 * n, lat.name


def test_direct_sum_union_when_norms_match():
    a, b = staircase(3), hexagonal()
    s = direct_sum(a, b)
    mvs = minimal_vectors(s)
    assert mvs.count == minimal_vectors(a).count + minimal_vectors(b).count
    left = {u[:3] for u in mvs.pairs if any(u[3:])} - {(0, 0, 0)}
    assert left == set()  # no minimal vector mixes the two summands


def test_pairwise_angle_bound():
    # any two distinct non-opposite minimal vectors meet at 60..120 degrees
    for lat in (hexagonal(), staircase(4), k3_prime(), an_dual_frame(3)):
        mvs = minimal_vectors(lat)
        n = lat.rank
        for i, u in enumerate(mvs.pairs):
            gu = [sum(lat.gram[a, b] * u[a] for a in range(n)) for b in range(n)]
            for w in mvs.pairs[i + 1 :]:
                dot = sum(gu[b] * w[b] for b in range(n))
                assert 4 * dot * dot <= mvs.norm_sq**2, (lat.name, u, w)


def test_dimension_guard():
    with pytest.raises(DimensionGuardExceeded):
        minimal_norm_sq(integer_lattice(13))
    with pytest.raises(DimensionGuardExceeded):
        minimal_vectors(integer_lattice(13))


def test_pair_count_guard(monkeypatch):
    monkeypatch.setattr(minvec, "PAIR_GUARD_FACTOR", 0)
    with pytest.raises(PairCountGuardExceeded):
        minimal_vectors(an_root(4))


def test_brute_force_box_guard():
    with pytest.raises(DimensionGuardExceeded):
        brute_force_min_vectors(integer_lattice(12), box=10**3)
    with pytest.raises(ValueError, match="box must be >= 1"):
        brute_force_min_vectors(integer_lattice(2), box=0)


def test_brute_force_guard_counts_every_point():
    # 4^9 is under the guard, but the box [-4, 4]^9 holds 9^9 points
    with pytest.raises(DimensionGuardExceeded, match="387420489 points"):
        brute_force_min_vectors(integer_lattice(9), box=4)


# --- one enumeration per Gram -------------------------------------------------


@st.composite
def disguised_family_lattices(draw, family=rank_le_5_family(), steps=(1, -1), moves_per_rank=2):
    lat = draw(st.sampled_from(family))
    n = lat.rank
    moves = []
    if n > 1:
        for _ in range(draw(st.integers(1, moves_per_rank * n))):
            i, j = draw(st.permutations(range(n)))[:2]
            moves.append((i, j, draw(st.sampled_from(steps))))
    return lat, moves


deep_disguises = disguised_family_lattices(rank_le_8_family(), (1, -1, 2, -2), 4)


@settings(max_examples=60, deadline=None)
@given(deep_disguises)
def test_enumeration_is_basis_invariant(case):
    lat, moves = case
    disguised, u = disguise(lat, moves)
    want = minimal_vectors(lat)
    got = minimal_vectors(disguised)
    assert got.norm_sq == want.norm_sq == minimal_norm_sq(disguised)
    assert got.count == want.count
    for w in got.pairs:
        assert quad_form(disguised, w) == got.norm_sq
    # the pairs map back to the undisguised ones through U
    back = {_canonical_pair(tuple(sum(a * b for a, b in zip(r, w)) for r in u)) for w in got.pairs}
    assert back == set(want.pairs)
    assert all(abs(x) <= minvec.certified_box(disguised) for w in got.pairs for x in w)
    n = lat.rank
    if n <= 4:
        # the stored basis's smallest norm bounds the minimum independently of
        # the enumerator; deep disguises can put the box past this budget
        box = minvec.certified_box(disguised, min(lat.gram[i, i] for i in range(n)))
        if (2 * box + 1) ** n <= 50_000:
            assert got == brute_force_min_vectors(disguised, box)


@settings(max_examples=60, deadline=None)
@given(deep_disguises)
def test_pair_reduce_is_a_unimodular_congruence(case):
    lat, moves = case
    a = disguise(lat, moves)[0].int_gram
    red, t = _pair_reduce(a)
    n = len(a)
    assert diagonal_pivots([[sum(map(math.prod, zip(r, q))) for q in t] for r in t])[0][-1] == 1  # det(T)^2
    ta = [[sum(r[k] * a[k][j] for k in range(n)) for j in range(n)] for r in t]
    assert [[sum(map(math.prod, zip(r, q))) for q in t] for r in ta] == red
    assert [red[i][i] for i in range(n)] == sorted(red[i][i] for i in range(n))
    assert all(2 * abs(red[i][j]) <= red[j][j] for i in range(n) for j in range(n) if i != j)
    assert _pair_reduce(red) == (red, identity(n))


@settings(max_examples=60, deadline=None)
@given(disguised_family_lattices())
def test_pair_layer_is_basis_invariant(case):
    lat, moves = case
    disguised, _ = disguise(lat, moves)
    assert disguised.det_gram() == lat.det_gram()
    assert is_well_rounded(disguised) == is_well_rounded(lat)
    assert packing_density(disguised) == packing_density(lat)
    if len(minimal_vectors(lat).pairs) >= 2:
        assert coherence(disguised).value == coherence(lat).value
        assert average_coherence(disguised) == average_coherence(lat)
    if is_well_rounded(lat):
        assert eutaxy_classify(disguised).klass == eutaxy_classify(lat).klass
        assert is_perfect(disguised) == is_perfect(lat)


def e8_plus_z_disguised():
    """E8 (+) Z stored with b_8 += b_0: every diagonal entry is at least 2,
    the norm-2 shell holds the 120 root pairs of E8, and the minimum is 1."""
    g = e8_gram()
    for row in g:
        row.append(0)
    g.append([0] * 8 + [1])
    return disguise(lattice_from_gram("e8+z", g), [(0, 8, 1)])[0]


def test_pair_reduce_undoes_the_disguise():
    lat = e8_plus_z_disguised()
    assert min(lat.gram[i, i] for i in range(9)) == 2
    red, t = _pair_reduce(lat.int_gram)
    assert t != identity(9) and [red[i][i] for i in range(9)] == [1] + [2] * 8
    assert minimal_vectors(lat).pairs == ((1, 0, 0, 0, 0, 0, 0, 0, -1),)


def test_pair_reduce_orders_a_reduced_basis_by_a_permutation():
    a = [[4, 1, 0], [1, 2, 0], [0, 0, 3]]
    assert _pair_reduce(a) == ([[2, 0, 1], [0, 3, 0], [1, 0, 4]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert minimal_vectors(lattice_from_gram("unsorted", a)).pairs == ((0, 1, 0),)


def e8_a2_plus_short_diagonal():
    """E8 (+) M, M = [[2, -1, -1], [-1, 2, -1], [-1, -1, 12/5]]: pair-reduced,
    so it is walked as stored, from the bound 2, while its minimum is 2/5, at
    M's (1, 1, 1).  The half x_10 = 0, walked first, holds the 123 norm-2
    pairs of E8 (+) A2 and no shorter vector."""
    g = [row + [0, 0, 0] for row in e8_gram()]
    g += [[0] * 8 + [2, -1, -1], [0] * 8 + [-1, 2, -1], [0] * 8 + [-1, -1, F(12, 5)]]
    return lattice_from_gram("e8+a2+m", g)


def test_pair_guard_counts_only_ties_at_the_final_norm(monkeypatch):
    lat = e8_a2_plus_short_diagonal()
    a = [list(row) for row in lat.int_gram]
    assert _pair_reduce(a) == (a, identity(11))
    assert min(lat.gram[i, i] for i in range(11)) == 2
    assert len(minimal_vectors(principal_sublattice(lat, range(10))).pairs) == 123
    # 123 ties pass the limit 1 * 11^2 before the bound drops, so the
    # overflow must be cleared when it does
    monkeypatch.setattr(minvec, "PAIR_GUARD_FACTOR", 1)
    mvs = minimal_vectors(lat)
    assert mvs.norm_sq == F(2, 5)
    assert mvs.pairs == ((0,) * 8 + (1, 1, 1),)
    monkeypatch.setattr(minvec, "PAIR_GUARD_FACTOR", 0)
    with pytest.raises(PairCountGuardExceeded, match="e8"):
        minimal_vectors(lat)


def test_renamed_copy_hits_the_cache():
    lat = staircase(4)
    want = minimal_vectors(lat)
    before = _shortest.cache_info()
    got = minimal_vectors(Lattice("other", lat.gram))
    after = _shortest.cache_info()
    assert got == want
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)


def test_shortest_keys_on_the_scale_as_well_as_the_integer_gram():
    # hex and 2 hex share s G = [[2, 1], [1, 2]], with s = 2 and s = 1
    hex1 = hexagonal()
    hex2 = scale_gram(hex1, 2)
    assert hex1.int_gram == hex2.int_gram and (hex1.scale, hex2.scale) == (2, 1)
    assert minimal_norm_sq(hex1) == 1
    assert minimal_norm_sq(hex2) == 2
    assert minimal_vectors(hex1).pairs == minimal_vectors(hex2).pairs
    assert coherence(hex1).value == coherence(hex2).value == F(1, 2)


def test_norm_then_vectors_enumerate_once():
    lat = lattice_from_gram("fresh", [[97, 13, 5], [13, 89, 7], [5, 7, 83]])
    before = _shortest.cache_info()
    norm = minimal_norm_sq(lat)
    mvs = minimal_vectors(lat)
    after = _shortest.cache_info()
    assert norm == mvs.norm_sq == 83
    assert after.misses - before.misses == 1



def test_shortest_leaves_no_reference_cycle():
    # a walk that refers to itself through a closure leaves its whole state to
    # the cyclic collector after every call (119 objects on A12)
    lat = an_root(12)
    _shortest.cache_clear()
    gc.collect()
    gc.disable()
    try:
        _shortest(lat.scale, lat.int_gram, 10 * 12 * 12)
        assert gc.collect() == 0
    finally:
        gc.enable()

# --- pairs and spans from the walk --------------------------------------------


def mapped_pairs(lat, limit):
    """The pairs as mapped after the walk: the ties of the pair-reduced Gram,
    walked with T = I and the same bound and cap, each taken through T,
    canonical and sorted."""
    red, t = _pair_reduce(lat.int_gram)
    ties = _shortest(lat.scale, tuple(map(tuple, red)), limit)[1]
    return tuple(sorted(_canonical_pair(tuple(sum(v * e for v, e in zip(x, col)) for col in zip(*t))) for x in ties))


@settings(max_examples=60, deadline=None)
@given(positive_definite_integer(), st.sampled_from((1, 4)), st.data())
def test_walk_pairs_are_the_ties_mapped_through_t(a, moves_per_rank, data):
    n = len(a)
    moves = [] if n < 2 else [
        (*data.draw(st.permutations(range(n)))[:2], data.draw(st.sampled_from((1, -1)))) for _ in range(moves_per_rank * n)
    ]
    lat = disguise(lattice_from_gram("pd", a), moves)[0]
    limit = 10 * n * n
    got = _shortest(lat.scale, lat.int_gram, limit)
    assert got[1] == mapped_pairs(lat, limit)
    assert all(quad_form(lat, u) == got[0] for u in got[1])


def test_walk_pairs_of_z1():
    assert _shortest(1, ((1,),), 10) == (1, ((1,),), False, True)


@pytest.mark.parametrize("factor", [1, 0])
def test_walk_pairs_and_tops_are_cleared_when_the_bound_drops(factor):
    # the ties at norm 2, kept before the bound drops to the single minimal
    # pair, have tops 0-9; kept past the drop, they and its top 10 would cover
    # all 11 levels
    lat = e8_a2_plus_short_diagonal()
    limit = factor * 11 * 11
    got = _shortest(lat.scale, lat.int_gram, limit)
    assert got[1] == mapped_pairs(lat, limit)
    assert got == (F(2, 5), ((0,) * 8 + (1, 1, 1),) if factor else (), not factor, False)
    assert not is_well_rounded(lat)


def refuse_int_rank(rows):
    raise AssertionError("int_rank ran")


def test_ties_whose_tops_cover_every_level_need_no_rank(monkeypatch):
    monkeypatch.setattr(minvec, "int_rank", refuse_int_rank)
    _shortest.cache_clear()
    lats = [integer_lattice(n) for n in range(1, 13)] + [an_root(n) for n in range(1, 13)]
    assert all(is_well_rounded(lat) for lat in lats + [staircase(n) for n in range(2, 13)])


@pytest.mark.parametrize("lat, want", [
    (lattice_from_gram("z4", Z4_TOPS_MISS_A_LEVEL), True),
    (hex_plus_2(), False),
], ids=("Z4-tops", "hex+2"))
def test_tops_that_miss_a_level_fall_back_on_the_rank(monkeypatch, lat, want):
    ranked = []
    monkeypatch.setattr(minvec, "int_rank", lambda rows: ranked.append(rows) or int_rank(rows))
    _shortest.cache_clear()
    assert is_well_rounded(lat) is want
    assert len(ranked) == 1 and len(ranked[0]) == len(minimal_vectors(lat).pairs)


# --- integer arithmetic: rational Grams, the odometer -------------------------


def fractions_over(lo, hi):
    """p/q with lo <= p <= hi and 2 <= q <= 5."""
    return st.builds(F, st.integers(lo, hi), st.integers(2, 5))


@st.composite
def rational_lattices(draw, ranks):
    """A lattice with Gram L D L^T, L and D drawn with denominators 2-5, so
    that the enumerator's level scales b_k and form scale S are not 1."""
    n = draw(ranks)
    low = [[F(int(i == j)) if j >= i else draw(fractions_over(-4, 4)) for j in range(n)] for i in range(n)]
    diag = [draw(fractions_over(1, 12)) for _ in range(n)]
    g = [[sum(low[i][k] * diag[k] * low[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    return lattice_from_gram("rational", g)


@settings(max_examples=80, deadline=None)
@given(rational_lattices(st.integers(1, 4)))
def test_enumerator_matches_certified_oracle_on_rational_grams(lat):
    box = minvec.certified_box(lat)
    assert all(abs(x) <= box for u in minimal_vectors(lat).pairs for x in u)
    # far below the oracle's own guard, so that each example stays fast
    assume((2 * box + 1) ** lat.rank <= 20_000)
    assert minimal_vectors(lat) == brute_force_min_vectors(lat, box)


def product_scan(lat, box):
    """The plain box scan: every nonzero point, with q = u^T (s G) u in full, in integers."""
    s, a = lat.scale, lat.int_gram
    best, pairs = None, set()
    for u in product(range(-box, box + 1), repeat=lat.rank):
        if any(u):
            q = sum(x * sum(map(math.prod, zip(row, u))) for row, x in zip(a, u))
            if best is None or q < best:
                best, pairs = q, set()
            if q == best:
                pairs.add(_canonical_pair(u))
    return MinimalVectorSet(norm_sq=F(best, s), pairs=tuple(sorted(pairs)))


@settings(max_examples=60, deadline=None)
@given(rational_lattices(st.integers(1, 5)), st.integers(1, 3))
def test_odometer_matches_product_scan(lat, box):
    assume((2 * box + 1) ** lat.rank <= 20_000)
    assert brute_force_min_vectors(lat, box) == product_scan(lat, box)


def test_oracle_rank_1_sweeps_an_empty_prefix():
    # the only row is the all-zero prefix: x in [-3, -1], q = 7/2 x^2
    lat = lattice_from_gram("r1", [[F(7, 2)]])
    assert brute_force_min_vectors(lat, 3) == MinimalVectorSet(norm_sq=F(7, 2), pairs=((1,),))
    assert brute_force_min_vectors(lat, 1) == product_scan(lat, 1)


def test_oracle_zero_prefix_row_covers_only_negative_x():
    # Z^2, box 1: rows u_0 = -1 (x = -1, 0, 1), then u_0 = 0 (x = -1 only)
    mvs = brute_force_min_vectors(integer_lattice(2), 1)
    assert mvs == MinimalVectorSet(norm_sq=F(1), pairs=((0, 1), (1, 0)))
    # a Gram whose shortest vector is (1, -1): reached only in the u_0 = -1 row
    lat = lattice_from_gram("skew", [[2, F(3, 2)], [F(3, 2), 2]])
    assert brute_force_min_vectors(lat, 1) == MinimalVectorSet(norm_sq=F(1), pairs=((1, -1),))
    assert brute_force_min_vectors(lat, 1) == product_scan(lat, 1)
