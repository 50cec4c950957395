import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrlat import (
    EutaxyClass,
    EutaxyResult,
    FewerThanTwoPairs,
    NotWellRounded,
    an_dual_frame,
    an_root,
    classification_report,
    coherence,
    coxeter_barnes,
    direct_sum,
    eutaxy_classify,
    hexagonal,
    hybrid,
    integer_lattice,
    is_perfect,
    is_well_rounded,
    k3_prime,
    lattice_from_gram,
    lnm,
    minimal_vectors,
    normalize_min_norm,
    scale_gram,
    staircase,
)
import wrlat.eutaxy
from wrlat.constructions import strict_family_lattices, weak_family_lattices
from wrlat.eutaxy import _rank_one_rows
from wrlat.invariants import _pair_pass
from wrlat.ratlinalg import RatMatrix, adjugate, row_reduce
import wrlat.simplex
from wrlat.simplex import OPTIMAL, UNBOUNDED, INFEASIBLE, _simplex_from_basis

from conftest import D4_EDGES, E6_EDGES, E7_EDGES, disguise, root_lattice, root_plus_hexagonal

F = Fraction


def replay_identity(lat, coefficients):
    """Check (sum_i c_i u_i u_i^T) G = I entry-exactly, by multiplication alone."""
    n = lat.rank
    pairs = minimal_vectors(lat).pairs
    assert len(coefficients) == len(pairs)
    s = [[sum(c * u[a] * u[b] for c, u in zip(coefficients, pairs)) for b in range(n)] for a in range(n)]
    for a in range(n):
        for b in range(n):
            assert sum(s[a][k] * lat.gram[k, b] for k in range(n)) == (a == b), (a, b)


# every family lattice of rank <= 7 (K3' among them), and two root lattices
# plus a plane, with solution spaces of dimension 15 and 35, whose LP optimum
# their components force
CERTIFIED = weak_family_lattices(7) + [
    root_plus_hexagonal("E6", 6, E6_EDGES),
    root_plus_hexagonal("E7", 7, E7_EDGES),
]


@pytest.mark.parametrize("lat", CERTIFIED, ids=lambda lat: lat.name)
def test_eutaxy_certificate_replays_in_stored_and_disguised_bases(lat):
    rng = random.Random(lat.name)
    n = lat.rank
    klass = eutaxy_classify(lat).klass
    for moves in ([], [(*rng.sample(range(n), 2), rng.choice((1, -1))) for _ in range(n)]):
        case = disguise(lat, moves)[0] if moves else lat
        res = eutaxy_classify(case)
        assert res.klass is klass
        if res.coefficients is not None:
            replay_identity(case, res.coefficients)
        if klass in (EutaxyClass.EUTACTIC, EutaxyClass.STRONGLY_EUTACTIC):
            assert all(c > 0 for c in res.coefficients)


@pytest.mark.parametrize(
    "lat,t", [(CERTIFIED[-2], F(1, 12)), (CERTIFIED[-1], F(1, 18))], ids=["E6+2A2", "E7+2A2"]
)
def test_lp_reaches_the_largest_smallest_coefficient(lat, t):
    # the trace identity fixes the coefficient sum of each block: rank / 2 over
    # the root system's pairs (36 for E6, 63 for E7) and 1 over the plane's
    # 3 pairs, so the smallest coefficient is at most 6/72 = 1/12 (7/126 =
    # 1/18), reached only when the root pairs share it and the plane's get 1/3;
    # the components give that point without running the LP
    res = eutaxy_classify(lat)
    pairs = minimal_vectors(lat).pairs
    assert res.klass is EutaxyClass.EUTACTIC and min(res.coefficients) == t
    by_block = sorted((any(u[-2:]), c) for u, c in zip(pairs, res.coefficients))
    root = lat.rank - 2
    assert by_block == [(False, t)] * (len(pairs) - 3) + [(True, F(1, 3))] * 3
    assert (len(pairs) - 3) * t == F(root, 2)


# --- classification ---------------------------------------------------------


def test_integer_lattice_strongly_eutactic():
    for n in (1, 2, 5):
        res = eutaxy_classify(integer_lattice(n))
        assert res.klass is EutaxyClass.STRONGLY_EUTACTIC
        assert res.coefficients == (F(1),) * n
        replay_identity(integer_lattice(n), res.coefficients)


def test_rank_one_lattices_are_strongly_eutactic():
    # a single minimal pair is one component, whose level is its coefficient;
    # coherence still refuses it
    for gram, c in (([[1]], F(1)), ([[F(5, 3)]], F(3, 5))):
        lat = lattice_from_gram("line", gram)
        assert eutaxy_classify(lat) == EutaxyResult(EutaxyClass.STRONGLY_EUTACTIC, (c,), 0)
        assert _pair_pass(lat.int_gram, minimal_vectors(lat).pairs)[-1] == (0,)
        with pytest.raises(FewerThanTwoPairs):
            coherence(lat)


def test_hexagonal_strongly_eutactic():
    res = eutaxy_classify(hexagonal())
    assert res.klass is EutaxyClass.STRONGLY_EUTACTIC
    assert res.coefficients == (F(2, 3),) * 3
    replay_identity(hexagonal(), res.coefficients)


def test_k3_prime_eutactic_not_strongly():
    res = eutaxy_classify(k3_prime())
    assert res.klass is EutaxyClass.EUTACTIC
    assert all(c > 0 for c in res.coefficients)
    assert len(set(res.coefficients)) > 1
    replay_identity(k3_prime(), res.coefficients)


def test_staircase_lattices_are_eutactic():
    for n in (3, 4):
        res = eutaxy_classify(staircase(n))
        assert res.klass is EutaxyClass.EUTACTIC, n
        replay_identity(staircase(n), res.coefficients)


def test_root_and_frame_lattices_strongly_eutactic():
    for n in (2, 3, 4):
        assert eutaxy_classify(an_root(n)).klass is EutaxyClass.STRONGLY_EUTACTIC
        assert eutaxy_classify(an_dual_frame(n)).klass is EutaxyClass.STRONGLY_EUTACTIC


def test_planar_17_not_weakly_eutactic():
    lat = lattice_from_gram("p17", [[17, 1], [1, 17]])
    res = eutaxy_classify(lat)
    assert res.klass is EutaxyClass.NOT_WEAKLY_EUTACTIC
    assert res.solution_space_dim == -1 and res.coefficients is None


def test_repeated_rows_with_other_right_sides_are_inconsistent():
    # the pairs e1, e2, e3 and e1 + e2 + e3 give the entries (0, 1), (0, 2)
    # and (1, 2) one row, (0, 0, 0, 1), but s adj(A) has 12, 12 and 9 there
    lat = lattice_from_gram("t3", [[5, -2, -2], [-2, 5, -1], [-2, -1, 5]])
    assert minimal_vectors(lat).pairs == ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1))
    assert adjugate(lat.int_gram)[1] == [[24, 12, 12], [12, 21, 9], [12, 9, 21]]
    assert eutaxy_classify(lat) == EutaxyResult(EutaxyClass.NOT_WEAKLY_EUTACTIC, None, -1) == reference_eutaxy(lat)


def w_plus_d4():
    """w is weakly eutactic with a zero coefficient and no freedom; D4 is
    strongly eutactic.  In the sum the solution space has dimension 2."""
    w = [[1, F(1, 4), F(-1, 2), F(-1, 4)], [F(1, 4), 1, F(-1, 2), F(-1, 4)],
         [F(-1, 2), F(-1, 2), 1, F(1, 2)], [F(-1, 4), F(-1, 4), F(1, 2), 1]]
    d4 = [[1, F(-1, 2), 0, 0], [F(-1, 2), 1, F(1, 2), F(-1, 2)], [0, F(1, 2), 1, 0], [0, F(-1, 2), 0, 1]]
    return direct_sum(lattice_from_gram("w", w), lattice_from_gram("D4", d4))


def e6_plus_d4():
    """E6 + D4 at the minimal norm 2.  Both are strongly eutactic with free
    columns, at the common values 1/12 (E6) and 1/6 (D4): the forced point
    puts each at its level, and D4 sits above the bottleneck 1/12."""
    return direct_sum(root_lattice("E6", 6, E6_EDGES), root_lattice("D4", 4, D4_EDGES))


def weak_connected():
    """A rank-6 lattice whose 22 minimal pairs form one component: weakly
    eutactic with a solution space of dimension 1, and not all-equal, so the
    LP runs and its optimum is 0."""
    h = F(1, 2)
    return lattice_from_gram("v6", [
        [2, 0, 0, 0, 1, 0], [0, 2, -1, -1, -h, -h], [0, -1, 2, h, 1, 1],
        [0, -1, h, 2, 1, -h], [1, -h, 1, 1, 2, h], [0, -h, 1, -h, h, 2],
    ])


def r5():
    """A well-rounded rank-5 lattice of norm 4 whose 16 minimal pairs form
    one component with no level: its solution space has dimension 2, so the
    LP decides, and its optimum 7/120 is reached at one point only."""
    return lattice_from_gram("r5", [
        [4, 0, 0, 0, 2], [0, 4, -1, 0, -2], [0, -1, 4, -1, 0], [0, 0, -1, 4, -2], [2, -2, 0, -2, 4],
    ])


def recording_optima(monkeypatch):
    """Record the (status, optimum) of every LP that eutaxy runs."""
    optima = []

    def recorded(*args):
        result = _simplex_from_basis(*args)
        optima.append(result[:2])
        return result

    monkeypatch.setattr(wrlat.eutaxy, "_simplex_from_basis", recorded)
    return optima


def test_weakly_eutactic_sum_where_the_lp_optimum_is_zero(monkeypatch):
    # the LP on v6 + 2 A2 shows that no solution is strictly positive: its
    # optimum is 0.  v6's one component has a free column and fails the
    # all-equal test, so nothing forces the answer before the LP
    lat = direct_sum(weak_connected(), scale_gram(hexagonal(), 2))
    optima = recording_optima(monkeypatch)
    res = eutaxy_classify(lat)
    assert lat.rank == 8 and len(minimal_vectors(lat).pairs) == 25
    assert res.klass is EutaxyClass.WEAKLY_EUTACTIC and res.solution_space_dim == 1
    assert optima == [(OPTIMAL, 0)]
    replay_identity(lat, res.coefficients)


def test_a_fixed_zero_coefficient_decides_weak_eutaxy_without_the_lp(monkeypatch):
    # w has no free column and a zero coefficient, and D4 is all-equal at 1/3:
    # every coefficient is fixed and the smallest is 0, so no LP runs
    lat = w_plus_d4()
    optima = recording_optima(monkeypatch)
    res = eutaxy_classify(lat)
    assert lat.rank == 8 and len(minimal_vectors(lat).pairs) == 19
    assert res.klass is EutaxyClass.WEAKLY_EUTACTIC and res.solution_space_dim == 2
    assert optima == [] and min(res.coefficients) == 0
    replay_identity(lat, res.coefficients)


# an 8-move disguise of w + D4, for the reference corpus
W_D4_MOVES = [(6, 5, 1), (5, 0, -1), (4, 3, 1), (4, 0, -1), (5, 3, -1), (1, 3, -1), (1, 3, -1), (6, 4, -1)]

# a disguise of v6 whose eliminated system ends on a negative d
V6_MOVES = [(4, 2, -1), (5, 4, 1), (3, 1, 1), (1, 0, -1), (3, 1, -1), (4, 0, 1)]


@pytest.mark.parametrize(
    "lat,d_negative",
    [(r5(), False), (disguise(weak_connected(), V6_MOVES)[0], True)],
    ids=["r5", "v6-disguised"],
)
def test_lp_gets_the_integer_form_of_the_rational_rows(lat, d_negative, monkeypatch):
    # The LP's rational rows are the reduced rows / d, with the row sums / d
    # as the column of t.  It gets them as row_reduce left them, on the basis
    # of their pivot columns and with their own d, negative or not: no common
    # factor is divided out, so every later pivot divides exactly.
    seen = {}

    def reduce(*args):
        seen["reduced"] = row_reduce(*args)
        return seen["reduced"]

    def solve(*args):
        seen["lp"] = args
        return _simplex_from_basis(*args)

    monkeypatch.setattr(wrlat.eutaxy, "row_reduce", reduce)
    monkeypatch.setattr(wrlat.eutaxy, "_simplex_from_basis", solve)
    eutaxy_classify(lat)
    (rows, pivots, d), (c, lp_rows, basis, lp_d) = seen["reduced"], seen["lp"]
    assert (d < 0) == d_negative
    k = len(rows[0]) - 1
    assert c == [0] * k + [1]
    assert (basis, lp_d) == (pivots, d)
    assert lp_rows == [[*row[:-1], sum(row[:-1]), row[-1]] for row in rows]


def test_an_impossible_lp_status_is_a_bug_not_a_warning(monkeypatch):
    # the trace identity pins the coefficient sum, so an unbounded LP is a
    # bug: the report raises rather than null eutaxy_class and warn
    monkeypatch.setattr(wrlat.eutaxy, "_simplex_from_basis", lambda *args: (UNBOUNDED, None, None))
    with pytest.raises(RuntimeError, match="positivity LP ended with status 'unbounded'"):
        classification_report(r5())


@pytest.mark.parametrize(
    "lat",
    [r5(), weak_connected(), disguise(weak_connected(), V6_MOVES)[0]],
    ids=["r5", "v6", "v6-disguised"],
)
def test_every_lp_step_divides_exactly(lat, monkeypatch):
    # The t column is the sum of the coefficient columns and the artificial
    # column minus the sum of the basis columns, so every tableau entry stays
    # a minor of one integer matrix and Sylvester's identity divides exactly.
    # The tableau has k + 2 variable columns (x, t and the one artificial)
    # and the right sides, not one artificial per row.
    step = wrlat.simplex.sylvester_step
    widths = set()

    def exact(m, d, r, c):
        top = m[r]
        p = top[c]
        for i, row in enumerate(m):
            if i != r:
                assert all((p * x - row[c] * y) % d == 0 for x, y in zip(row, top)), (i, r, c)
        widths.update(map(len, m))
        return step(m, d, r, c)

    monkeypatch.setattr(wrlat.simplex, "sylvester_step", exact)
    eutaxy_classify(lat)
    assert widths == {len(minimal_vectors(lat).pairs) + 3}


def congruent_system(lat):
    """The congruent system: with A = s G and w_i = A u_i, sum_i c_i w_i
    w_i^T = s A is sum_i c_i u_i u_i^T = G^-1 multiplied by A on both sides,
    as its rows and right side for the entries (p, q), p <= q.  It needs no
    adjugate, and its entries grow like A^2."""
    n, pairs, a = lat.rank, minimal_vectors(lat).pairs, lat.int_gram
    w = [[sum(x * y for x, y in zip(row, u)) for row in a] for u in pairs]
    system = [[v[p] * v[q] for v in w] for p in range(n) for q in range(p, n)]
    return system, [lat.scale * a[p][q] for p in range(n) for q in range(p, n)]


def reference_eutaxy(lat):
    """Eutaxy from the congruent system: the all-equal test, the particular
    solution in dimension 0, and otherwise the LP, reported at its vertex
    (Eutactic) or at the particular solution (WeaklyEutactic)."""
    k = len(minimal_vectors(lat).pairs)
    reduced = row_reduce(*congruent_system(lat))
    if reduced is None:
        return EutaxyResult(EutaxyClass.NOT_WEAKLY_EUTACTIC, None, -1)
    rows, pivots, d = reduced
    dim = k - len(pivots)
    sums = [sum(row[:-1]) for row in rows]
    particular = [F(0)] * k
    for c, row in zip(pivots, rows):
        particular[c] = F(row[-1], d)
    common = next((F(row[-1], s) for row, s in zip(rows, sums) if s), None)
    if common is not None and common > 0 and all(row[-1] == common * s for row, s in zip(rows, sums)):
        return EutaxyResult(EutaxyClass.STRONGLY_EUTACTIC, (common,) * k, dim)
    if dim == 0:
        positive = all(c > 0 for c in particular)
        return EutaxyResult(EutaxyClass.EUTACTIC if positive else EutaxyClass.WEAKLY_EUTACTIC, tuple(particular), 0)
    lp_rows = [row[:-1] + [s, row[-1]] for row, s in zip(rows, sums)]
    status, value, point = _simplex_from_basis([0] * k + [1], lp_rows, pivots, d)
    if status == OPTIMAL and value > 0:
        return EutaxyResult(EutaxyClass.EUTACTIC, tuple(x + value for x in point[:k]), dim)
    return EutaxyResult(EutaxyClass.WEAKLY_EUTACTIC, tuple(particular), dim)


def reference_corpus():
    """CERTIFIED, w + D4 stored and disguised, the planar Gram [[17, 1],
    [1, 17]], E6 + D4 and v6, each also under an n-move and a 2n-move
    disguise."""
    bases = CERTIFIED + [
        w_plus_d4(),
        disguise(w_plus_d4(), W_D4_MOVES)[0],
        lattice_from_gram("p17", [[17, 1], [1, 17]]),
        e6_plus_d4(),
        weak_connected(),
    ]
    out = []
    for lat in bases:
        rng = random.Random(lat.name)
        n = lat.rank
        out.append(pytest.param(lat, id=lat.name))
        for count in (n, 2 * n):
            moves = [(*rng.sample(range(n), 2), rng.choice((1, -1))) for _ in range(count)]
            out.append(pytest.param(disguise(lat, moves)[0], id=f"{lat.name}-{count}-moves"))
    return out


def assert_matches_reference(lat):
    """Both systems have the same reduced rows but the right column, which
    the adjugate scales by det A > 0.  Where the LP decides, or the
    reference runs none, the results are equal.  Where the components fix
    the optimum, the forced point can be another optimum than the
    reference's vertex: the class and dimension agree, the smallest
    coefficient is the reference's LP optimum (Eutactic) or at most 0
    (Weakly), and the coefficients solve the congruent system exactly."""
    want = reference_eutaxy(lat)
    with mock.patch.object(wrlat.eutaxy, "_simplex_from_basis", wraps=_simplex_from_basis) as lp:
        res = eutaxy_classify(lat)
    if lp.called or want.solution_space_dim <= 0 or want.klass is EutaxyClass.STRONGLY_EUTACTIC:
        assert res == want
        return
    assert (res.klass, res.solution_space_dim) == (want.klass, want.solution_space_dim)
    if res.klass is EutaxyClass.EUTACTIC:
        assert min(res.coefficients) == min(want.coefficients)
    else:
        assert res.klass is EutaxyClass.WEAKLY_EUTACTIC and min(res.coefficients) <= 0
    system, rhs = congruent_system(lat)
    assert [sum(c * x for c, x in zip(res.coefficients, row)) for row in system] == rhs


@pytest.mark.parametrize("lat", reference_corpus())
def test_eutaxy_equals_the_congruent_reference(lat):
    assert_matches_reference(lat)


def no_lp(*args):
    raise AssertionError("the LP ran")


@pytest.mark.parametrize("lat", CERTIFIED[-2:], ids=["E6+2A2", "E7+2A2"])
def test_forced_coefficients_reach_no_lp(lat, monkeypatch):
    # both components are all-equal (E6 or E7 at 1/12 or 1/18, with free
    # columns; 2 A2 at 1/3, with none), and the free one sits at the
    # smallest value, so the optimum is forced and no LP runs
    want = reference_eutaxy(lat)
    monkeypatch.setattr(wrlat.eutaxy, "_simplex_from_basis", no_lp)
    assert eutaxy_classify(lat) == want


@pytest.mark.parametrize("lat", [staircase(9), lnm(9, 4), hybrid(8, 2), k3_prime()], ids=lambda lat: lat.name)
def test_a_system_of_dimension_zero_never_reaches_the_lp(lat, monkeypatch):
    # no column is free, so no component needs a level, and the forced point
    # is the particular solution
    rng = random.Random(lat.name)
    n = lat.rank
    cases = [lat, disguise(lat, [(*rng.sample(range(n), 2), rng.choice((1, -1))) for _ in range(n)])[0]]
    wants = [reference_eutaxy(case) for case in cases]
    monkeypatch.setattr(wrlat.eutaxy, "_simplex_from_basis", no_lp)
    for case, want in zip(cases, wants):
        res = eutaxy_classify(case)
        assert res == want and res.klass is EutaxyClass.EUTACTIC and res.solution_space_dim == 0


def seeded_disguises(lat):
    """The lattice under the n-move disguises of the seeds 0-7 and one 2n-move
    disguise, each with its basis matrix."""
    n = lat.rank
    for seed, count in [(seed, n) for seed in range(8)] + [(lat.name, 2 * n)]:
        rng = random.Random(seed)
        yield disguise(lat, [(*rng.sample(range(n), 2), rng.choice((1, -1))) for _ in range(count)])


def coefficients_by_pair(case, t):
    """{stored pair: coefficient} for a disguise with basis matrix T: the pair
    with coordinates v is the stored pair +-T v."""
    n = case.rank
    out = {}
    for v, c in zip(minimal_vectors(case).pairs, eutaxy_classify(case).coefficients):
        u = [sum(t[r][j] * v[j] for j in range(n)) for r in range(n)]
        out[max(tuple(u), tuple(-x for x in u))] = c
    return out


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize(
    "lat,klass,blocks",
    [
        (CERTIFIED[-2], EutaxyClass.EUTACTIC, {(0, 6): F(1, 12), (6, 8): F(1, 3)}),
        (CERTIFIED[-1], EutaxyClass.EUTACTIC, {(0, 7): F(1, 18), (7, 9): F(1, 3)}),
        (root_plus_hexagonal("D4", 4, D4_EDGES), EutaxyClass.EUTACTIC, {(0, 4): F(1, 6), (4, 6): F(1, 3)}),
        # D4 sits at its level 1/6 above E6's 1/12, where an LP vertex could
        # lower some of its coefficients toward 1/12
        (e6_plus_d4(), EutaxyClass.EUTACTIC, {(0, 6): F(1, 12), (6, 10): F(1, 6)}),
        # w is fixed with a zero coefficient; D4, at the norm 1 here, sits at
        # its level 4/12, not at the particular solution, whose free columns
        # are 0
        (w_plus_d4(), EutaxyClass.WEAKLY_EUTACTIC, {(4, 8): F(1, 3)}),
    ],
    ids=["E6(+)hex", "E7(+)hex", "D4(+)hex", "E6(+)D4", "w(+)D4"],
)
def test_forced_coefficients_follow_the_pairs_through_a_change_of_basis(lat, klass, blocks, monkeypatch):
    # every component with a free column has a level, so no LP runs, and the
    # forced point puts each block's pairs at the values given (the trace
    # fixes the block's sum: its rank over its norm); in a disguise each pair
    # keeps its coefficient
    monkeypatch.setattr(wrlat.eutaxy, "_simplex_from_basis", no_lp)
    assert eutaxy_classify(lat).klass is klass
    want = coefficients_by_pair(lat, identity(lat.rank))
    for (lo, hi), c in blocks.items():
        block = [x for u, x in want.items() if not any(u[:lo] + u[hi:])]
        assert block and set(block) == {c}
    for case, t in seeded_disguises(lat):
        assert eutaxy_classify(case).klass is klass
        assert coefficients_by_pair(case, t) == want


def test_the_lp_decides_r5_at_its_one_optimal_point(monkeypatch):
    # r5's one component has free columns and no level, so the LP runs once
    # per basis; its optimum is reached at one point only, so the
    # coefficients follow the pairs through a change of basis as well
    lat = r5()
    optima = recording_optima(monkeypatch)
    res = eutaxy_classify(lat)
    assert minimal_vectors(lat).norm_sq == 4 and len(minimal_vectors(lat).pairs) == 16 and is_well_rounded(lat)
    assert set(_pair_pass(lat.int_gram, minimal_vectors(lat).pairs)[-1]) == {0}
    assert optima == [(OPTIMAL, F(28, 3))]  # 7/120 times det A = 160, the optimum in c'
    assert res.klass is EutaxyClass.EUTACTIC and res.solution_space_dim == 2 and min(res.coefficients) == F(7, 120)
    replay_identity(lat, res.coefficients)
    want = coefficients_by_pair(lat, identity(5))
    for case, t in seeded_disguises(lat):
        assert coefficients_by_pair(case, t) == want
    assert optima == [(OPTIMAL, F(28, 3))] * 11  # once per classification


# summands at minimal norm 1: D4 and E6 are all-equal with free columns, the
# rest have none, and K3' and the staircases are not all-equal
FREE_SUMMANDS = [normalize_min_norm(root_lattice("D4", 4, D4_EDGES)), normalize_min_norm(root_lattice("E6", 6, E6_EDGES))]
SUMMANDS = FREE_SUMMANDS + [
    normalize_min_norm(lat)
    for lat in (
        integer_lattice(1), integer_lattice(2), hexagonal(), an_root(3), an_root(4),
        an_dual_frame(3), an_dual_frame(4), k3_prime(), staircase(3), staircase(4),
    )
]


@st.composite
def direct_sums(draw):
    """2-3 summands of total rank <= 10, the first free half the time, at one
    minimal norm or (a fifth of the draws) at norms 1 and 2, stored or under
    an n-move disguise."""
    parts = [draw(st.sampled_from(FREE_SUMMANDS if draw(st.booleans()) else SUMMANDS))]
    for _ in range(draw(st.integers(1, 2))):
        fits = [p for p in SUMMANDS if p.rank <= 10 - sum(q.rank for q in parts)]
        if fits:
            parts.append(draw(st.sampled_from(fits)))
    norms = draw(st.sampled_from([[1] * len(parts)] * 4 + [[1, 2, 1][: len(parts)]]))
    lat = scale_gram(parts[0], norms[0])
    for part, norm in zip(parts[1:], norms[1:]):
        lat = direct_sum(lat, scale_gram(part, norm))
    n = lat.rank
    if draw(st.booleans()):
        cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 2), st.sampled_from((1, -1)))
        moves = [(i, (i + 1 + j) % n, e) for i, j, e in draw(st.lists(cells, min_size=n, max_size=n))]
        lat = disguise(lat, moves)[0]
    return lat


@settings(max_examples=60, deadline=None)
@given(direct_sums())
def test_eutaxy_equals_the_reference_on_direct_sums(lat):
    if not is_well_rounded(lat):
        with pytest.raises(NotWellRounded):
            eutaxy_classify(lat)
        return
    assert_matches_reference(lat)


def venkov_strong(lat):
    """Strong eutaxy by Venkov's criterion, with no elimination: the minimal
    vectors x_i = B u_i form a tight frame, sum_i x_i x_i^T = lambda I with
    lambda > 0, which in coefficient coordinates (G = B^T B) reads
    (sum_i u_i u_i^T) G = lambda I."""
    n, pairs = lat.rank, minimal_vectors(lat).pairs
    frame = [[sum(u[a] * u[b] for u in pairs) for b in range(n)] for a in range(n)]
    m = [[sum(frame[a][k] * lat.gram[k, b] for k in range(n)) for b in range(n)] for a in range(n)]
    return m[0][0] > 0 and all(m[a][b] == m[0][0] * (a == b) for a in range(n) for b in range(n))


FAMILIES = weak_family_lattices(7) + [f(n) for n in range(2, 8) for f in (an_root, an_dual_frame)] + [
    coxeter_barnes(7, 4),
    root_lattice("D4", 4, D4_EDGES),
    root_lattice("E6", 6, E6_EDGES),
]


@pytest.mark.parametrize("lat", FAMILIES, ids=lambda lat: lat.name)
def test_strong_eutaxy_is_venkov_on_the_families(lat):
    rng = random.Random(lat.name)
    n = lat.rank
    for case in (lat, disguise(lat, [(*rng.sample(range(n), 2), rng.choice((1, -1))) for _ in range(n)])[0]):
        assert (eutaxy_classify(case).klass is EutaxyClass.STRONGLY_EUTACTIC) == venkov_strong(case)


@settings(max_examples=60, deadline=None)
@given(direct_sums())
def test_strong_eutaxy_is_venkov_on_direct_sums(lat):
    if is_well_rounded(lat):
        assert (eutaxy_classify(lat).klass is EutaxyClass.STRONGLY_EUTACTIC) == venkov_strong(lat)


@pytest.mark.parametrize("lat", [hexagonal(), k3_prime(), CERTIFIED[-2], w_plus_d4()], ids=lambda lat: lat.name)
def test_the_system_rows_are_the_rank_one_forms(lat, monkeypatch):
    # the eutaxy system's coefficient rows are the rank-one forms u_i u_i^T
    # that is_perfect ranks, one column per pair, and its right side s adj(A):
    # one equation per distinct nonzero row, in the order the entries (p, q)
    # first give it, and every dropped row repeats a kept one's right side,
    # or is zero with a zero right side
    seen = []

    def reduce(*args):
        seen.append(args)
        return row_reduce(*args)

    monkeypatch.setattr(wrlat.eutaxy, "row_reduce", reduce)
    eutaxy_classify(lat)
    n = lat.rank
    ((system, b),) = seen
    det, adj = adjugate(lat.int_gram)
    assert det == lat.leading_minors[-1]
    rows = list(zip(*_rank_one_rows(minimal_vectors(lat).pairs, n)))
    rhs = [lat.scale * adj[p][q] for p in range(n) for q in range(p, n)]
    kept = {}
    for row, v in zip(rows, rhs):
        if any(row):
            kept.setdefault(row, v)
    assert [tuple(row) for row in system] == list(kept)
    assert list(b) == list(kept.values())
    for row, v in zip(rows, rhs):
        assert v == kept.get(row, 0)


def test_eutaxy_requires_well_rounded():
    with pytest.raises(NotWellRounded):
        eutaxy_classify(lattice_from_gram("diag", [[1, 0], [0, 9]]))
    with pytest.raises(NotWellRounded, match="'diag' is not well-rounded"):
        is_perfect(lattice_from_gram("diag", [[1, 0], [0, 9]]))


def test_mixed_block_sum_is_eutactic_not_strongly():
    # the kissing ratios differ (hex: 6/2, line: 2/1), so the union of the
    # minimal sets is not a tight frame and the all-equal solution fails
    res = eutaxy_classify(lnm(3, 1))
    assert res.klass is EutaxyClass.EUTACTIC
    assert sorted(set(res.coefficients)) == [F(2, 3), F(1)]
    replay_identity(lnm(3, 1), res.coefficients)


def test_direct_sum_of_matching_kissing_ratios_stays_strong():
    cases = [
        (integer_lattice(1), integer_lattice(2)),
        (integer_lattice(3), integer_lattice(1)),
        (hexagonal(), hexagonal()),
    ]
    for a, b in cases:
        assert eutaxy_classify(a).klass is EutaxyClass.STRONGLY_EUTACTIC
        assert eutaxy_classify(b).klass is EutaxyClass.STRONGLY_EUTACTIC
        s = direct_sum(a, b)
        assert eutaxy_classify(s).klass is EutaxyClass.STRONGLY_EUTACTIC, s.name


def test_coefficient_sum_matches_trace_identity():
    # sum of eutaxy coefficients must equal rank / minnorm^2
    for lat in (hexagonal(), k3_prime(), lnm(3, 1), staircase(3)):
        res = eutaxy_classify(lat)
        mvs = minimal_vectors(lat)
        assert sum(res.coefficients) == F(lat.rank) / mvs.norm_sq


# --- perfection --------------------------------------------------------------


def test_hexagonal_perfect():
    assert is_perfect(hexagonal())


def test_k3_prime_not_perfect():
    assert not is_perfect(k3_prime())


def test_a3_root_perfect():
    assert is_perfect(an_root(3))


def test_weak_family_never_perfect_in_rank_3_plus():
    from wrlat.constructions import strict_family_lattices, weak_family_lattices

    for lat in weak_family_lattices(6):
        if lat.rank >= 3:
            assert not is_perfect(lat), lat.name


def test_perfection_needs_enough_pairs():
    for lat in (hexagonal(), an_root(3), coxeter_barnes(7, 4), k3_prime(), lnm(4, 2)):
        if is_perfect(lat):
            n = lat.rank
            assert len(minimal_vectors(lat).pairs) >= n * (n + 1) // 2


def test_coxeter_barnes_7_4():
    lat = coxeter_barnes(7, 4)
    mvs = minimal_vectors(lat)
    assert mvs.norm_sq == F(3, 2) and mvs.count == 56
    assert is_perfect(lat)
    res = eutaxy_classify(lat)
    assert res.klass is EutaxyClass.STRONGLY_EUTACTIC
    assert res.coefficients == (F(1, 6),) * 28
    assert coherence(lat).value == F(1, 3) < F(1, 2)


PANEL = [
    staircase(9),
    an_dual_frame(9),
    lnm(9, 4),
    hybrid(8, 2),
    coxeter_barnes(7, 4),
    k3_prime(),
    CERTIFIED[-2],
]


@pytest.mark.parametrize(
    "lat", PANEL + weak_family_lattices(6) + strict_family_lattices(6), ids=lambda lat: lat.name
)
def test_report_perfection_matches_is_perfect_in_any_basis(lat):
    # the report reads perfection from the eutaxy elimination's rank, and
    # is_perfect from its own; both must agree, and not change with the basis
    rng = random.Random(lat.name)
    n = lat.rank
    moves = [(*rng.sample(range(n), 2), rng.choice((1, -1))) for _ in range(n)] if n > 1 else []
    want = is_perfect(lat)
    for case in (lat, disguise(lat, moves)[0]):
        assert classification_report(case).fields["perfect"] is want
        assert is_perfect(case) is want


# --- aggregate report ----------------------------------------------------------


def test_report_block_lattice():
    rep = classification_report(lnm(6, 3)).to_json_dict()
    assert rep["well_rounded"] is True
    assert rep["kissing_number"] == 18
    assert rep["in_strict"] is True
    assert rep["coherence"] == "1/2"
    assert rep["eutaxy_class"] == "StronglyEutactic"
    assert rep["perfect"] is False


def test_report_a3_root():
    rep = classification_report(an_root(3)).to_json_dict()
    assert rep["kissing_number"] == 12
    assert rep["in_weak"] is False
    assert rep["perfect"] is True


def test_report_k3_prime():
    rep = classification_report(k3_prime()).to_json_dict()
    assert rep["kissing_number"] == 10
    assert rep["eutaxy_class"] == "Eutactic"
    assert rep["perfect"] is False
    assert rep["in_weak"] is True and rep["in_strict"] is False


def test_report_frame4():
    rep = classification_report(an_dual_frame(4)).to_json_dict()
    assert rep["coherence"] == "1/4"
    assert rep["kissing_number"] == 10
    assert rep["in_weak"] is False


def test_report_flags_guard_trips():
    d = classification_report(integer_lattice(13)).to_json_dict()
    assert d["kissing_number"] is None
    assert d["warnings"] == ["minimal_vectors: rank 13 exceeds the enumeration guard 12"]


def test_report_non_well_rounded():
    rep = classification_report(lattice_from_gram("diag", [[1, 0], [0, 4]])).to_json_dict()
    assert rep["well_rounded"] is False
    assert rep["eutaxy_class"] is None and rep["perfect"] is None


def test_report_has_the_same_keys_on_every_path():
    # a complete report, a guard trip that nulls almost every field, a
    # lattice that is not well-rounded, and rank 1, where no pair exists
    full = classification_report(hexagonal()).to_json_dict()
    assert len(full) == 23 and full["warnings"] == []
    for lat in (integer_lattice(13), lattice_from_gram("diag", [[1, 0], [0, 4]]), integer_lattice(1)):
        rep = classification_report(lat).to_json_dict()
        assert rep.keys() == full.keys(), lat.name
        assert rep["warnings"], lat.name


# --- exact simplex -------------------------------------------------------------


def simplex_eq(c, a, b):
    """max c.x s.t. A x = b, x >= 0 on integer data: `row_reduce` gives the
    canonical start, and an inconsistent system is infeasible."""
    reduced = row_reduce(a, b)
    if reduced is None:
        return INFEASIBLE, None, None
    return _simplex_from_basis(c, *reduced)


def simplex_ineq(c, a, b, free=False):
    """max c.x s.t. A x <= b, with x >= 0 or free, through `simplex_eq`: a
    free x is split as x+ - x- into two nonnegative columns, and row i gains
    the slack column s_i >= 0 with A_i x + s_i = b_i."""
    n, m = len(c), len(a)
    if free:
        c, a = list(c) + [-e for e in c], [list(r) + [-e for e in r] for r in a]
    rows = [list(r) + [int(i == j) for j in range(m)] + [v] for i, (r, v) in enumerate(zip(a, b))]
    # the rational data reaches the integer simplex as [A | I | b] times one
    # positive factor and c times another, which scales the optimum
    rows = RatMatrix.from_rows(rows).int_rows
    cost = RatMatrix.from_rows([list(c) + [0] * m])
    c_scale, (cost,) = cost.scale, cost.int_rows
    status, value, x = simplex_eq(cost, [r[:-1] for r in rows], [r[-1] for r in rows])
    if value is not None:
        value /= c_scale
    if x is not None:
        x = [x[j] - x[n + j] for j in range(n)] if free else x[:n]
    return status, value, x


def test_simplex_basic_optimum():
    # max x + y st x <= 2, y <= 3, x + y <= 4
    status, value, x = simplex_ineq([1, 1], [[1, 0], [0, 1], [1, 1]], [2, 3, 4])
    assert status == OPTIMAL and value == 4


def test_simplex_unbounded():
    status, _, _ = simplex_ineq([1], [[-1]], [0])
    assert status == UNBOUNDED


def test_simplex_infeasible():
    # x <= -1 with x >= 0
    status, _, _ = simplex_ineq([1], [[1]], [-1])
    assert status == INFEASIBLE


def test_simplex_fractional_optimum():
    # max 3x + 2y st 2x + y <= 3/2, x + 3y <= 2
    status, value, x = simplex_ineq(
        [3, 2], [[2, 1], [1, 3]], [F(3, 2), 2]
    )
    assert status == OPTIMAL
    assert value == F(5, 2)  # optimum at x = 1/2, y = 1/2
    assert x == [F(1, 2), F(1, 2)]


def test_simplex_free_variables():
    # max t st t - y <= -1, t + y <= 3: optimum t = 1 at y = 2
    status, value, point = simplex_ineq([0, 1], [[-1, 1], [1, 1]], [-1, 3], free=True)
    assert status == OPTIMAL and value == 1
    assert point[1] == 1


def test_simplex_degenerate_no_cycling():
    # classic degeneracy: several redundant constraints through the origin
    status, value, _ = simplex_ineq(
        [1, 1], [[1, 0], [0, 1], [1, 1], [1, 1]], [1, 1, 1, 1]
    )
    assert status == OPTIMAL and value == 1


def test_simplex_redundant_equality_row():
    # the second row is twice the first: row_reduce drops it, and with an
    # inconsistent right side it returns None, which means infeasible
    assert simplex_eq([1, 2], [[1, 1], [2, 2]], [1, 2]) == (OPTIMAL, 2, [0, 1])
    assert simplex_eq([1, 2], [[1, 1], [2, 2]], [1, 3])[0] == INFEASIBLE


def test_simplex_rejects_fractions():
    for args in (([F(1, 3), 1], [[1, 0, 1]], [0], 1), ([1, 1], [[1, F(1, 2), 1]], [0], 1), ([1, 1], [[1, 0, F(1, 2)]], [0], 1)):
        with pytest.raises(TypeError):
            _simplex_from_basis(*args)


PINNED_LPS = {
    # max c.x s.t. A x <= b, x >= 0 or free, as (c, A, b, free, result).
    # The vertex must not depend on how each row is scaled to integers; the
    # reduced rows do not, but phase-1 artificials weighted by a per-row
    # scale lead Bland's rule to the other optimal vertex (2/3, 0)
    "one-common-scale": (
        [-2, -2], [[-1, F(-3, 4)], [-1, -1]], [1, F(-2, 3)], False, (OPTIMAL, F(-4, 3), [0, F(2, 3)])
    ),
    # a negative right side that the reduced rows make feasible, so phase 1
    # is skipped; from a start with an artificial per row, driving one out
    # takes a negative pivot, and without negating after it, x = 0 with 0
    "negative-cleanup-pivot": ([F(-4, 3)], [[2], [F(-1, 3)]], [3, F(-1, 2)], False, (OPTIMAL, -2, [F(3, 2)])),
    # phase 1 ends with the artificial basic at zero; left in the basis, it
    # can grow in phase 2, which drops its row, and the LP reads as unbounded
    "artificial-at-zero": (
        [2, 0], [[-1, 0], [2, F(1, 2)], [0, F(-3, 2)]], [F(3, 2), -2, -3], True, (OPTIMAL, -3, [F(-3, 2), 2])
    ),
    # tied ratios: Bland's rule leaves on the smaller basic index; leaving on
    # the first tied row ends at the other optimal vertex (1/4, 1/2, 0, 0)
    "ratio-tie": (
        [2, 0, F(1, 2), -1],
        [[1, F(3, 2), 2, F(3, 2)], [2, 0, 1, 0], [0, -3, 0, -2]],
        [1, F(1, 2), 0],
        False,
        (OPTIMAL, F(1, 2), [F(1, 4), 0, 0, 0]),
    ),
}


@pytest.mark.parametrize("name", PINNED_LPS)
def test_simplex_pinned_vertices(name):
    c, a, b, free, want = PINNED_LPS[name]
    assert simplex_ineq(c, a, b, free) == want


PINNED_STARTS = {
    # max c.x s.t. A x = b, x >= 0 from row_reduce's basis, as (c, A, b, result).
    # The reduced right sides are -3 and -11: the artificial enters on the
    # most negative row; entering on the first negative row leaves row 1 at
    # -8 and ends at (0, -5, 3) with c.x = -6
    "most-negative-row": ([0, 0, -2], [[3, -1, -1], [1, 0, -1]], [2, -3], (OPTIMAL, -11, [F(5, 2), 0, F(11, 2)])),
    # the reduced right sides tie at -1: the artificial enters on the lower
    # row; entering on the higher ends at the other vertex (0, 2, 0, 1/2)
    "tie-lowest-index": (
        [-1, 0, 0, 0], [[-1, 0, 1, 2], [2, -1, -2, 2]], [1, -1], (OPTIMAL, 0, [0, 0, F(2, 3), F(1, 6)])
    ),
    # phase 1 ends with the artificial basic at zero; left in the basis, it
    # can grow in phase 2, and the LP reads as unbounded
    "artificial-basic-at-zero": ([1, 2, 0], [[-2, -1, 0], [-1, -1, 1]], [0, 2], (OPTIMAL, 0, [0, 0, 2])),
    # driving the artificial out takes a negative pivot; without negating the
    # tableau after it, the LP ends at (0, -1, 0), which breaks x >= 0
    "negative-drive-out-pivot": ([0, 0, -1], [[1, 1, -2], [-1, 0, 0]], [-1, 0], (OPTIMAL, F(-1, 2), [0, 0, F(1, 2)])),
    # row_reduce ends on d = -1 with a feasible start; without negating the
    # rows first, the ratio test misreads every sign and finds it unbounded
    "negative-d-start": ([-1, 0], [[0, -1]], [0], (OPTIMAL, 0, [0, 0])),
}


@pytest.mark.parametrize("name", PINNED_STARTS)
def test_simplex_pinned_starts(name):
    c, a, b, want = PINNED_STARTS[name]
    assert simplex_eq(c, a, b) == want


@st.composite
def small_lps(draw):
    """max c.x s.t. A x <= b, with x >= 0 or free; negative b_i (phase 1) and
    zeros are common, and degenerate cases repeat a row or zero its bound."""
    ent = st.one_of(st.just(F(0)), st.fractions(min_value=-4, max_value=4, max_denominator=4))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    c = [draw(ent) for _ in range(n)]
    a = [[draw(ent) for _ in range(n)] for _ in range(m)]
    b = [draw(ent) for _ in range(m)]
    if draw(st.booleans()):
        a.append(list(a[0]))
        b.append(b[0])
    if draw(st.booleans()):
        b[draw(st.integers(0, m - 1))] = F(0)
    return c, a, b, draw(st.booleans())


def sympy_feasible_point(g, h):
    """A point z >= 0 with G z <= h, or None, from sympy's linprog.

    sympy's phase 1 can stop on an infeasible basis and report a point that
    breaks the constraints (x0, x1 <= 0 with x0 + x1 >= 1 gives (0, 1)), so it
    only gets an LP whose origin is feasible: each row with h_i < 0 gains
    v_i >= 0 with G_i z + v_i <= 0 and v_i <= -h_i, and G z <= h holds for
    some z iff the largest sum of the v_i is the sum of the -h_i.
    """
    from sympy import Matrix
    from sympy.solvers.simplex import linprog

    neg = [i for i, x in enumerate(h) if x < 0]
    width = len(g[0])
    rows = [list(r) + [int(i == j) for j in neg] for i, r in enumerate(g)]
    rows += [[0] * width + [int(i == j) for j in neg] for i in neg]
    rhs = [max(x, 0) for x in h] + [-h[i] for i in neg]
    best, point = linprog(Matrix([0] * width + [-1] * len(neg)), Matrix(rows), Matrix(rhs))
    if -F(str(best)) != sum(-h[i] for i in neg):
        return None
    return [F(str(v)) for v in point[:width]]


@settings(max_examples=150, deadline=None)
@given(small_lps())
def test_simplex_matches_sympy_linprog(case):
    """Status and optimum against sympy: the LP is infeasible when A x <= b,
    x >= 0 has no point, unbounded when it has one but the dual A^T y >= c,
    y >= 0 has none, and otherwise its optimum is c.x at any point of both
    with c.x >= b.y (weak duality makes that an equality)."""
    pytest.importorskip("sympy")
    c, a, b, free = case
    status, value, x = simplex_ineq(c, a, b, free)
    # the oracle gets a free x as x+ - x-, both parts nonnegative
    oc, oa = (c + [-e for e in c], [r + [-e for e in r] for r in a]) if free else (c, a)
    if sympy_feasible_point(oa, b) is None:
        assert status == INFEASIBLE
        return
    n, m = len(oc), len(oa)
    both = [r + [0] * m for r in oa]
    both += [[0] * n + [-oa[i][j] for i in range(m)] for j in range(n)]
    both.append([-e for e in oc] + list(b))
    point = sympy_feasible_point(both, list(b) + [-e for e in oc] + [0])
    if point is None:
        assert status == UNBOUNDED
        return
    assert status == OPTIMAL and value == sum(ci * xi for ci, xi in zip(oc, point))
    assert sum(ci * xi for ci, xi in zip(c, x)) == value
    assert all(sum(e * xi for e, xi in zip(r, x)) <= bi for r, bi in zip(a, b))
    assert free or all(xi >= 0 for xi in x)
