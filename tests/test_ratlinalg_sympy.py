"""Exact linear algebra checked against sympy as an independent oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrlat import (
    NotPositiveDefinite,
    RatMatrix,
    an_root,
    integer_lattice,
    is_well_rounded,
    lattice_from_gram,
    lnm,
    minimal_vectors,
    staircase,
)
from wrlat.ratlinalg import adjugate, diagonal_pivots, int_rank

from conftest import (
    Z4_TOPS_MISS_A_LEVEL,
    disguise,
    from_sympy,
    hex_plus_2,
    positive_definite_integer,
    reduced_form,
    to_sympy,
)

sympy = pytest.importorskip("sympy")

F = Fraction

# zeros are drawn often so that singular and rank-deficient matrices are common
entries = st.one_of(
    st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=5)
)


@st.composite
def matrices(draw, square=False):
    nr = draw(st.integers(1, 5))
    nc = nr if square else draw(st.integers(1, 5))
    return [[draw(entries) for _ in range(nc)] for _ in range(nr)]


@settings(max_examples=80, deadline=None)
@given(matrices())
def test_rank_matches_sympy(rows):
    assert int_rank(RatMatrix.from_rows(rows).int_rows) == to_sympy(rows).rank()


@st.composite
def integer_matrices(draw):
    """Either B C with B k x r, C r x n and k >= n (tall, rank at most r,
    often below n), or a plain integer matrix of any shape."""
    small = st.integers(-3, 3)
    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        r, k = draw(st.integers(0, n)), draw(st.integers(n, 3 * n))
        b = [[draw(small) for _ in range(r)] for _ in range(k)]
        c = [[draw(small) for _ in range(n)] for _ in range(r)]
        return [[sum(b[i][t] * c[t][j] for t in range(r)) for j in range(n)] for i in range(k)]
    return [[draw(small) for _ in range(n)] for _ in range(draw(st.integers(1, 8)))]


@settings(max_examples=120, deadline=None)
@given(integer_matrices())
def test_int_rank_matches_sympy(rows):
    assert int_rank(rows) == to_sympy(rows).rank()


@st.composite
def spd_grams(draw):
    """B^T B + D for a random rational B and a positive diagonal D: symmetric positive definite."""
    n = draw(st.integers(1, 5))
    b = [[draw(entries) for _ in range(n)] for _ in range(draw(st.integers(1, 5)))]
    pos = st.fractions(min_value=F(1, 5), max_value=3, max_denominator=5)
    d = [draw(pos) for _ in range(n)]
    return [[sum(r[i] * r[j] for r in b) + (d[i] if i == j else 0) for j in range(n)] for i in range(n)]


@settings(max_examples=80, deadline=None)
@given(spd_grams())
def test_det_matches_sympy(rows):
    assert lattice_from_gram("spd", rows).det_gram() == from_sympy(to_sympy(rows).det())


@settings(max_examples=80, deadline=None)
@given(spd_grams())
def test_lattice_keeps_its_integer_gram_and_leading_minors(rows):
    lat = lattice_from_gram("spd", rows)
    s = math.lcm(*(x.denominator for row in rows for x in row))
    assert lat.scale == s
    assert type(lat.int_gram) is tuple and all(type(row) is tuple for row in lat.int_gram)
    assert all(type(e) is int for row in lat.int_gram for e in row)
    assert lat.int_gram == tuple(tuple(s * x for x in row) for row in rows)
    # P_k = s^k times the leading k x k determinant of G, with P_0 = 1
    g = to_sympy(rows)
    assert lat.leading_minors == (1, *(from_sympy(g[:k, :k].det()) * s**k for k in range(1, lat.rank + 1)))
    # one Gram form: rank, scale and int_gram are read off the RatMatrix, and
    # equality and hashing run on (name, gram, provenance) alone
    assert (lat.rank, lat.scale) == (lat.gram.rows, lat.gram.scale) and lat.int_gram is lat.gram.int_rows
    twin = lattice_from_gram("spd", rows)
    assert lat == twin and hash(lat) == hash(twin) == hash((lat.name, lat.gram, lat.provenance))
    assert lat != lattice_from_gram("spd", rows, provenance="other") != lattice_from_gram("other", rows)
    assert repr(lat) == f"Lattice('spd', rank={lat.rank})"


@settings(max_examples=80, deadline=None)
@given(matrices(square=True), st.data())
def test_solve_matches_sympy(rows, data):
    b = [data.draw(entries) for _ in rows]
    s = to_sympy(rows)
    if s.det() == 0:
        return  # test_row_reduce_matches_sympy_rref covers singular systems
    want = s.LUsolve(to_sympy([[v] for v in b]))
    pivots, red = reduced_form(rows, b)
    assert pivots == list(range(len(rows)))
    assert [row[-1] for row in red] == [from_sympy(v) for v in want]


@settings(max_examples=80, deadline=None)
@given(matrices(), st.data())
def test_row_reduce_matches_sympy_rref(rows, data):
    # the pivots and rows / d are sympy's reduced row echelon form of [A | b],
    # and row_reduce gives None exactly when b's column holds a pivot
    b = [data.draw(entries) for _ in rows]
    nc = len(rows[0])
    want, want_pivots = to_sympy([r + [v] for r, v in zip(rows, b)]).rref()
    got = reduced_form(rows, b)
    if nc in want_pivots:
        assert got is None
        return
    pivots, red = got
    assert pivots == list(want_pivots)
    assert red == [[from_sympy(want[i, j]) for j in range(nc + 1)] for i in range(len(pivots))]


@settings(max_examples=80, deadline=None)
@given(matrices(square=True), st.sampled_from([F(0), F(1, 2), F(-1, 3)]))
def test_ldl_matches_sympy(rows, shift):
    # B^T B + shift I: positive definite, singular or indefinite
    n = len(rows)
    g = [
        [sum(r[i] * r[j] for r in rows) + (shift if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    s = to_sympy(g)
    gram = RatMatrix.from_rows(g)
    scale, m = gram.scale, gram.int_rows
    pivots, cols = diagonal_pivots(m)
    # the leading principal minors of s G, up to and with the first one <= 0
    minors = [1] + [int(s[:k, :k].det() * scale**k) for k in range(1, n + 1)]
    last = next((k for k, p in enumerate(minors) if p <= 0), n)
    assert pivots == minors[: last + 1]
    if not s.is_positive_definite:
        with pytest.raises(NotPositiveDefinite):
            lattice_from_gram("g", g)
        return
    lattice_from_gram("g", g)
    low, _ = s.LDLdecomposition()
    assert all(F(cols[k][j - k], pivots[k + 1]) == from_sympy(low[j, k]) for k in range(n) for j in range(k, n))


@settings(max_examples=25, deadline=None)
@given(positive_definite_integer())
def test_adjugate_matches_sympy(a):
    det, adj = adjugate(a)
    m = sympy.Matrix(a)
    assert det == m.det()
    assert sympy.Matrix(adj) == m.adjugate()


WELL_ROUNDED_PINS = [
    (hex_plus_2, False),
    (lambda: lattice_from_gram("diag14", [[1, 0], [0, 4]]), False),
    (lambda: integer_lattice(1), True),
    # the first 4 ties in reverse walk order are dependent in both
    (lambda: staircase(4), True),
    (lambda: lnm(4, 2), True),
    (lambda: lattice_from_gram("z4", Z4_TOPS_MISS_A_LEVEL), True),
]


@st.composite
def disguised_grams(draw):
    """A lattice, either a pinned one or B B^T + D, in a basis reached by
    up to 2n moves b_j += +-b_i."""
    lat = draw(st.one_of(
        st.sampled_from([make for make, _ in WELL_ROUNDED_PINS]).map(lambda make: make()),
        positive_definite_integer(6).map(lambda a: lattice_from_gram("pd", a)),
    ))
    n = lat.rank
    moves = [] if n < 2 else draw(st.lists(
        st.tuples(st.permutations(range(n)), st.sampled_from((1, -1))).map(lambda m: (*m[0][:2], m[1])),
        max_size=2 * n,
    ))
    return disguise(lat, moves)[0]


@pytest.mark.parametrize("make, want", WELL_ROUNDED_PINS, ids=("hex+2", "diag14", "Z1", "staircase4", "L42", "Z4-tops"))
def test_well_rounded_pins(make, want):
    lat = make()
    assert is_well_rounded(lat) == want == (to_sympy(minimal_vectors(lat).pairs).rank() == lat.rank)


@settings(max_examples=100, deadline=None)
@given(disguised_grams())
def test_well_rounded_is_the_sympy_rank_of_the_pairs(lat):
    assert is_well_rounded(lat) == (to_sympy(minimal_vectors(lat).pairs).rank() == lat.rank)


@pytest.mark.parametrize("make, low", [(integer_lattice, 1), (an_root, 1), (staircase, 2)], ids=("Z", "A", "staircase"))
def test_stored_families_span_as_sympy_says(make, low):
    for lat in map(make, range(low, 13)):
        assert is_well_rounded(lat) == (to_sympy(minimal_vectors(lat).pairs).rank() == lat.rank)
