import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wrlat import (
    NotPositiveDefinite,
    NotSymmetric,
    RatMatrix,
    format_rational,
    int_sqrt_floor,
    lattice_from_gram,
    parse_rational,
)
from wrlat.ratlinalg import (
    adjugate,
    diagonal_pivots,
    gram_of_vectors,
    int_rank,
    rational_sqrt_exact,
    row_reduce,
    tail_step,
)

from conftest import cofactor_det3, positive_definite_integer, reduced_form, schur_step

F = Fraction

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)


def square_matrix(n, draw_entries):
    return RatMatrix.from_rows([[next(draw_entries) for _ in range(n)] for _ in range(n)])


def product(a, b):
    return RatMatrix.from_rows(
        [[sum(a[i, k] * b[k, j] for k in range(a.cols)) for j in range(b.cols)] for i in range(a.rows)]
    )


def test_hash_agrees_with_equality_and_matrix_stays_immutable():
    g = RatMatrix.from_rows([[1, F(1, 2)], [F(1, 2), 1]])
    assert hash(g) == hash(RatMatrix.from_rows(g.to_rows()))
    for name in ("rows", "cols", "scale", "int_rows", "entries"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
    with pytest.raises(AttributeError):
        del g.int_rows


def test_entries_of_any_rational_type_give_equal_matrices():
    rows = [[1, "1/2"], [F(1, 2), F(3)]]
    from_fractions = RatMatrix.from_rows([[F(1), F(1, 2)], [F(1, 2), F(3)]])
    mixed = RatMatrix.from_rows(rows)
    from_strings = RatMatrix.from_rows([["1", "1/2"], ["2/4", "3"]])
    parsed = RatMatrix.from_rows([[parse_rational(e) for e in row] for row in (["1", "-2/-4"], ["3/6", "6/2"])])
    assert mixed == from_fractions == from_strings == parsed
    assert hash(mixed) == hash(from_fractions) == hash(from_strings) == hash(parsed)
    assert all(type(e) is Fraction for e in mixed.entries + from_strings.entries)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: RatMatrix(2, 2, [1, 2, 3]), ValueError, r"^need 4 entries, got 3$"),
        (lambda: RatMatrix.from_scaled(0, [[1]]), ValueError, r"^need a positive scale and rows of one length$"),
        (lambda: RatMatrix.from_scaled(2, [[1, 2], [3]]), ValueError, r"^need a positive scale and rows of one"),
        (lambda: RatMatrix.from_rows([[1, 2], [3]]), ValueError, r"^ragged rows$"),
        (lambda: RatMatrix.identity(2)[2, 0], IndexError, r"^\(2, 0\)$"),
        (lambda: RatMatrix.identity(2)[0, -1], IndexError, r"^\(0, -1\)$"),
        (lambda: rational_sqrt_exact(F(-1, 4)), ValueError, r"^negative input$"),
    ],
    ids=["entry-count", "zero-scale", "ragged-scaled", "ragged-rows", "row-index", "negative-index", "negative-root"],
)
def test_bad_input_raises(build, error, message):
    with pytest.raises(error, match=message):
        build()


# --- determinant ------------------------------------------------------------


def test_det_identity():
    assert lattice_from_gram("Z3", RatMatrix.identity(3)).det_gram() == 1


def test_det_hexagonal_gram():
    g = RatMatrix.from_rows([[1, F(1, 2)], [F(1, 2), 1]])
    # 2x2 cofactor by hand: 1*1 - 1/2*1/2
    assert lattice_from_gram("hex", g).det_gram() == F(3, 4)


def test_det_staircase3_matches_cofactor_expansion():
    from wrlat import staircase

    rows = staircase(3).gram.to_rows()
    assert cofactor_det3(rows) == F(9, 16)
    assert staircase(3).det_gram() == F(9, 16)


def transpose(a):
    return RatMatrix.from_rows([list(r) for r in zip(*a.to_rows())])


def diagonal(xs):
    return RatMatrix.from_rows([[x if i == j else 0 for j in range(len(xs))] for i, x in enumerate(xs)])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.data())
def test_det_is_multiplicative(n, data):
    # det(U^T G U) = det(U)^2 det(G), the identity the minimal-basis search
    # reads |det U| from.  G = L D L^T is SPD; U = P L' S R'^T is nonsingular
    # with det U = +-prod S.
    def unitriangular(ent):
        return RatMatrix.from_rows([[data.draw(ent) if j < i else int(i == j) for j in range(n)] for i in range(n)])

    low = unitriangular(st.fractions(min_value=-3, max_value=3, max_denominator=6))
    d = [data.draw(st.fractions(min_value=F(1, 6), max_value=3, max_denominator=6)) for _ in range(n)]
    g = product(product(low, diagonal(d)), transpose(low))
    perm = data.draw(st.permutations(range(n)))
    scales = [data.draw(st.sampled_from((-3, -2, -1, 1, 2, 3))) for _ in range(n)]
    l2, r2 = unitriangular(st.integers(-2, 2)), unitriangular(st.integers(-2, 2))
    u = product(product(RatMatrix.from_rows([l2.row(p) for p in perm]), diagonal(scales)), transpose(r2))
    moved = lattice_from_gram("UtGU", product(product(transpose(u), g), u))
    assert moved.det_gram() == math.prod(scales) ** 2 * lattice_from_gram("G", g).det_gram()


# --- solve ------------------------------------------------------------------


def test_solve_identity_returns_rhs():
    b = [F(3), F(-1, 2), F(7, 5)]
    identity = RatMatrix.identity(3).to_rows()
    assert reduced_form(identity, b) == ([0, 1, 2], [[*row, v] for row, v in zip(identity, b)])


def test_solve_projection_system():
    # Cramer on [[1,-1/4],[-1/4,1]] x = (1/2, 1/4):
    # det = 15/16, x1 = (1/2 + 1/16)/(15/16) = 3/5, x2 = (1/4 + 1/8)/(15/16) = 2/5
    a = [[1, F(-1, 4)], [F(-1, 4), 1]]
    assert reduced_form(a, [F(1, 2), F(1, 4)]) == ([0, 1], [[1, 0, F(3, 5)], [0, 1, F(2, 5)]])


def test_solve_singular_returns_none():
    assert row_reduce([[1, 1], [1, 1]], [1, 2]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        row_reduce([[1, 0], [0, 1]], [1, 2, 3])


def test_row_reduce_rejects_fractions():
    # the rows are used as given, and floor division on Fractions would drop
    # this nonsingular system's second row
    with pytest.raises(TypeError):
        row_reduce([[1, F(-1, 4)], [F(-1, 4), 1]], [F(1, 2), F(1, 4)])


def eager_row_reduce(a_rows, b):
    """Reference Bareiss Gauss-Jordan on the integer system [A | b] that
    rewrites every row at every step: on the pivot p = m[r][c], each row i
    other than r becomes (p m[i] - m[i][c] m[r]) // d, with d the pivot of
    the step before (1 for the first).  Returns what `row_reduce` returns."""
    nr, nc = len(a_rows), len(a_rows[0]) if a_rows else 0
    m = [[*row, b_i] for row, b_i in zip(a_rows, b)]
    pivots, d = [], 1
    for c in range(nc):
        r = len(pivots)
        s = next((i for i in range(r, nr) if m[i][c]), None)
        if s is None:
            continue
        m[r], m[s] = m[s], m[r]
        top = m[r]
        p = top[c]
        m = [row if i == r else [(p * x - row[c] * y) // d for x, y in zip(row, top)] for i, row in enumerate(m)]
        d = p
        pivots.append(c)
    if any(m[i][nc] for i in range(len(pivots), nr)):
        return None
    return m[: len(pivots)], pivots, d


sparse_entries = st.sampled_from([0, 0, 0, -3, -2, -1, 1, 2, 3])


@st.composite
def integer_systems(draw):
    """(A, b) on integers, half of A's entries zero: each column drawn, zero,
    or a multiple of an earlier one; each row after the first possibly a
    combination of two earlier ones; b either A x, so consistent, or drawn,
    so mostly inconsistent where A is rank-deficient.  Negative pivots come
    from the negative entries."""
    nr, nc = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cols = []
    for _ in range(nc):
        kind = draw(st.sampled_from(["drawn", "drawn", "zero", "repeated"]))
        if kind == "zero":
            cols.append([0] * nr)
        elif kind == "repeated" and cols:
            f = draw(st.sampled_from([-2, -1, 1, 2]))
            cols.append([f * x for x in draw(st.sampled_from(cols))])
        else:
            cols.append([draw(sparse_entries) for _ in range(nr)])
    a = [list(row) for row in zip(*cols)]
    for i in range(1, nr):
        if draw(st.integers(0, 2)) == 0:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            f, g = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            a[i] = [f * x + g * y for x, y in zip(a[j], a[k])]
    if draw(st.booleans()):
        x = [draw(st.integers(-2, 2)) for _ in range(nc)]
        return a, [sum(map(operator.mul, row, x)) for row in a]
    return a, [draw(sparse_entries) for _ in range(nr)]


@settings(max_examples=400, deadline=None)
@given(integer_systems())
@example(([[0, 2, 1], [3, 0, 0], [0, 0, 5], [3, 2, 6]], [1, 2, 3, 6]))  # rank-deficient, consistent
@example(([[1, 1, 0], [2, 2, 0], [0, 1, 0]], [1, 3, 4]))  # zero column, inconsistent
@example(([[-2, 0, -4, 1], [0, -3, 0, 2], [1, 1, 2, 0]], [1, -1, 2]))  # negative pivots, repeated column
def test_row_reduce_equals_the_eager_reference(system):
    # the lazy elimination rewrites only the rows it must, yet returns the
    # eager rows, pivots and d exactly, which the LP's exact divisions need
    a, b = system
    assert row_reduce(a, b) == eager_row_reduce(a, b)


@settings(max_examples=60)
@given(st.integers(1, 4), st.data())
def test_solve_solution_satisfies_system(n, data):
    # x = rhs at the pivots and 0 elsewhere solves A x = b; each free column
    # f gives the null vector e_f - (column f at the pivots)
    ent = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    a = [[data.draw(ent) for _ in range(n)] for _ in range(n)]
    b = [data.draw(ent) for _ in range(n)]
    solution = reduced_form(a, b)
    if solution is not None:
        pivots, rows = solution
        x = [F(0)] * n
        for c, row in zip(pivots, rows):
            x[c] = row[-1]
        null_basis = []
        for f in (j for j in range(n) if j not in pivots):
            v = [F(int(j == f)) for j in range(n)]
            for c, row in zip(pivots, rows):
                v[c] = -row[f]
            null_basis.append(v)
        for i in range(n):
            assert sum(a[i][j] * x[j] for j in range(n)) == b[i]
            assert all(sum(a[i][j] * v[j] for j in range(n)) == 0 for v in null_basis)


# --- adjugate -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(positive_definite_integer())
def test_adjugate_times_matrix_is_det_times_identity(a):
    n = len(a)
    det, adj = adjugate(a)
    assert det == diagonal_pivots(a)[0][-1] > 0
    assert [[sum(a[i][t] * adj[t][j] for t in range(n)) for j in range(n)] for i in range(n)] == [
        [det * (i == j) for j in range(n)] for i in range(n)
    ]


# --- rank ---------------------------------------------------------------


def test_rank_zero_matrix():
    assert int_rank(RatMatrix(3, 3, [0] * 9).int_rows) == 0


def test_rank_identity():
    for n in (1, 2, 5):
        assert int_rank(RatMatrix.identity(n).int_rows) == n


def test_rank_of_rank_one_forms():
    # vectorized e1 e1^T, e2 e2^T, (e1-e2)(e1-e2)^T in the 3-dim symmetric space
    rows = [
        [1, 0, 0],  # (1,0) outer: entries (11, 12, 22)
        [0, 0, 1],
        [1, -1, 1],
    ]
    assert int_rank(rows) == 3


# --- diagonal pivots ---------------------------------------------------


def ldl_factors(g):
    """L and D of G = L D L^T, read from the pivots and columns of s G:
    D_k = P_{k+1} / (s P_k) and L_jk = M_jk / P_{k+1}."""
    scale, m = g.scale, g.int_rows
    pivots, cols = diagonal_pivots(m)
    n = g.rows
    diag = tuple(F(p, scale * prev) for prev, p in zip(pivots, pivots[1:]))
    low = [[F(cols[j][i - j], pivots[j + 1]) if j < i else F(int(i == j)) for j in range(n)] for i in range(n)]
    return RatMatrix.from_rows(low), diag


def upper(m):
    return [row[i:] for i, row in enumerate(m)]


def reference_diagonal_pivots(m):
    """`diagonal_pivots` by the square reference step: P_0 = 1, P_1, ... and the
    first column of each residual, up to and with the first pivot <= 0."""
    pivots, cols = [1], []
    while m:
        pivots.append(m[0][0])
        cols.append([row[0] for row in m])
        if m[0][0] <= 0:
            break
        m = schur_step(m, pivots[-2], 0, 0)
    return pivots, cols


@st.composite
def symmetric_integer(draw):
    """A symmetric integer matrix: positive definite, a positive-semidefinite
    Gram of more small vectors than the rank (zero minors), or indefinite."""
    kind = draw(st.sampled_from(["definite", "pair Gram", "indefinite"]))
    if kind == "definite":
        return draw(positive_definite_integer(max_n=7))
    if kind == "pair Gram":
        a = draw(positive_definite_integer(max_n=4))
        n = len(a)
        return gram_of_vectors(a, [[draw(st.integers(-1, 1)) for _ in range(n)] for _ in range(draw(st.integers(n, n + 3)))])
    n = draw(st.integers(1, 6))
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(st.integers(-3, 3))
    return m


@settings(max_examples=200, deadline=None)
@given(symmetric_integer())
@example([[2, 1], [1, 2]])
@example([[2, 2, 1], [2, 2, 1], [1, 1, 2]])  # a repeated vector: P_2 = 0 stops it
@example([[1, 2, 0], [2, 1, 0], [0, 0, 1]])  # P_2 = -3 stops it
def test_diagonal_pivots_equal_the_square_reference(m):
    assert diagonal_pivots(m) == reference_diagonal_pivots(m)


@settings(max_examples=200, deadline=None)
@given(symmetric_integer(), st.data())
def test_tail_steps_equal_the_square_reference(m, data):
    # steps at drawn positions on the upper rows equal the square step on the
    # same tail; a step on a zero minor ends the chain, as its pivot would be
    # the next d
    d, square, tail = 1, m, upper(m)
    while square:
        k = data.draw(st.integers(0, len(square) - 1))
        after, got = schur_step([row[k:] for row in square[k:]], d, 0, 0), tail_step(tail, d, k)
        assert got == upper(after)
        if not square[k][k]:
            break
        d, square, tail = square[k][k], after, got


def test_ldl_identity():
    assert diagonal_pivots([list(r) for r in RatMatrix.identity(3).int_rows]) == ([1] * 4, [[1, 0, 0], [1, 0], [1]])
    assert ldl_factors(RatMatrix.identity(4)) == (RatMatrix.identity(4), (F(1),) * 4)


def test_ldl_hexagonal():
    # s = 2 and s G = [[2, 1], [1, 2]], with leading minors 1, 2, 3
    assert diagonal_pivots([[2, 1], [1, 2]]) == ([1, 2, 3], [[2, 1], [3]])
    g = RatMatrix.from_rows([[1, F(1, 2)], [F(1, 2), 1]])
    assert ldl_factors(g) == (RatMatrix.from_rows([[1, 0], [F(1, 2), 1]]), (F(1), F(3, 4)))


def test_ldl_rejects_singular():
    # the pivots stop after the first one <= 0; the message gives D_k = P_{k+1} / (s P_k)
    assert diagonal_pivots([[1, 2, 0], [2, 1, 0], [0, 0, 1]]) == ([1, 1, -3], [[1, 2, 0], [-3, 0]])
    with pytest.raises(NotPositiveDefinite, match=r"^pivot 1 is 0$"):
        lattice_from_gram("singular", [[1, 1], [1, 1]])
    with pytest.raises(NotPositiveDefinite, match=r"^pivot 1 is -3$"):
        lattice_from_gram("indefinite", [[1, 2], [2, 1]])
    with pytest.raises(NotPositiveDefinite, match=r"^pivot 0 is -1/2$"):
        lattice_from_gram("negative", [[F(-1, 2), 0], [0, 1]])


def test_ldl_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        lattice_from_gram("asymmetric", [[1, 0], [1, 1]])


@settings(max_examples=40)
@given(st.integers(1, 4), st.data())
def test_ldl_reconstructs_exactly(n, data):
    # G = L D L^T from drawn factors: the pivots and columns of s G give them back
    ent = st.fractions(min_value=-2, max_value=2, max_denominator=4)
    pos = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)
    low = [[F(1) if i == j else (data.draw(ent) if j < i else F(0)) for j in range(n)] for i in range(n)]
    diag = [data.draw(pos) for _ in range(n)]
    g = RatMatrix.from_rows(
        [
            [sum(low[i][k] * diag[k] * low[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    )
    assert ldl_factors(g) == (RatMatrix.from_rows(low), tuple(diag))


# --- integer square root of rationals ------------------------------------


@pytest.mark.parametrize(
    "q,expected",
    [(F(0), 0), (F(17, 4), 2), (F(9), 3), (F(1, 2), 0), (F(99, 100), 0), (F(101, 100), 1)],
)
def test_int_sqrt_floor_values(q, expected):
    assert int_sqrt_floor(q) == expected


def test_int_sqrt_floor_rejects_negative():
    with pytest.raises(ValueError):
        int_sqrt_floor(F(-1, 2))


@settings(max_examples=200)
@given(st.fractions(min_value=0, max_value=10**6, max_denominator=10**4))
def test_int_sqrt_floor_brackets(q):
    t = int_sqrt_floor(q)
    assert t * t <= q < (t + 1) * (t + 1)


# --- scalar parsing -------------------------------------------------------


@pytest.mark.parametrize("text,value", [("3/4", F(3, 4)), ("-1/2", F(-1, 2)), ("5", F(5)), (" -7 ", F(-7))])
def test_parse_rational(text, value):
    assert parse_rational(text) == value


def test_parse_rational_rejects_floats():
    with pytest.raises(ValueError):
        parse_rational("0.5")


def test_format_round_trips():
    for x in (F(3, 4), F(-1, 2), F(5), F(0)):
        assert parse_rational(format_rational(x)) == x
