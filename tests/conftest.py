from fractions import Fraction

import pytest
from hypothesis import strategies as st

from wrlat import (
    direct_sum,
    hexagonal,
    integer_lattice,
    k3_prime,
    lattice_from_gram,
    lnm,
    scale_gram,
    staircase,
)
from wrlat.ratlinalg import RatMatrix, row_reduce

F = Fraction


@pytest.fixture
def hex_lattice():
    return hexagonal()


@pytest.fixture
def z2():
    return integer_lattice(2)


@pytest.fixture
def staircase3():
    return staircase(3)


@pytest.fixture
def k3():
    return k3_prime()


@pytest.fixture
def a2_plus_z():
    return lnm(3, 1)


E6_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]
E7_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)]
D4_EDGES = [(0, 1), (1, 2), (1, 3)]


def root_lattice(name, n, edges):
    """The root lattice with the given Dynkin diagram, its Cartan matrix as Gram."""
    gram = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b in edges:
        gram[a][b] = gram[b][a] = -1
    return lattice_from_gram(name, gram)


def root_plus_hexagonal(name, n, edges):
    """The root lattice with the given Dynkin diagram plus 2 A2, the
    hexagonal plane at the same minimal norm 2."""
    return direct_sum(root_lattice(name, n, edges), scale_gram(hexagonal(), 2))


def gram_rows(lat):
    return lat.gram.to_rows()


def cofactor_det3(m):
    """Independent 3x3 determinant by literal cofactor expansion."""
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def reduced_form(a, b):
    """(pivots, rows / d) of `row_reduce` on the rational system [A | b],
    scaled to integers by one factor (which keeps its solutions), or None
    when it is inconsistent."""
    m = RatMatrix.from_rows([[*row, v] for row, v in zip(a, b)]).int_rows
    reduced = row_reduce([row[:-1] for row in m], [row[-1] for row in m])
    if reduced is None:
        return None
    rows, pivots, d = reduced
    return pivots, [[F(x, d) for x in row] for row in rows]


def schur_step(m, d, r, c):
    """Reference forward step on the square residual m: every row i other than
    r becomes (p m[i] - m[i][c] m[r]) // d on the pivot p = m[r][c], without
    column c.  For a symmetric integer A and an index set S, with d = det A_SS
    (1 for S empty) and m[i][j] = det A_{S+i,S+j} over the indices outside S,
    the step on (p, p) gives the same for S + p."""
    top = m[r]
    p = top[c]
    return [
        [(p * x - row[c] * y) // d for j, (x, y) in enumerate(zip(row, top)) if j != c]
        for i, row in enumerate(m)
        if i != r
    ]


def cofactor_det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def to_sympy(rows):
    import sympy  # only the modules that skip without sympy call this

    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])


def from_sympy(x):
    return F(int(x.p), int(x.q))


def quad_form(lat, u):
    n = lat.rank
    return sum(lat.gram[i, j] * u[i] * u[j] for i in range(n) for j in range(n))


# Z^4 in a basis that pair-reduces to norms 2, 2, 2, 3: its four minimal
# pairs all have top 3, so the walk falls back on the integer rank to see
# that they span
Z4_TOPS_MISS_A_LEVEL = [[15, -4, -4, -9], [-4, 2, 0, 5], [-4, 0, 3, -1], [-9, 5, -1, 13]]


def hex_plus_2():
    """hex (+) [2]: three minimal pairs, as many as the rank, all in one plane."""
    return direct_sum(hexagonal(), lattice_from_gram("two", [[2]]))


def disguise(lat, moves):
    """The lattice in the basis b_j += s b_i, one move per (i, j, s), and the
    integer matrix U whose columns give the new basis in the old one."""
    n = lat.rank
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, s in moves:
        for r in range(n):
            u[r][j] += s * u[r][i]
    g = lat.gram
    rows = [
        [sum(u[a][i] * g[a, b] * u[b][j] for a in range(n) for b in range(n)) for j in range(n)]
        for i in range(n)
    ]
    return lattice_from_gram(f"{lat.name}~", rows), u


@st.composite
def positive_definite_integer(draw, max_n=8):
    """B B^T + D for an integer B and a positive integer diagonal D, rank 1 to max_n."""
    n = draw(st.integers(1, max_n))
    b = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(n)]
    dg = [draw(st.integers(1, 3)) for _ in range(n)]
    return [[sum(x * y for x, y in zip(b[i], b[j])) + (dg[i] if i == j else 0) for j in range(n)] for i in range(n)]
