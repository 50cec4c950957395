import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wrlat import (
    Lattice,
    NotPositiveDefinite,
    NotSymmetric,
    RationalizationFailed,
    RatMatrix,
    coherence,
    direct_sum,
    hexagonal,
    integer_lattice,
    k3_prime,
    an_dual_frame,
    an_root,
    hybrid,
    lattice_from_float_basis,
    lattice_from_gram,
    lattice_from_json_dict,
    lattice_to_json_dict,
    lnm,
    load_lattice,
    minimal_norm_sq,
    minimal_vectors,
    normalize_min_norm,
    principal_sublattice,
    reorder_basis,
    scale_gram,
    save_lattice,
    staircase,
)
from wrlat import lattice
from wrlat.constructions import hybrid_max_m

F = Fraction


def test_from_gram_z2():
    lat = lattice_from_gram("Z2", [[1, 0], [0, 1]])
    assert lat.rank == 2 and lat.det_gram() == 1


def test_from_gram_hexagonal():
    lat = lattice_from_gram("hex", [[1, F(1, 2)], [F(1, 2), 1]])
    assert lat.det_gram() == F(3, 4)


def test_from_gram_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        lattice_from_gram("bad", [[1, 1], [1, 1]])


@pytest.mark.parametrize(
    "rank, rows, error",
    [
        (3, [[1, 0], [0, 1]], ValueError),  # rank mismatch
        (2, [[1, 0, 0], [0, 1, 0]], ValueError),  # not square
        (2, [[1, F(1, 2)], [0, 1]], NotSymmetric),
        (2, [[1, F(1, 2)], [F(1, 3), 1]], NotSymmetric),  # asymmetric in the denominators only
        (2, [[1, F(1, 3)], [F(1, 3) + F(1, 10**30), 1]], NotSymmetric),  # off by 1/10^30
    ],
)
def test_lattice_checks_its_gram(rank, rows, error):
    # only a lattice file states a rank; the loader checks the Gram against
    # it, and Lattice checks the Gram itself
    d = {"name": "bad", "rank": rank, "gram": [[str(x) for x in row] for row in rows]}
    with pytest.raises(error):
        lattice_from_json_dict(d)


def test_lattice_needs_a_square_gram():
    with pytest.raises(ValueError, match="square"):
        Lattice("bad", RatMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))


def test_lattice_rejects_a_gram_that_is_not_positive_definite():
    # symmetric but indefinite: an angle profile on it would read cos^2 = 4
    with pytest.raises(NotPositiveDefinite, match=r"^pivot 1 is -3$"):
        Lattice("x", RatMatrix.from_rows([[1, 2], [2, 1]]))


def test_lattice_rejects_rows_for_a_gram():
    with pytest.raises(TypeError, match=r"^Lattice needs a RatMatrix, not list: use lattice_from_gram for rows$"):
        Lattice("x", [[1, 0], [0, 1]])


def test_float_basis_hexagonal():
    cols = [(1.0, 0.0), (0.5, math.sqrt(3) / 2)]
    lat = lattice_from_float_basis("hex", cols)
    assert lat.gram == hexagonal().gram


def test_float_basis_orthonormal():
    lat = lattice_from_float_basis("z3", [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert lat.gram == RatMatrix.identity(3)


def test_float_basis_staircase4_columns():
    # the explicit rank-4 chain basis, entries in Q(sqrt(3)); its dot
    # products are rational and must reproduce the recursion Gram exactly
    s3 = math.sqrt(3)
    cols = [
        (1.0, 0.0, 0.0, 0.0),
        (0.5, s3 / 2, 0.0, 0.0),
        (0.25, -s3 / 4, s3 / 2, 0.0),
        (0.125, -s3 / 8, -s3 / 4, s3 / 2),
    ]
    lat = lattice_from_float_basis("L4", cols)
    assert lat.gram == staircase(4).gram


def test_float_basis_rejects_unrationalizable(monkeypatch):
    cols = [(1.0, 0.0), (math.pi / 5, 1.0)]
    monkeypatch.setattr(lattice, "FLOAT_MAX_DENOMINATOR", 3)
    with pytest.raises(RationalizationFailed, match="no denominator-3 approximation"):
        lattice_from_float_basis("bad", cols)


def test_float_basis_rejects_dependent_columns():
    # the second basis has the float Gram [[1, 1], [1, 1 + 1e-14]], which
    # rationalizes to the singular [[1, 1], [1, 1]]
    for cols in ([(1.0, 0.0), (2.0, 0.0)], [(1.0, 0.0), (1.0, 1e-7)]):
        with pytest.raises(ValueError, match=r"^basis columns are not numerically independent$"):
            lattice_from_float_basis("dep", cols)


@pytest.mark.parametrize("n", [2, 3])
def test_float_basis_accepts_short_independent_columns(n):
    # independence is decided on the rationalized Gram, at any scale
    cols = [tuple(1e-3 * (i == j) for j in range(n)) for i in range(n)]
    lat = lattice_from_float_basis("short", cols)
    assert lat.gram == RatMatrix.identity(n).scaled(F(1, 10**6))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_float_basis_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="finite"):
        lattice_from_float_basis("bad", ((1.0, bad), (0.0, 1.0)))
    with pytest.raises(ValueError, match="finite"):
        lattice_from_float_basis("bad", [(1.0, 0.0), (bad, 1.0)])


def test_direct_sum_of_lines_is_plane():
    z1 = integer_lattice(1)
    assert direct_sum(z1, z1).gram == RatMatrix.identity(2)


def test_direct_sum_hex_plus_line_matches_block_family():
    got = direct_sum(hexagonal(), integer_lattice(1))
    assert got.gram == lnm(3, 1).gram


# Small lattices, scaled so that the minimal norms of two summands sometimes
# match and sometimes differ.
summands = st.builds(
    scale_gram,
    st.sampled_from([integer_lattice(1), integer_lattice(2), hexagonal(), staircase(3), lnm(3, 1), k3_prime(),
                     an_root(3), an_dual_frame(3)]),
    st.sampled_from([F(1), F(2), F(1, 2), F(4, 3)]),
)


@settings(max_examples=40, deadline=None)
@given(summands, summands)
@example(staircase(3), hexagonal())
def test_direct_sum_det_multiplicative(a, b):
    assert direct_sum(a, b).det_gram() == a.det_gram() * b.det_gram()


@settings(max_examples=40, deadline=None)
@given(summands, summands, st.booleans())
@example(staircase(3), hexagonal(), False)
def test_direct_sum_minimal_vectors_union(a, b, match):
    # the summand with the smaller minimal norm keeps its minimal vectors;
    # when the norms match, both do and the kissing numbers add
    if match:
        a, b = normalize_min_norm(a), normalize_min_norm(b)
    na, nb = minimal_norm_sq(a), minimal_norm_sq(b)
    left = {u + (0,) * b.rank for u in minimal_vectors(a).pairs} if na <= nb else set()
    right = {(0,) * a.rank + w for w in minimal_vectors(b).pairs} if nb <= na else set()
    mvs = minimal_vectors(direct_sum(a, b))
    assert mvs.norm_sq == min(na, nb)
    assert set(mvs.pairs) == left | right
    if na == nb:
        assert mvs.count == minimal_vectors(a).count + minimal_vectors(b).count


@settings(max_examples=40, deadline=None)
@given(summands, summands)
def test_direct_sum_coherence_is_the_larger(a, b):
    # pairs from different summands are orthogonal, so with matching norms the
    # coherence is the larger of the two (a summand with one pair adds only 0s)
    def coh(lat):
        return coherence(lat).value if len(minimal_vectors(lat).pairs) > 1 else 0

    a, b = normalize_min_norm(a), normalize_min_norm(b)
    assert coherence(direct_sum(a, b)).value == max(coh(a), coh(b))


@st.composite
def derived_lattices(draw):
    """A lattice that one of the Gram-building operations made."""
    a = draw(summands)
    op = draw(st.sampled_from(["scale", "sum", "sub", "reorder", "lnm", "hybrid"]))
    if op == "scale":
        return scale_gram(a, draw(st.fractions(min_value=F(1, 12), max_value=12, max_denominator=12)))
    if op == "sum":
        return direct_sum(a, draw(summands))
    perm = draw(st.permutations(range(a.rank)))
    if op == "sub":
        return principal_sublattice(a, perm[: draw(st.integers(1, a.rank))])
    if op == "reorder":
        return reorder_basis(a, perm)
    n = draw(st.integers(3, 8))
    if op == "lnm":
        return lnm(n, draw(st.integers(0, n // 2)))
    return hybrid(n, draw(st.integers(1, hybrid_max_m(n))))


@settings(max_examples=120, deadline=None)
@given(derived_lattices())
@example(scale_gram(hexagonal(), 2))  # the factor cancels every denominator: s = 1
@example(principal_sublattice(lnm(3, 1), [2]))  # the block left has no denominator
def test_scale_stays_canonical(lat):
    # s is the lcm of the Gram's denominators and int_gram is s G, in ints only
    g = lat.gram
    assert lat.scale == math.lcm(*(e.denominator for e in g.entries))
    assert lat.int_gram == tuple(tuple(lat.scale * e for e in g.row(i)) for i in range(lat.rank))
    assert all(type(x) is int for x in (g.rows, g.cols, g.scale, *(x for row in g.int_rows for x in row)))
    # equal rational Grams give equal lattices, from Fraction, str or int entries
    rows = g.to_rows()
    twins = [
        lattice_from_gram(lat.name, rows, lat.provenance),
        lattice_from_gram(lat.name, [[str(e) for e in row] for row in rows], lat.provenance),
        scale_gram(lattice_from_gram(lat.name, lat.int_gram, lat.provenance), F(1, lat.scale)),
    ]
    assert all(t == lat and hash(t) == hash(lat) for t in twins)


def test_lattice_is_immutable():
    lat = staircase(3)
    for name in ("name", "gram", "provenance", "leading_minors", "rank", "scale", "int_gram", "other"):
        with pytest.raises(AttributeError):
            setattr(lat, name, None)
    with pytest.raises(AttributeError):
        del lat.name
    assert lat.name == "staircase(3)" and lat == staircase(3)


@pytest.mark.parametrize("factor", [0, -1, F(-1, 2)])
def test_scale_gram_rejects_a_factor_that_is_not_positive(factor):
    with pytest.raises(ValueError, match="^scale factor must be positive$"):
        scale_gram(hexagonal(), factor)


def test_normalize_identity_noop():
    z = integer_lattice(4)
    assert normalize_min_norm(z).gram == z.gram


def test_normalize_scaling():
    lat = lattice_from_gram("4I", [[4, 0], [0, 4]])
    assert normalize_min_norm(lat).gram == RatMatrix.identity(2)


def test_normalize_root_lattice():
    for n in (2, 3, 4):
        lat = an_root(n)
        assert minimal_norm_sq(lat) == 2
        normed = normalize_min_norm(lat)
        assert normed.gram == lat.gram.scaled(F(1, 2))
        assert minimal_norm_sq(normed) == 1


def test_normalize_idempotent():
    lat = an_root(3)
    once = normalize_min_norm(lat)
    assert normalize_min_norm(once).gram == once.gram


def test_principal_sublattice_prefix_of_staircase():
    assert principal_sublattice(staircase(4), (0, 1, 2)).gram == staircase(3).gram


def test_principal_sublattice_full_set():
    lat = staircase(3)
    assert principal_sublattice(lat, (0, 1, 2)).gram == lat.gram


def test_principal_sublattice_block_extraction():
    assert principal_sublattice(lnm(4, 2), (0, 1)).gram == hexagonal().gram


def test_principal_sublattice_rejects_bad_indices():
    with pytest.raises(ValueError):
        principal_sublattice(staircase(3), ())
    with pytest.raises(ValueError):
        principal_sublattice(staircase(3), (0, 3))
    with pytest.raises(ValueError):
        principal_sublattice(staircase(3), (1, 1))


def test_reorder_identity():
    lat = staircase(3)
    assert reorder_basis(lat, (0, 1, 2)).gram == lat.gram


def test_reorder_staircase3_cycle():
    got = reorder_basis(staircase(3), (1, 2, 0))
    want = [
        [1, F(-1, 4), F(1, 2)],
        [F(-1, 4), 1, F(1, 4)],
        [F(1, 2), F(1, 4), 1],
    ]
    assert got.gram == RatMatrix.from_rows(want)


def test_reorder_roundtrip():
    lat = lnm(4, 1)
    perm = (2, 0, 3, 1)
    inverse = tuple(perm.index(i) for i in range(4))
    assert reorder_basis(reorder_basis(lat, perm), inverse).gram == lat.gram


def test_reorder_rejects_bad_permutation():
    with pytest.raises(ValueError):
        reorder_basis(staircase(3), (0, 0, 1))


def test_reorder_preserves_invariants():
    lat = staircase(4)
    moved = reorder_basis(lat, (3, 1, 0, 2))
    assert moved.det_gram() == lat.det_gram()
    assert minimal_norm_sq(moved) == minimal_norm_sq(lat)
    assert minimal_vectors(moved).count == minimal_vectors(lat).count
    assert coherence(moved).value == coherence(lat).value


# --- JSON round-trips -------------------------------------------------------


def test_json_roundtrip(tmp_path):
    lat = staircase(5)
    path = tmp_path / "st5.json"
    save_lattice(lat, str(path))
    back = load_lattice(str(path))
    assert back.gram == lat.gram and back.name == lat.name


def test_json_gram_strings():
    d = lattice_to_json_dict(hexagonal())
    assert d["gram"] == [["1", "1/2"], ["1/2", "1"]]


def test_json_with_consistent_basis():
    d = lattice_to_json_dict(hexagonal())
    d["basis"] = [[1.0, 0.0], [0.5, math.sqrt(3) / 2]]
    assert lattice_from_json_dict(d).gram == hexagonal().gram


def test_json_with_inconsistent_basis_fails():
    d = lattice_to_json_dict(hexagonal())
    d["basis"] = [[1.0, 0.0], [0.0, 1.0]]  # orthonormal columns cannot give the hex Gram
    with pytest.raises(ValueError):
        lattice_from_json_dict(d)


def test_json_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x", "rank": 2, "gram": [["1"]]}))
    with pytest.raises(ValueError):
        load_lattice(str(path))
