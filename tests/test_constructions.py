from fractions import Fraction

import pytest

from wrlat import (
    EutaxyClass,
    InputError,
    PlanarSearchFailed,
    RatMatrix,
    an_dual_frame,
    an_root,
    coherence,
    coxeter_barnes,
    eutaxy_classify,
    hexagonal,
    hybrid,
    integer_lattice,
    is_well_rounded,
    k3_prime,
    lattice_from_gram,
    lnm,
    minimal_norm_sq,
    minimal_vectors,
    mu_nu,
    normalize_min_norm,
    packing_density,
    planar_wr,
    reorder_basis,
    staircase,
)
from wrlat import constructions
from wrlat.constructions import is_squarefree, weak_family_lattices

from conftest import quad_form

F = Fraction
HALF = F(1, 2)


def test_integer_lattice_basics():
    lat = integer_lattice(3)
    assert coherence(lat).value == 0
    assert eutaxy_classify(lat).klass is EutaxyClass.STRONGLY_EUTACTIC


def test_hexagonal_basics():
    lat = hexagonal()
    assert minimal_vectors(lat).count == 6
    assert abs(packing_density(lat).delta_float - 0.9069) < 1e-4
    mu, _ = mu_nu(lat)
    assert mu.exact_cos == HALF


def test_lnm_small_cases():
    assert minimal_vectors(lnm(3, 1)).count == 8
    assert minimal_vectors(lnm(4, 2)).count == 12


def test_lnm_maximal_blocks():
    for n in range(2, 9):
        m = n // 2
        want = 3 * n if n % 2 == 0 else 3 * n - 1
        assert minimal_vectors(lnm(n, m)).count == want


def test_lnm_equals_explicit_unit_basis():
    # rank-3 instance from exact dot products of the printed unit columns
    # (1,1,0)/sqrt2, (1,0,1)/sqrt2, (-1,1,1)/sqrt3
    g = [[1, HALF, 0], [HALF, 1, 0], [0, 0, 1]]
    assert lnm(3, 1).gram == RatMatrix.from_rows(g)


def test_lnm_rejects_bad_parameters():
    with pytest.raises(ValueError):
        lnm(3, 2)
    with pytest.raises(ValueError):
        lnm(1, 0)


@pytest.mark.parametrize(
    "make, args",
    [
        (integer_lattice, (4,)),
        (hexagonal, ()),
        (lnm, (5, 2)),
        (staircase, (6,)),
        (hybrid, (7, 2)),
        (k3_prime, ()),
        (an_root, (5,)),
        (an_dual_frame, (5,)),
        (coxeter_barnes, (7, 4)),
    ],
)
def test_family_constructors_share_one_lattice_per_argument_tuple(make, args):
    lat = make(*args)
    assert make(*args) is lat
    fresh = make.__wrapped__(*args)  # the constructor without its cache
    assert fresh == lat and fresh is not lat


@pytest.mark.parametrize("make, args", [(lnm, (3, 2)), (coxeter_barnes, (6, 7)), (hybrid, (4, 2))])
def test_a_bad_family_call_raises_every_time(make, args):
    for _ in range(2):  # lru_cache stores no exception, so the second call is checked anew
        with pytest.raises(InputError):
            make(*args)


def test_staircase_2_is_hexagonal():
    assert staircase(2).gram == hexagonal().gram


def test_staircase_4_entries():
    g = staircase(4).gram
    assert g[0, 1] == HALF
    assert g[0, 2] == F(1, 4) and g[1, 2] == F(-1, 4)
    assert g[0, 3] == F(1, 8) and g[1, 3] == F(-1, 8) and g[2, 3] == F(-1, 4)


def test_staircase_closed_form_entries():
    # the recursion telescopes: g_0k = 2^-k, g_ik = -2^(i-k-1) for 0 < i < k
    for n in (3, 5, 7):
        g = staircase(n).gram
        for k in range(1, n):
            assert g[0, k] == F(1, 2**k)
            for i in range(1, k):
                assert g[i, k] == -F(1, 2 ** (k - i + 1)), (i, k)


def test_staircase_counts():
    for n in range(2, 8):
        assert minimal_vectors(staircase(n)).count == 4 * n - 2


def test_staircase_unit_chain():
    for n in range(2, 9):
        lat = staircase(n)
        for k in range(2, n + 1):
            u = tuple([1] + [-1] * (k - 1) + [0] * (n - k))
            assert quad_form(lat, u) == 1


def test_staircase_minimal_norm_one():
    for n in range(2, 9):
        assert minimal_norm_sq(staircase(n)) == 1


def test_hybrid_counts_piecewise():
    for n in range(3, 9):
        top = (n - 2) // 2 if n % 2 == 0 else (n - 1) // 2
        for m in range(1, top + 1):
            want = 3 * n + 2 * m if n % 2 == 0 else 3 * n - 1 + 2 * m
            assert minimal_vectors(hybrid(n, m)).count == want, (n, m)


def test_hybrid_5_1():
    assert minimal_vectors(hybrid(5, 1)).count == 16


def test_hybrid_6_1():
    assert minimal_vectors(hybrid(6, 1)).count == 20


def test_hybrid_boundary_is_pure_staircase():
    assert hybrid(5, 2).gram == staircase(5).gram
    assert hybrid(6, 2).gram == staircase(6).gram


def test_hybrid_rejects_bad_parameters():
    for n, m in ((3, 2), (4, 2), (5, 3), (2, 1)):
        with pytest.raises(ValueError):
            hybrid(n, m)


def test_k3_prime_gram_and_count():
    lat = k3_prime()
    assert lat.gram == RatMatrix.from_rows(
        [[1, -HALF, -HALF], [-HALF, 1, F(1, 4)], [-HALF, F(1, 4), 1]]
    )
    assert minimal_vectors(lat).count == 10


def test_k3_prime_pairwise_cosines():
    g = k3_prime().gram
    assert abs(g[0, 1]) == HALF and abs(g[0, 2]) == HALF and abs(g[1, 2]) == F(1, 4)


def test_an_root_gram():
    g = an_root(3).gram
    assert g == RatMatrix.from_rows([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])


def test_an_root_kissing():
    for n in (2, 3, 4, 5):
        assert minimal_vectors(an_root(n)).count == n * (n + 1)


def test_a2_root_is_hexagonal_up_to_sign():
    normed = normalize_min_norm(an_root(2))
    flipped = reorder_basis(normed, (0, 1))  # same order; flip via conjugation below
    rows = normed.gram.to_rows()
    rows[0][1] = -rows[0][1]
    rows[1][0] = -rows[1][0]
    assert RatMatrix.from_rows(rows) == hexagonal().gram
    assert minimal_vectors(flipped).count == 6


def test_frame_gram_entries():
    for n in (2, 3, 5, 7):
        g = an_dual_frame(n).gram
        for i in range(n):
            for j in range(n):
                want = F(1) if i == j else F(-1, n)
                assert g[i, j] == want


def test_frame_counts_and_coherence():
    for n in range(2, 8):
        lat = an_dual_frame(n)
        assert minimal_vectors(lat).count == 2 * n + 2
        assert coherence(lat).value == F(1, n)


def test_coxeter_barnes_parameters():
    with pytest.raises(ValueError):
        coxeter_barnes(7, 3)  # 3 does not divide 8
    with pytest.raises(ValueError):
        coxeter_barnes(7, 8)  # r must be a proper divisor
    with pytest.raises(ValueError):
        coxeter_barnes(6, 7)
    coxeter_barnes(7, 2)
    coxeter_barnes(7, 4)
    coxeter_barnes(8, 3)


def test_coxeter_barnes_gram_entries():
    g = coxeter_barnes(7, 4).gram
    assert g[0, 0] == 2 and g[0, 1] == 1
    assert g[0, 6] == 2  # (n+1)/r
    assert g[6, 6] == F(7 * 8, 16)  # glue vector norm n(n+1)/r^2


def test_coxeter_barnes_coherence_below_half():
    assert coherence(coxeter_barnes(7, 4)).value == F(1, 3)


def test_squarefree_detection():
    assert is_squarefree(1) and is_squarefree(2) and is_squarefree(30)
    assert not is_squarefree(4) and not is_squarefree(12) and not is_squarefree(0)


@pytest.mark.parametrize(
    "eps,d,m,n,p,q,r",
    [
        (F(1, 10), 2, 3, 2, 1, 17, 12),
        (F(1, 20), 3, 7, 4, 1, 97, 56),
        (F(1, 100), 2, 17, 12, 1, 577, 408),
        (F(1, 2), 1, 3, 2, 5, 13, 12),
    ],
)
def test_planar_known_quadruples(eps, d, m, n, p, q, r):
    res = planar_wr(eps, d)
    assert (res.m, res.n, res.p, res.q, res.r) == (m, n, p, q, r)
    assert res.p**2 + res.r**2 * d == res.q**2
    assert not res.recipe_used


def test_planar_closed_form_path():
    res = planar_wr(F(1, 4), 19)
    assert res.recipe_used
    assert (res.m, res.n) == (9, 2)
    assert (res.p, res.q, res.r) == (5, 157, 36)
    assert res.bound_holds


def test_planar_output_properties():
    for eps, d in ((F(1, 10), 2), (F(1, 2), 1), (F(1, 4), 19)):
        res = planar_wr(eps, d)
        lat = res.lattice
        assert lat.scale == 1  # integral Gram: the canonical scale is 1
        assert is_well_rounded(lat)
        assert minimal_norm_sq(lat) == res.q
        assert coherence(lat).value == F(res.p, res.q) < eps


def test_planar_rejects_bad_inputs(monkeypatch):
    with pytest.raises(ValueError):
        planar_wr(F(3, 4), 2)  # epsilon above 1/2
    with pytest.raises(ValueError):
        planar_wr(F(1, 10), 12)  # not squarefree
    monkeypatch.setattr(constructions, "PLANAR_SEARCH_CEILING", 1)
    with pytest.raises(PlanarSearchFailed, match="n <= 1 "):
        planar_wr(F(1, 10), 2)


def test_every_generator_validates():
    for lat in weak_family_lattices(7):
        lattice_from_gram(lat.name, lat.gram)


def test_weak_family_minimal_norm_one():
    for lat in weak_family_lattices(7):
        assert minimal_vectors(lat).norm_sq == 1, lat.name


def test_prefixes_of_weak_orderings_stay_well_rounded():
    # prefixes of the stored (weakly orthogonal) basis span WR sublattices
    from wrlat import principal_sublattice

    for lat in weak_family_lattices(6):
        for k in range(1, lat.rank + 1):
            assert is_well_rounded(principal_sublattice(lat, tuple(range(k)))), (lat.name, k)
