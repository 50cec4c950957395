from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wrlat import (
    NotNearlyOrthogonal,
    VerificationFailed,
    an_dual_frame,
    hexagonal,
    integer_lattice,
    is_theta_orthogonal,
    lattice_from_gram,
    lnm,
    minimal_vectors,
    packing_density,
    perturb_2d,
    perturb_block,
    perturb_general,
    staircase,
)

F = Fraction
HALF = F(1, 2)
GRID = (F(0), F(1, 8), F(1, 4), F(1, 3), HALF)


# --- planar case -------------------------------------------------------------


def test_flatten_hexagonal_to_square():
    out = perturb_2d(hexagonal(), F(0))
    assert out.after.gram == integer_lattice(2).gram
    assert out.density_ratio_sq == F(3, 4)  # (1 - 1/4) / 1: density drops
    assert out.still_nearly_orthogonal


def test_sharpen_square_to_hexagonal():
    out = perturb_2d(integer_lattice(2), HALF)
    assert out.after.gram == hexagonal().gram
    assert out.density_ratio_sq == F(4, 3)


def test_2d_identity_perturbation():
    lat = lattice_from_gram("c14", [[1, F(1, 4)], [F(1, 4), 1]])
    out = perturb_2d(lat, F(1, 4))
    assert out.after.gram == lat.gram
    assert out.density_ratio_sq == 1


def test_2d_preserves_sign():
    lat = lattice_from_gram("neg", [[1, -F(1, 4)], [-F(1, 4), 1]])
    out = perturb_2d(lat, F(1, 3))
    assert out.after.gram[0, 1] == -F(1, 3)


def test_2d_rejects_out_of_range():
    with pytest.raises(ValueError):
        perturb_2d(hexagonal(), F(3, 5))
    with pytest.raises(ValueError):
        perturb_2d(integer_lattice(3), F(1, 4))


def test_2d_ratio_law_on_grid():
    for c in GRID:
        lat = lattice_from_gram("g", [[1, c], [c, 1]])
        for c2 in GRID:
            out = perturb_2d(lat, c2)
            assert out.density_ratio_sq == (1 - c * c) / (1 - c2 * c2)


def test_density_strictly_monotone_in_cos():
    dens = [
        packing_density(lattice_from_gram("g", [[1, c], [c, 1]])).delta_sq_over_omega_sq
        for c in GRID
    ]
    assert all(a < b for a, b in zip(dens, dens[1:]))


# --- block case ---------------------------------------------------------------


def test_block_ratio_exact():
    out = perturb_block(lnm(4, 2), 0, F(2, 5))
    assert out.value_before == HALF and out.value_after == F(2, 5)
    assert out.density_ratio_sq == (1 - F(1, 4)) / (1 - F(4, 25))
    assert out.density_ratio_sq == F(25, 28)
    assert out.still_nearly_orthogonal


def test_block_decouple_gives_integer_lattice():
    out = perturb_block(lnm(3, 1), 0, F(0))
    assert out.after.gram == integer_lattice(3).gram
    assert out.density_ratio_sq == F(3, 4)


def test_block_boundary_angle_creates_new_minimal_vectors():
    # rank-6, one pair at cos 1/4: 12 minimal vectors; pushing the pair to
    # the 60-degree boundary adds the difference vector pair
    rows = [[F(1) if i == j else F(0) for j in range(6)] for i in range(6)]
    rows[0][1] = rows[1][0] = F(1, 4)
    lat = lattice_from_gram("L61~", rows)
    assert minimal_vectors(lat).count == 12
    out = perturb_block(lat, 0, HALF)
    assert minimal_vectors(out.after).count == 14
    assert out.after.gram == lnm(6, 1).gram


def test_block_ratio_law_on_grid_rank4():
    for c in GRID:
        rows = [[1, c, 0, 0], [c, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        lat = lattice_from_gram("b", rows)
        for c2 in GRID:
            out = perturb_block(lat, 0, c2)
            assert out.density_ratio_sq == (1 - c * c) / (1 - c2 * c2)
            assert out.still_nearly_orthogonal


def test_block_rejects_coupled_target():
    with pytest.raises(ValueError):
        perturb_block(staircase(4), 0, F(1, 4))


def test_block_rejects_missing_block():
    with pytest.raises(ValueError):
        perturb_block(lnm(3, 1), 1, F(1, 4))


@st.composite
def block_structured_lattices(draw):
    """A unit Gram of rank 2-12 whose vectors couple in disjoint pairs at
    |cos| <= 1/2, on shuffled indices."""
    n = draw(st.integers(2, 12))
    order = draw(st.permutations(range(n)))
    rows = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(draw(st.integers(0, n // 2))):
        i, j = order[2 * k], order[2 * k + 1]
        rows[i][j] = rows[j][i] = draw(st.fractions(-HALF, HALF, max_denominator=16))
    return lattice_from_gram("blocks", rows)


@settings(max_examples=60, deadline=None)
@given(block_structured_lattices())
@example(lnm(6, 2))
@example(lnm(12, 6))
@example(integer_lattice(4))
def test_block_structured_unit_grams_are_strict(lat):
    # a unit vector coupled to at most one partner at |cos| <= 1/2 projects
    # onto any span of the others with norm <= 1/2, since the partner is
    # orthogonal to the rest: so every ordering stays within pi/3
    assert is_theta_orthogonal(lat).strictly


# --- general float mode ----------------------------------------------------------


def test_general_nu_decrease_matches_block_answer():
    # the pair attaining nu is the hexagonal block; exact cross-check below
    out = perturb_general(lnm(3, 1), "nu", F(1, 3))
    assert out.value_before == HALF and out.value_after == F(1, 3)
    want = (1 - HALF**2) / (1 - F(1, 3) ** 2)
    assert out.density_ratio_sq == want == F(27, 32)
    exact = perturb_block(lnm(3, 1), 0, F(1, 3))
    assert out.after.gram == exact.after.gram


def test_general_identity_target():
    out = perturb_general(lnm(3, 1), "nu", HALF)
    assert out.after.gram == lnm(3, 1).gram
    assert out.density_ratio_sq == 1


def test_general_mu_increase_on_plane():
    out = perturb_general(integer_lattice(2), "mu", F(1, 3))
    assert out.value_after == F(1, 3)
    assert out.density_ratio_sq == (1 - F(0)) / (1 - F(1, 9))
    assert out.still_nearly_orthogonal


def test_general_rejects_wide_basis():
    # the rotated-ordering violation keeps this lattice out of the strict class
    with pytest.raises(NotNearlyOrthogonal):
        perturb_general(staircase(3), "nu", F(1, 4))


def test_general_decides_strictness_at_rank_10():
    # the verdict runs up to the enumeration guard of 12, so A10* is refused
    # for what it is, not for its rank
    with pytest.raises(NotNearlyOrthogonal):
        perturb_general(an_dual_frame(10), "nu", F(1, 20))


def test_general_mu_fails_verification_when_other_pairs_stay_low():
    # raising the smallest cosine of Z^3 moves one pair only; the other pairs
    # remain orthogonal, so the achieved mu cannot reach the target and the
    # operation must refuse to return silently
    with pytest.raises(VerificationFailed) as info:
        perturb_general(integer_lattice(3), "mu", F(1, 3))
    assert "mu" in str(info.value)


def test_general_rationalizes_an_irrational_rotation():
    # c = 1/4 to t = 1/5 needs the root of (24/25)/(15/16), which is
    # irrational, so the coupled entry g'_12 is a float rationalized, and
    # the exact checks accept it within 10^-9
    rows = [[1, F(1, 4), F(1, 5)], [F(1, 4), 1, F(1, 6)], [F(1, 5), F(1, 6), 1]]
    lat = lattice_from_gram("g", rows)
    out = perturb_general(lat, "nu", F(1, 5))
    assert out.value_after == F(1, 5)
    assert out.after.gram[1, 2] == F(52975, 335161)
    assert out.still_nearly_orthogonal and is_theta_orthogonal(out.after).strictly
    law = (1 - out.value_before**2) / (1 - out.value_after**2)
    assert out.density_ratio_sq != law
    assert abs(out.density_ratio_sq - law) <= F(1, 10**9)
    # raising mu to 1/4 moves the (0, 2) pair, but the rationalized (1, 2)
    # pair then attains a smaller cosine, so the result is refused
    with pytest.raises(VerificationFailed, match="mu after perturbation is 170626/782759, wanted 1/4"):
        perturb_general(lat, "mu", F(1, 4))


def test_general_rejects_bad_targets():
    with pytest.raises(ValueError):
        perturb_general(lnm(3, 1), "nu", F(3, 5))
    with pytest.raises(ValueError):
        perturb_general(hexagonal(), "mu", F(0))
    with pytest.raises(ValueError):
        perturb_general(hexagonal(), "sigma", F(1, 4))


def test_outcome_gram_distance():
    out = perturb_block(lnm(4, 2), 0, F(1, 4))
    assert out.gram_distance == F(1, 4)


def test_no_strict_basis_attains_mu_half_beyond_rank_2():
    # density can always be pushed up in rank >= 3: no basis of minimal
    # vectors has every pairwise |cos| equal to 1/2; rank 2 attains the
    # extreme exactly at the hexagonal lattice
    from wrlat import mu_nu
    from wrlat.ortho import minimal_basis_subsets
    from wrlat.ratlinalg import gram_of_vectors

    for n in (3, 4, 5):
        for m in range(0, n // 2 + 1):
            lat = lnm(n, m)
            for subset, det in minimal_basis_subsets(lat):
                if abs(det) != 1:
                    continue
                cand = lattice_from_gram("b", gram_of_vectors(lat.int_gram, subset))
                assert mu_nu(cand)[0].cos_sq < F(1, 4), (lat.name, subset)
    hex_mu, _ = mu_nu(hexagonal())
    assert hex_mu.exact_cos == HALF


def test_general_exact_root_moves_coupled_row_exactly():
    # c = 5/13 and t = 7/25 give the rational scale (24/25)/(12/13) = 26/25,
    # and b_2 couples to b_0, so g'_12 = t g_02 + 26/25 (g_12 - c g_02)
    rows = [[1, F(5, 13), F(1, 4)], [F(5, 13), 1, F(1, 5)], [F(1, 4), F(1, 5), 1]]
    out = perturb_general(lattice_from_gram("t3", rows), "nu", F(7, 25))
    assert out.after.gram.to_rows() == [
        [1, F(7, 25), F(1, 4)],
        [F(7, 25), 1, F(89, 500)],
        [F(1, 4), F(89, 500), 1],
    ]
    assert out.density_ratio_sq == (1 - F(5, 13) ** 2) / (1 - F(7, 25) ** 2)
