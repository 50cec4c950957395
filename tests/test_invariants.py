import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wrlat import (
    FewerThanTwoPairs,
    average_coherence,
    cn_test,
    cn_value,
    coherence,
    hexagonal,
    integer_lattice,
    an_dual_frame,
    an_root,
    is_theta_orthogonal,
    k3_prime,
    lattice_from_gram,
    lnm,
    minimal_vectors,
    mu_nu,
    packing_density,
    scale_gram,
    staircase,
    unit_ball_volume,
)

F = Fraction
HALF = F(1, 2)


# --- coherence ---------------------------------------------------------------


def test_coherence_integer_lattice_zero():
    for n in (2, 4, 7):
        assert coherence(integer_lattice(n)).value == 0


def test_coherence_frame_family():
    for n in range(2, 8):
        assert coherence(an_dual_frame(n)).value == F(1, n)


def test_coherence_staircase3():
    got = coherence(staircase(3))
    assert got.value == HALF
    # the reported pair really attains the value
    u, w = got.attaining_pair
    lat = staircase(3)
    dot = sum(lat.gram[a, b] * u[a] * w[b] for a in range(3) for b in range(3))
    assert abs(dot) == HALF * minimal_vectors(lat).norm_sq


def test_coherence_root_lattices_half():
    for n in range(2, 7):
        assert coherence(an_root(n)).value == HALF


def test_coherence_needs_two_pairs():
    with pytest.raises(FewerThanTwoPairs):
        coherence(integer_lattice(1))


def test_coherence_iff_kissing_above_2n():
    for n in range(2, 8):
        for m in range(0, n // 2 + 1):
            lat = lnm(n, m)
            c = coherence(lat).value
            big = minimal_vectors(lat).count > 2 * n
            assert (c == HALF) == big == (m >= 1), (n, m)


def test_coherence_zero_only_for_integer_lattice():
    zero = [
        lat
        for lat in [integer_lattice(3), hexagonal(), staircase(3), k3_prime(), an_dual_frame(3), lnm(4, 1)]
        if coherence(lat).value == 0
    ]
    assert [lat.name for lat in zero] == ["Z^3"]


# --- average coherence ---------------------------------------------------------


def test_average_coherence_integer_lattice():
    assert average_coherence(integer_lattice(3)) == 0


def test_average_coherence_hexagonal():
    # three pairs, every |cos| = 1/2, so each row sums to 1 over 2 neighbors
    assert average_coherence(hexagonal()) == HALF


def test_average_coherence_two_hex_blocks():
    # brute-force oracle value: each representative sees |cos| 1/2 with its two
    # blockmates and 0 with the three pairs of the other block: row sum 1,
    # divided by (6 - 1)
    assert average_coherence(lnm(4, 2)) == F(1, 5)


def test_average_at_most_worst_case():
    for lat in (hexagonal(), staircase(4), k3_prime(), lnm(5, 2)):
        assert average_coherence(lat) <= coherence(lat).value


@st.composite
def multi_pair_lattices(draw):
    """c G with G unit-diagonal and every off-diagonal row sum of |g_ij| at
    most 1/2, so each e_i is minimal (n >= 2 pairs), and c and the g_ij
    rationals with denominators 2-5."""
    n = draw(st.integers(2, 5))
    c = F(draw(st.integers(1, 7)), draw(st.integers(2, 5)))
    g = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            room = HALF - max(sum(abs(x) for x in g[i]) - 1, sum(abs(x) for x in g[j]) - 1)
            x = F(draw(st.integers(-2, 2)), draw(st.integers(2, 5)))
            g[i][j] = g[j][i] = max(-room, min(room, x))
    return lattice_from_gram("multi", [[c * x for x in row] for row in g])


def fraction_coherences(lat):
    """Coherence (value and pair) and average coherence from Fraction dot
    products u^T G w over the minimal pairs."""
    pairs = minimal_vectors(lat).pairs
    n, g = lat.rank, lat.gram

    def dot(u, w):
        return sum(u[a] * g[a, b] * w[b] for a in range(n) for b in range(n))

    cos = [[abs(dot(u, w)) / dot(u, u) for w in pairs] for u in pairs]
    k = len(pairs)
    best = max(cos[i][j] for i in range(k) for j in range(i + 1, k))
    i, j = next((i, j) for i in range(k) for j in range(i + 1, k) if cos[i][j] == best)
    avg = max(sum(row) - row[i] for i, row in enumerate(cos)) / (k - 1)
    return best, (pairs[i], pairs[j]), avg


@settings(max_examples=60, deadline=None)
@given(multi_pair_lattices())
def test_coherences_match_fraction_reference(lat):
    best, pair, avg = fraction_coherences(lat)
    got = coherence(lat)
    assert (got.value, got.attaining_pair) == (best, pair)
    assert average_coherence(lat) == avg


# --- mu / nu -------------------------------------------------------------------


def test_mu_nu_hexagonal():
    mu, nu = mu_nu(hexagonal())
    assert mu.exact_cos == HALF and nu.exact_cos == HALF


def test_mu_nu_integer():
    mu, nu = mu_nu(integer_lattice(5))
    assert mu.exact_cos == 0 and nu.exact_cos == 0


def test_mu_nu_block_family():
    mu, nu = mu_nu(lnm(4, 2))
    assert mu.exact_cos == 0 and nu.exact_cos == HALF


def test_mu_nu_non_unit_diagonal_renders_sqrt():
    lat = lattice_from_gram("g", [[2, 1], [1, 3]])
    mu, nu = mu_nu(lat)
    assert mu.cos_sq == F(1, 6)
    assert mu.exact_cos is None and str(mu) == "sqrt(1/6)"


def test_mu_le_nu_le_coherence_on_strict_family():
    for n in range(2, 8):
        for m in range(0, n // 2 + 1):
            lat = lnm(n, m)
            assert is_theta_orthogonal(lat).strictly
            mu, nu = mu_nu(lat)
            assert mu.cos_sq <= nu.cos_sq
            assert nu.exact_cos <= coherence(lat).value


# --- packing density -------------------------------------------------------------


def test_density_z2():
    d = packing_density(integer_lattice(2))
    assert d.delta_sq_over_omega_sq == F(1, 16)
    assert abs(d.delta_float - math.pi / 4) < 1e-12


def test_density_hexagonal():
    d = packing_density(hexagonal())
    assert d.delta_sq_over_omega_sq == F(1, 12)
    assert abs(d.delta_float - math.pi / (2 * math.sqrt(3))) < 1e-12


def test_density_ratio_hex_over_z2():
    ratio = (
        packing_density(hexagonal()).delta_sq_over_omega_sq
        / packing_density(integer_lattice(2)).delta_sq_over_omega_sq
    )
    assert ratio == F(4, 3)


def test_density_float_consistent_with_exact():
    for lat in (integer_lattice(3), hexagonal(), staircase(4), an_root(3)):
        d = packing_density(lat)
        w = unit_ball_volume(lat.rank)
        rel = abs(d.delta_float**2 / w**2 - float(d.delta_sq_over_omega_sq))
        assert rel <= 1e-12 * float(d.delta_sq_over_omega_sq)


def test_unit_ball_volumes():
    assert unit_ball_volume(0) == 1.0
    assert unit_ball_volume(1) == 2.0
    assert abs(unit_ball_volume(2) - math.pi) < 1e-15
    assert abs(unit_ball_volume(3) - 4 * math.pi / 3) < 1e-14
    for n in range(2, 10):  # agrees with the gamma-function formula
        assert abs(unit_ball_volume(n) - math.pi ** (n / 2) / math.gamma(n / 2 + 1)) < 1e-12


# --- scale invariance ------------------------------------------------------------


@pytest.mark.parametrize("factor", [4, 9])
def test_scale_invariance(factor):
    for lat in (hexagonal(), staircase(3), lnm(4, 1)):
        scaled = scale_gram(lat, factor)
        assert coherence(scaled).value == coherence(lat).value
        assert average_coherence(scaled) == average_coherence(lat)
        mu0, nu0 = mu_nu(lat)
        mu1, nu1 = mu_nu(scaled)
        assert (mu0.cos_sq, nu0.cos_sq) == (mu1.cos_sq, nu1.cos_sq)
        assert (
            packing_density(scaled).delta_sq_over_omega_sq
            == packing_density(lat).delta_sq_over_omega_sq
        )


# --- dimensional threshold ---------------------------------------------------------


def test_cn_value_two_is_exactly_half():
    assert cn_value(2) == 0.5
    assert cn_test(HALF, 2)  # equality case of the quadratic
    assert not cn_test(HALF + F(1, 10**6), 2)


def test_cn_value_1000_window():
    assert 0.000997 < cn_value(1000) < 0.000999


def test_cn_below_one_over_n():
    for n in range(3, 11):
        assert not cn_test(F(1, n), n)


def test_cn_times_n_increases_toward_one_from_five_up():
    # n * c_n dips until n = 5 and then climbs monotonically toward 1
    prev = None
    samples = list(range(5, 2000)) + [10**4, 10**5, 10**6]
    for n in samples:
        v = cn_value(n) * n
        assert v < 1
        if prev is not None:
            assert v > prev, n
        prev = v
    assert 1 - prev < 1e-5


def test_cn_rejects_bad_input():
    with pytest.raises(ValueError):
        cn_value(1)
    with pytest.raises(ValueError):
        cn_test(F(-1, 2), 3)


@pytest.mark.parametrize("n", range(2, 13))
def test_sub_threshold_grams_are_diagonally_dominant(n):
    # so every |off-diagonal| <= c_n < 1/(n - 1), each row's n - 1 of them sum
    # below its unit diagonal, and random_subthreshold_lattice's Grams are
    # positive definite with no retry
    assert not cn_test(F(1, n - 1), n)


def test_sub_threshold_basis_certifies():
    # a deterministic instance of the random certification property
    from wrlat.verify import random_subthreshold_lattice
    import random

    rng = random.Random(1234)
    for n in (3, 4, 5):
        for _ in range(5):
            lat = random_subthreshold_lattice(rng, n)
            assert is_theta_orthogonal(lat).strictly


def test_sub_threshold_draws_are_pinned_and_reach_the_exact_bound():
    # the 200 Grams of coherence.threshold_certifies, pinned by digest so that
    # the sampler keeps its RNG stream; the float bound int(c_n 64) is the
    # largest k with k/64 <= c_n, and the draws reach it
    import hashlib
    import random

    from wrlat.verify import random_subthreshold_lattice

    rng = random.Random(0x5EED)
    grams = [random_subthreshold_lattice(rng, n).gram for n in (3, 4, 5) for _ in range(67 if n < 5 else 66)]
    text = ";".join(" ".join(map(str, g.entries)) for g in grams)
    assert hashlib.sha256(text.encode()).hexdigest() == "f39ed00181293a7262a914e70341b8678bdab3a3fb8483713090e87f56140a29"
    for n, k in ((3, 18), (4, 13), (5, 11)):
        assert int(cn_value(n) * 64) == k
        assert cn_test(F(k, 64), n) and not cn_test(F(k + 1, 64), n)
        assert max(abs(e) for g in grams if g.rows == n for e in g.entries if e != 1) == F(k, 64)


def test_sub_threshold_bound_is_the_largest_passing_numerator():
    from wrlat.verify import _subthreshold_bound

    assert [_subthreshold_bound(n, 64) for n in (3, 4, 5)] == [18, 13, 11]
    for n in range(2, 13):
        for denominator in (*range(1, 70), 100, 999, 10**12):
            k = _subthreshold_bound(n, denominator)
            assert cn_test(F(k, denominator), n) and not cn_test(F(k + 1, denominator), n), (n, denominator)
