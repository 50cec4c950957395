"""Acceptance gate: every headline claim, checked at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to see them
live; they also appear in captured output).  All numeric comparisons are
exact unless a tolerance is spelled out in the criterion.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from wrlat import (
    EutaxyClass,
    angle_profile,
    an_dual_frame,
    an_root,
    brute_force_min_vectors,
    cn_test,
    cn_value,
    coherence,
    coxeter_barnes,
    eutaxy_classify,
    hexagonal,
    hybrid,
    integer_lattice,
    is_perfect,
    is_theta_orthogonal,
    is_well_rounded,
    k3_prime,
    lattice_from_gram,
    lnm,
    minimal_norm_sq,
    minimal_vectors,
    packing_density,
    perturb_2d,
    perturb_block,
    planar_wr,
    staircase,
)
from wrlat.constructions import weak_family_lattices
from wrlat.ortho import minimal_basis_subsets
from wrlat.verify import random_subthreshold_lattice

F = Fraction
HALF = F(1, 2)
GRID = (F(0), F(1, 8), F(1, 4), F(1, 3), HALF)


@contextmanager
def criterion(number: int, text: str, budget_s: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number:2d}: {text}")
        raise
    elapsed = time.monotonic() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"
    print(f"PASS  criterion {number:2d}: {text}  ({elapsed:.2f}s)")


def test_criterion_01_block_family_counts():
    with criterion(1, "kissing number of L(n,m) is 2(n+m) for n <= 8", budget_s=10):
        for n in range(2, 9):
            for m in range(0, n // 2 + 1):
                assert minimal_vectors(lnm(n, m)).count == 2 * (n + m), (n, m)


def test_criterion_02_staircase_counts():
    with criterion(2, "kissing number of staircase(n) is 4n-2 for n <= 7", budget_s=30):
        for n in range(2, 8):
            assert minimal_vectors(staircase(n)).count == 4 * n - 2, n


def test_criterion_03_hybrid_counts():
    with criterion(3, "hybrid(n,m) kissing numbers match the piecewise formula, n <= 8", budget_s=30):
        for n in range(3, 9):
            top = (n - 2) // 2 if n % 2 == 0 else (n - 1) // 2
            for m in range(1, top + 1):
                want = 3 * n + 2 * m if n % 2 == 0 else 3 * n - 1 + 2 * m
                assert minimal_vectors(hybrid(n, m)).count == want, (n, m)


def test_criterion_04_kissing_upper_bounds():
    with criterion(4, "weakly certified lattices stay <= 4n-2 minimal vectors, strict <= 3n (n <= 7)"):
        weak_seen = strict_seen = 0
        for lat in weak_family_lattices(7):
            n = lat.rank
            verdict = is_theta_orthogonal(lat)
            kiss = minimal_vectors(lat).count
            if verdict.weakly:
                weak_seen += 1
                assert kiss <= 4 * n - 2, lat.name
            if verdict.strictly:
                strict_seen += 1
                assert kiss <= 3 * n, lat.name
        assert weak_seen >= 30 and strict_seen >= 15


def test_criterion_05_k3_prime_and_staircase3_report():
    with criterion(
        5,
        "K3' is a 10-vector eutactic non-perfect weakly-only lattice; bad-ordering cos^2 = 2/5",
        budget_s=1,
    ):
        lat = k3_prime()
        assert minimal_vectors(lat).count == 10
        res = eutaxy_classify(lat)
        assert res.klass is EutaxyClass.EUTACTIC  # eutactic, not strongly
        assert not is_perfect(lat)
        verdict = is_theta_orthogonal(lat)
        assert verdict.weakly is True and verdict.strictly is False
        # the ordering that places the first basis vector last (0-based (1,2,0))
        prof = angle_profile(staircase(3), (1, 2, 0))
        assert prof.cos_sq[1] == F(2, 5)
        assert angle_profile(lat, (1, 2, 0)).cos_sq[1] == F(2, 5)


def test_criterion_06_coherence_values():
    with criterion(6, "coherence: C(Z^n)=0, C(frame_n)=1/n, C(A_n)=1/2, C(L(n,m))=1/2 iff m>=1"):
        for n in range(2, 8):
            assert coherence(integer_lattice(n)).value == 0
            assert coherence(an_dual_frame(n)).value == F(1, n)
            for m in range(0, n // 2 + 1):
                assert (coherence(lnm(n, m)).value == HALF) == (m >= 1), (n, m)
        for n in range(2, 7):
            assert coherence(an_root(n)).value == HALF


def test_criterion_07_density_ratio_laws():
    with criterion(7, "exact density ratio laws and strict monotonicity on the cosine grid"):
        hex_sq = packing_density(hexagonal()).delta_sq_over_omega_sq
        z2_sq = packing_density(integer_lattice(2)).delta_sq_over_omega_sq
        assert hex_sq / z2_sq == F(4, 3)
        for c in GRID:
            flat = lattice_from_gram("g2", [[1, c], [c, 1]])
            block = lattice_from_gram(
                "g4", [[1, c, 0, 0], [c, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
            )
            for c2 in GRID:
                law = (1 - c * c) / (1 - c2 * c2)
                assert perturb_2d(flat, c2).density_ratio_sq == law
                assert perturb_block(block, 0, c2).density_ratio_sq == law
        dens = [
            packing_density(lattice_from_gram("g", [[1, c], [c, 1]])).delta_sq_over_omega_sq
            for c in GRID
        ]
        assert all(a < b for a, b in zip(dens, dens[1:]))


def test_criterion_08_coherence_threshold():
    with criterion(
        8,
        "threshold: c_2 = 1/2 exactly, c_1000 in the printed window, c_n < 1/n, "
        "200 random sub-threshold bases certify",
        budget_s=60,
    ):
        assert cn_value(2) == 0.5
        assert cn_test(HALF, 2) and not cn_test(HALF + F(1, 10**9), 2)
        assert 0.000997 < cn_value(1000) < 0.000999
        for n in range(3, 11):
            assert not cn_test(F(1, n), n)
        rng = random.Random(0xACCE97)
        total = 0
        for n in (3, 4, 5):
            for _ in range(67 if n != 5 else 66):
                lat = random_subthreshold_lattice(rng, n)
                assert is_theta_orthogonal(lat).strictly
                total += 1
        assert total == 200


def test_criterion_09_planar_family():
    with criterion(
        9,
        "planar family: p^2+r^2 D=q^2, integral WR Gram, C=p/q<eps; q bound on the recipe path",
        budget_s=5,
    ):
        cases = [(F(1, 10), 2), (F(1, 20), 3), (F(1, 100), 2), (HALF, 1)]
        for eps, d in cases:
            res = planar_wr(eps, d)
            assert res.p**2 + res.r**2 * d == res.q**2
            assert res.lattice.scale == 1  # integral Gram
            assert is_well_rounded(res.lattice)
            assert minimal_norm_sq(res.lattice) == res.q
            assert coherence(res.lattice).value == F(res.p, res.q) < eps
            if res.recipe_used:
                assert res.bound_holds
        fallback = planar_wr(HALF, 1)
        assert not fallback.recipe_used and fallback.q == 13
        recipe = planar_wr(F(1, 4), 19)  # the closed-form path with its q bound
        assert recipe.recipe_used and recipe.bound_holds


def test_criterion_10_eutaxy_and_perfection():
    with criterion(
        10,
        "eutaxy/perfection: Z^n (1) and hex (2/3) strongly eutactic, hex perfect, "
        "A7^4 perfect+strongly eutactic with C<1/2, no weak-family rank>=3 lattice perfect",
        budget_s=60,
    ):
        for n in (1, 2, 3, 4):
            res = eutaxy_classify(integer_lattice(n))
            assert res.klass is EutaxyClass.STRONGLY_EUTACTIC
            assert res.coefficients == (F(1),) * n
        hx = eutaxy_classify(hexagonal())
        assert hx.klass is EutaxyClass.STRONGLY_EUTACTIC
        assert hx.coefficients == (F(2, 3),) * 3
        assert is_perfect(hexagonal())
        cb = coxeter_barnes(7, 4)
        assert is_perfect(cb)
        assert eutaxy_classify(cb).klass is EutaxyClass.STRONGLY_EUTACTIC
        assert coherence(cb).value < HALF
        for lat in weak_family_lattices(7):
            if lat.rank >= 3 and is_theta_orthogonal(lat).weakly:
                assert not is_perfect(lat), lat.name


def test_criterion_11_enumerator_oracle_equivalence():
    with criterion(11, "exact enumerator equals the box-4 brute-force oracle on rank <= 5 families"):
        lats = [lat for lat in weak_family_lattices(5) if lat.rank <= 5]
        lats += [an_root(n) for n in range(2, 6)]
        lats += [an_dual_frame(n) for n in range(2, 6)]
        lats += [planar_wr(F(1, 10), 2).lattice, planar_wr(HALF, 1).lattice]
        for lat in lats:
            fast = minimal_vectors(lat)
            slow = brute_force_min_vectors(lat, box=4)
            assert fast.norm_sq == slow.norm_sq, lat.name
            assert fast.pairs == slow.pairs, lat.name


def test_criterion_12_minimal_bases_unimodular():
    with criterion(12, "spanning n-subsets of minimal pairs of strict-family lattices have det +-1 (n <= 6)"):
        checked = 0
        for n in range(2, 7):
            for m in range(0, n // 2 + 1):
                for _, det in minimal_basis_subsets(lnm(n, m)):
                    assert abs(det) == 1, (n, m)
                    checked += 1
        assert checked > 0
