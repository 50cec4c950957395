"""Machine-checkable suite replaying every desk-scale claim this package
implements: kissing-number formulas and bounds, density ratio laws,
eutaxy/perfection classifications, coherence values, and the threshold
criterion.  Each check cites the claim it verifies so a failure is readable
on its own.  A check registers with `@check(check_id, claim)` written on it;
its group (the `suite` that selects it) is the prefix of its id before the
first dot, and a suite runs its checks in the order of their ids.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt
from typing import Callable, NamedTuple

from .constructions import (
    an_dual_frame,
    an_root,
    coxeter_barnes,
    hexagonal,
    hybrid,
    hybrid_max_m,
    integer_lattice,
    k3_prime,
    lnm,
    planar_wr,
    staircase,
    strict_family_lattices,
    weak_family_lattices,
)
from .errors import InputError
from .eutaxy import EutaxyClass, eutaxy_classify, is_perfect
from .invariants import cn_test, cn_value, coherence, packing_density
from .lattice import Lattice, lattice_from_gram
from .minvec import RANK_GUARD, brute_force_min_vectors, certified_box, is_well_rounded, minimal_vectors
from .ortho import angle_profile, is_theta_orthogonal, minimal_basis_subsets
from .perturb import perturb_2d, perturb_block
from .ratlinalg import RatMatrix

HALF = Fraction(1, 2)
GRID = (Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), HALF)


class CheckResult(NamedTuple):
    check_id: str
    claim: str
    status: str  # pass | fail | error
    details: str

    def to_json_dict(self) -> dict:
        return {
            "id": self.check_id,
            "claim": self.claim,
            "status": self.status,
            "details": self.details,
        }


class SuiteReport(NamedTuple):
    checks: tuple[CheckResult, ...]

    @property
    def counts(self) -> dict:
        """Checks per status; "error" is a key only when a check crashed."""
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for c in self.checks:
            out[c.status] = out.get(c.status, 0) + 1
        return out

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "checks": [c.to_json_dict() for c in self.checks],
            "summary": self.counts,
        }


# --- individual checks ------------------------------------------------------

_REGISTRY: dict[str, tuple[str, Callable[[int], str]]] = {}  # check id -> (claim, check)


def check(check_id: str, claim: str):
    """Register the decorated function as the suite check `check_id`."""
    def register(fn):
        if check_id in _REGISTRY:
            raise ValueError(f"duplicate check id {check_id!r}")
        _REGISTRY[check_id] = (claim, fn)
        return fn
    return register


@check("constructions.lnm_counts", "kissing number of L(n,m) is exactly 2(n+m)")
def _check_lnm_counts(max_n: int) -> str:
    cases = 0
    for n in range(2, max_n + 1):
        for m in range(0, n // 2 + 1):
            got = minimal_vectors(lnm(n, m)).count
            assert got == 2 * (n + m), f"L({n},{m}): {got} != {2 * (n + m)}"
            cases += 1
    return f"{cases} cases"


@check("constructions.staircase_counts", "kissing number of staircase(n) is exactly 4n-2")
def _check_staircase_counts(max_n: int) -> str:
    top = min(max_n, 7)
    for n in range(2, top + 1):
        got = minimal_vectors(staircase(n)).count
        assert got == 4 * n - 2, f"staircase({n}): {got} != {4 * n - 2}"
    return f"n up to {top}"


@check("constructions.hybrid_counts", "kissing number of hybrid(n,m) is 3n+2m (n even) or 3n-1+2m (n odd)")
def _check_hybrid_counts(max_n: int) -> str:
    cases = 0
    for n in range(3, max_n + 1):
        for m in range(1, hybrid_max_m(n) + 1):
            want = 3 * n + 2 * m if n % 2 == 0 else 3 * n - 1 + 2 * m
            got = minimal_vectors(hybrid(n, m)).count
            assert got == want, f"hybrid({n},{m}): {got} != {want}"
            cases += 1
    return f"{cases} cases"


@check("constructions.generator_validity", "every generator emits a valid SPD Gram with minimal norm 1")
def _check_generator_validity(max_n: int) -> str:
    lats = weak_family_lattices(min(max_n, 7)) + [
        an_root(n) for n in range(2, min(max_n, 6) + 1)
    ] + [an_dual_frame(n) for n in range(2, min(max_n, 7) + 1)]
    for lat in weak_family_lattices(min(max_n, 7)):
        assert minimal_vectors(lat).norm_sq == 1, f"{lat.name}: minimal norm != 1"
    return f"{len(lats)} lattices"


@check("constructions.staircase_unit_chain", "staircase difference chains b0-b1-...-bk are unit vectors")
def _check_staircase_unit_chain(max_n: int) -> str:
    for n in range(2, min(max_n, 8) + 1):
        lat = staircase(n)
        for k in range(2, n + 1):
            u = [1] + [-1] * (k - 1) + [0] * (n - k)
            q = sum(a_ij * u[i] * u[j] for i, row in enumerate(lat.int_gram) for j, a_ij in enumerate(row))
            assert q == lat.scale, f"staircase({n}) chain length {k}: norm^2 {Fraction(q, lat.scale)}"
    return "all difference chains are unit vectors"


_PLANAR_CASES = (
    (Fraction(1, 10), 2),
    (Fraction(1, 20), 3),
    (Fraction(1, 100), 2),
    (HALF, 1),
    (Fraction(1, 4), 19),  # exercises the closed-form path
)


@check("constructions.planar_family", "planar lattices are integral, WR, with p^2+r^2D=q^2 and C=p/q<epsilon")
def _check_planar_family(max_n: int) -> str:
    recipe_seen = False
    for eps, d in _PLANAR_CASES:
        res = planar_wr(eps, d)
        assert res.p**2 + res.r**2 * d == res.q**2
        assert res.lattice.scale == 1, "non-integral Gram"
        assert is_well_rounded(res.lattice)
        assert minimal_vectors(res.lattice).norm_sq == res.q
        c = coherence(res.lattice).value
        assert c == Fraction(res.p, res.q) and c < eps, f"coherence {c} vs eps {eps}"
        if res.recipe_used:
            recipe_seen = True
            assert res.bound_holds, f"q bound failed on the closed-form path ({eps},{d})"
    assert recipe_seen, "no case exercised the closed-form path"
    return f"{len(_PLANAR_CASES)} (epsilon, D) cases"


@check("theorems.kissing_upper_bounds",
       "weakly certified lattices have at most 4n-2 minimal vectors, strict at most 3n")
def _check_kissing_upper_bounds(max_n: int) -> str:
    weak = strict = 0
    for lat in weak_family_lattices(min(max_n, 7)):
        n = lat.rank
        verdict = is_theta_orthogonal(lat)
        kiss = minimal_vectors(lat).count
        if verdict.weakly:
            weak += 1
            assert kiss <= 4 * n - 2, f"{lat.name}: {kiss} > 4n-2"
        if verdict.strictly:
            strict += 1
            assert kiss <= 3 * n, f"{lat.name}: {kiss} > 3n"
    assert weak and strict
    return f"{weak} weak / {strict} strict certificates checked"


@check("theorems.k3_prime_report",
       "K3' is eutactic, imperfect, weakly-but-not-strictly orthogonal; cos^2 = 2/5 at the bad ordering")
def _check_k3_prime_report(max_n: int) -> str:
    lat = k3_prime()
    assert minimal_vectors(lat).count == 10
    eut = eutaxy_classify(lat)
    assert eut.klass is EutaxyClass.EUTACTIC, eut.klass
    assert not is_perfect(lat)
    verdict = is_theta_orthogonal(lat)
    assert verdict.weakly and not verdict.strictly
    prof = angle_profile(staircase(3), (1, 2, 0))
    assert prof.cos_sq[1] == Fraction(2, 5), prof.cos_sq
    prof_k3 = angle_profile(lat, (1, 2, 0))
    assert prof_k3.cos_sq[1] == Fraction(2, 5), prof_k3.cos_sq
    return "eutactic, imperfect, weakly-only; violating cos^2 = 2/5"


@check("theorems.density_ratio_law",
       "pair perturbation scales squared density by exactly (1-c^2)/(1-c'^2), monotone")
def _check_density_ratio_law(max_n: int) -> str:
    checked = 0
    for c in GRID:
        before2 = lattice_from_gram("g2", [[1, c], [c, 1]])
        for c2 in GRID:
            out = perturb_2d(before2, c2)
            want = (1 - c * c) / (1 - c2 * c2)
            assert out.density_ratio_sq == want, (c, c2, out.density_ratio_sq)
            rows = [[1, c, 0, 0], [c, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
            blk = perturb_block(lattice_from_gram("b4", rows), 0, c2)
            assert blk.density_ratio_sq == want
            assert blk.still_nearly_orthogonal
            checked += 1
    dens = [packing_density(lattice_from_gram("m", [[1, c], [c, 1]])).delta_sq_over_omega_sq for c in GRID]
    assert all(a < b for a, b in zip(dens, dens[1:])), "density not strictly increasing in |cos|"
    return f"{checked} grid pairs, monotone on the grid"


@check("theorems.hex_density_ratio", "squared density ratio of hex to Z^2 is exactly 4/3")
def _check_hex_density_ratio(max_n: int) -> str:
    ratio = (
        packing_density(hexagonal()).delta_sq_over_omega_sq
        / packing_density(integer_lattice(2)).delta_sq_over_omega_sq
    )
    assert ratio == Fraction(4, 3), ratio
    return "exact 4/3"


@check("theorems.min_basis_unimodular",
       "spanning n-subsets of minimal pairs of strict-family lattices are unimodular")
def _check_min_basis_unimodular(max_n: int) -> str:
    subsets = 0
    for lat in strict_family_lattices(min(max_n, 6)):
        for _, det in minimal_basis_subsets(lat):
            assert det == 1, f"{lat.name}: spanning subset with |det| {det}"
            subsets += 1
    return f"{subsets} spanning subsets"


@check("theorems.eutaxy_perfection", "eutaxy and perfection classifications of the named lattices")
def _check_eutaxy_perfection(max_n: int) -> str:
    for n in range(1, min(max_n, 6) + 1):
        res = eutaxy_classify(integer_lattice(n))
        assert res.klass is EutaxyClass.STRONGLY_EUTACTIC
        assert res.coefficients == (Fraction(1),) * n
    hx = eutaxy_classify(hexagonal())
    assert hx.klass is EutaxyClass.STRONGLY_EUTACTIC
    assert hx.coefficients == (Fraction(2, 3),) * 3
    assert is_perfect(hexagonal())
    cb = coxeter_barnes(7, 4)
    assert is_perfect(cb)
    assert eutaxy_classify(cb).klass is EutaxyClass.STRONGLY_EUTACTIC
    assert coherence(cb).value < HALF
    for lat in weak_family_lattices(min(max_n, 6)):
        if lat.rank >= 3 and is_theta_orthogonal(lat).weakly:
            assert not is_perfect(lat), f"{lat.name} perfect inside the weak class"
    return "Z^n, hex, A7^4 and all weak-family lattices as claimed"


@check("theorems.enumerator_oracle", "exact enumerator equals the box-scan oracle on rank <= 5 families")
def _check_enumerator_oracle(max_n: int) -> str:
    lats = [
        lat
        for lat in weak_family_lattices(5)
        + [an_root(n) for n in range(2, 6)]
        + [an_dual_frame(n) for n in range(2, 6)]
        + [planar_wr(Fraction(1, 10), 2).lattice, planar_wr(HALF, 1).lattice]
        if lat.rank <= 5
    ]
    for lat in lats:
        fast = minimal_vectors(lat)
        slow = brute_force_min_vectors(lat, certified_box(lat))
        assert fast.norm_sq == slow.norm_sq, lat.name
        assert fast.pairs == slow.pairs, lat.name
    return f"{len(lats)} lattices, exact set equality"


@check("theorems.kissing_coverage", "families realize every even kissing number in [2n, 4n-2]")
def _check_kissing_coverage(max_n: int) -> str:
    for n in range(2, min(max_n, 7) + 1):
        achieved = {minimal_vectors(lnm(n, m)).count for m in range(0, n // 2 + 1)}
        achieved.add(minimal_vectors(staircase(n)).count)
        achieved.update(
            minimal_vectors(hybrid(n, m)).count for m in range(1, hybrid_max_m(n) + 1)
        )
        want = set(range(2 * n, 4 * n - 1, 2))
        assert achieved == want, f"n={n}: {sorted(achieved)} != {sorted(want)}"
    return "every even kissing number in [2n, 4n-2] is realized"


@check("coherence.integer_lattice", "the integer lattice has coherence 0")
def _check_coherence_integer(max_n: int) -> str:
    for n in range(2, min(max_n, 7) + 1):
        assert coherence(integer_lattice(n)).value == 0
    return "C(Z^n) = 0"


@check("coherence.frame_family", "the dual-root frame lattices have coherence 1/n and 2n+2 minimal vectors")
def _check_coherence_frames(max_n: int) -> str:
    for n in range(2, min(max_n, 7) + 1):
        lat = an_dual_frame(n)
        assert coherence(lat).value == Fraction(1, n), lat.name
        assert minimal_vectors(lat).count == 2 * n + 2, lat.name
    return "C = 1/n with 2n+2 minimal vectors"


@check("coherence.root_family", "the root lattices A_n have coherence 1/2")
def _check_coherence_roots(max_n: int) -> str:
    for n in range(2, min(max_n, 6) + 1):
        assert coherence(an_root(n)).value == HALF, f"A{n}"
    return "C(A_n) = 1/2"


@check("coherence.block_family_iff", "C(L(n,m)) = 1/2 exactly when m >= 1")
def _check_coherence_blocks(max_n: int) -> str:
    for n in range(2, min(max_n, 7) + 1):
        for m in range(0, n // 2 + 1):
            c = coherence(lnm(n, m)).value
            assert (c == HALF) == (m >= 1), f"L({n},{m}): C = {c}"
    return "C(L(n,m)) = 1/2 iff m >= 1"


@check("coherence.threshold_values", "threshold values: c_2 = 1/2, c_1000 window, c_n < 1/n")
def _check_cn_values(max_n: int) -> str:
    assert cn_value(2) == 0.5
    assert cn_test(HALF, 2) and not cn_test(HALF + Fraction(1, 1000), 2)
    v = cn_value(1000)
    assert 0.000997 < v < 0.000999, v
    for n in range(3, 11):
        assert not cn_test(Fraction(1, n), n), n
    return f"c_2 = 1/2, c_1000 = {v:.11f}"


def _subthreshold_bound(n: int, denominator: int) -> int:
    """The largest k with k / denominator <= c_n, that is floor(D c_n) for
    D = denominator: the floor of (sqrt(X) - (n-2) D) / (8(n-1)) with
    X = D^2 ((n-2)^2 + 16(n-1)) is unchanged when sqrt(X) becomes isqrt(X)."""
    d = denominator
    return (isqrt(d * d * ((n - 2) ** 2 + 16 * (n - 1))) - (n - 2) * d) // (8 * (n - 1))


def random_subthreshold_lattice(rng: random.Random, n: int) -> Lattice:
    """Random unit-diagonal Gram whose off-diagonals pass the exact c_n test.

    Such a Gram is positive definite for every n >= 2: each |off-diagonal| is
    at most c_n < 1/(n - 1), so it is strictly diagonally dominant.  Each
    entry is one draw from [-k, k] / 64, k the largest that passes.
    """
    k = _subthreshold_bound(n, 64)
    a = [[64 * (i == j) for j in range(n)] for i in range(n)]  # 64 G
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = a[j][i] = rng.randint(-k, k)
    return Lattice(f"random{n}", RatMatrix.from_scaled(64, a))


@check("coherence.threshold_certifies", "random sub-threshold unit bases are always nearly orthogonal")
def _check_cn_random_certification(max_n: int) -> str:
    rng = random.Random(0x5EED)
    count = 0
    for n in (3, 4, 5):
        for _ in range(67 if n < 5 else 66):
            lat = random_subthreshold_lattice(rng, n)
            verdict = is_theta_orthogonal(lat)
            assert verdict.strictly, f"sub-threshold Gram not strict: {lat.gram!r}"
            count += 1
    return f"{count} random sub-threshold bases all certified"


@check("coherence.planar_coherence", "planar family coherence equals p/q below epsilon")
def _check_planar_coherence(max_n: int) -> str:
    for eps, d in _PLANAR_CASES:
        res = planar_wr(eps, d)
        assert coherence(res.lattice).value == Fraction(res.p, res.q) < eps
    return "C = p/q < epsilon on all cases"


def available_suites() -> list[str]:
    return ["all", *dict.fromkeys(check_id.partition(".")[0] for check_id in _REGISTRY)]


def run_suite(suite: str = "all", max_n: int = 8) -> SuiteReport:
    if suite not in available_suites():
        raise InputError(f"unknown suite {suite!r}")
    if max_n < 2:
        raise InputError("max_n must be at least 2")
    if max_n > RANK_GUARD:
        raise InputError(f"max_n must be at most {RANK_GUARD}, the enumeration guard")

    def run_one(check_id: str) -> CheckResult:
        claim, fn = _REGISTRY[check_id]
        try:
            details = fn(max_n)
            return CheckResult(check_id, claim, "pass", details)
        except AssertionError as exc:
            return CheckResult(check_id, claim, "fail", str(exc))
        except Exception as exc:  # a crash or a guard trip is not evidence against the claim
            return CheckResult(check_id, claim, "error", f"{type(exc).__name__}: {exc}")

    selected = sorted(i for i in _REGISTRY if suite == "all" or i.startswith(suite + "."))
    return SuiteReport(checks=tuple(map(run_one, selected)))
