import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wrlat
from wrlat import lnm, load_lattice, run_suite, save_lattice, staircase
from wrlat.cli import build_parser, main, parse_cos_sq_threshold

from conftest import root_plus_hexagonal

F = Fraction


def run_cli(*argv):
    return main(list(argv))


def _lattice_file(tmp_path, *family, **changes):
    """The file `wrlat construct` writes for the family arguments, with top-level fields replaced."""
    f = tmp_path / f"{family[0]}.json"
    run_cli("construct", *family, "--out", str(f))
    if changes:
        f.write_text(json.dumps({**json.loads(f.read_text()), **changes}))
    return f


# --- verify suite ------------------------------------------------------------


def test_suite_all_green():
    report = run_suite("all", max_n=6)
    assert report.passed
    assert report.counts["fail"] == 0
    ids = [c.check_id for c in report.checks]
    assert ids == sorted(ids)


def test_default_suite_output_is_byte_identical(capsys):
    # sha256 of `wrlat verify --suite all --max-n 8` stdout, details strings included
    assert run_cli("verify", "--suite", "all", "--max-n", "8") == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "4dad6d2b2f347433a86ac4f07333a133b28dbfc72164d19eeb0113a92c9315dc"


def test_suite_filtering():
    constructions = run_suite("constructions", max_n=5)
    assert all(c.check_id.startswith("constructions.") for c in constructions.checks)
    coh = run_suite("coherence", max_n=5)
    assert all(c.check_id.startswith("coherence.") for c in coh.checks)


def test_suite_rejects_unknown():
    with pytest.raises(ValueError):
        run_suite("no-such-suite")


def test_check_ids_unique(monkeypatch):
    from wrlat import verify

    assert all(claim for claim, _ in verify._REGISTRY.values())
    monkeypatch.setattr(verify, "_REGISTRY", dict(verify._REGISTRY))
    with pytest.raises(ValueError, match="duplicate check id 'coherence.integer_lattice'"):
        verify.check("coherence.integer_lattice", "registered twice")(lambda max_n: "")
    verify.check("coherence.fresh_id", "a new id registers")(lambda max_n: "ok")
    assert verify._REGISTRY["coherence.fresh_id"][0] == "a new id registers"


def test_check_ids_match_the_benchmark_references():
    from wrlat import verify

    refs = json.loads((Path(__file__).parents[1] / "perfbench/refs/references.json").read_text())
    assert sorted(verify._REGISTRY) == refs["suite_ids"]
    assert verify.available_suites() == ["all", "constructions", "theorems", "coherence"]


def test_import_does_not_load_numpy():
    src = str(Path(wrlat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, wrlat; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "False"


# --- CLI ----------------------------------------------------------------------


def test_cli_construct_lnm(tmp_path):
    out = tmp_path / "l42.json"
    assert run_cli("construct", "lnm", "--n", "4", "--m", "2", "--out", str(out)) == 0
    assert load_lattice(str(out)).gram == lnm(4, 2).gram


def test_cli_construct_staircase(tmp_path):
    out = tmp_path / "st5.json"
    assert run_cli("construct", "staircase", "--n", "5", "--out", str(out)) == 0
    assert load_lattice(str(out)).gram == staircase(5).gram


def test_cli_construct_planar(tmp_path):
    out = tmp_path / "planar.json"
    code = run_cli("construct", "planar", "--epsilon", "1/10", "--d", "2", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert (data["p"], data["q"], data["r"]) == (1, 17, 12)
    assert data["coherence"] == "1/17"


def test_cli_construct_planar_to_stdout(capsys):
    assert run_cli("construct", "planar", "--epsilon", "1/20", "--d", "3") == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["m"], data["n"], data["q"]) == (7, 4, 97)


def test_cli_construct_remaining_families(tmp_path):
    from wrlat import an_root, integer_lattice, coxeter_barnes, hybrid, k3_prime

    for argv, want in [
        (("z", "--n", "3"), integer_lattice(3)),
        (("an", "--n", "4"), an_root(4)),
        (("hybrid", "--n", "5", "--m", "1"), hybrid(5, 1)),
        (("k3prime",), k3_prime()),
        (("coxeter-barnes", "--n", "7", "--r", "4"), coxeter_barnes(7, 4)),
    ]:
        out = tmp_path / "lat.json"
        assert run_cli("construct", *argv, "--out", str(out)) == 0
        assert load_lattice(str(out)).gram == want.gram


def test_cli_construct_bad_params():
    assert run_cli("construct", "lnm", "--n", "3", "--m", "2") == 2
    assert run_cli("construct", "lnm", "--n", "3") == 2
    assert run_cli("construct", "coxeter-barnes", "--n", "7", "--r", "3") == 2


def test_cli_analyze_hex(tmp_path, capsys):
    f = _lattice_file(tmp_path, "hex")
    assert run_cli("analyze", str(f)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["coherence"] == "1/2"
    assert abs(report["delta"] - 0.9069) < 1e-4
    assert report["eutaxy_class"] == "StronglyEutactic"
    assert report["perfect"] is True
    assert report["in_strict"] is True


def test_cli_analyze_k3prime(tmp_path, capsys):
    f = _lattice_file(tmp_path, "k3prime")
    assert run_cli("analyze", str(f)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kissing_number"] == 10
    assert report["eutaxy_class"] == "Eutactic"
    assert report["perfect"] is False
    assert report["in_weak"] is True and report["in_strict"] is False


def test_cli_analyze_frame4(tmp_path, capsys):
    f = _lattice_file(tmp_path, "anstar", "--n", "4")
    assert run_cli("analyze", str(f)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["coherence"] == "1/4"
    assert report["kissing_number"] == 10
    assert report["in_weak"] is False


PANEL_REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs" / "panel"
PANEL = {
    "staircase-9": lambda: staircase(9),
    "A9star": lambda: wrlat.an_dual_frame(9),
    "L-9-4": lambda: lnm(9, 4),
    "hybrid-8-2": lambda: wrlat.hybrid(8, 2),
    "A7-4": lambda: wrlat.coxeter_barnes(7, 4),
    "K3prime": wrlat.k3_prime,
    "E6+2A2": lambda: root_plus_hexagonal("E6", 6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]),
}


@pytest.mark.parametrize("name", PANEL)
def test_cli_analyze_panel_report_is_byte_identical(name, tmp_path, capsys):
    f = tmp_path / f"{name}.json"
    save_lattice(PANEL[name](), str(f))
    assert run_cli("analyze", str(f)) == 0
    assert capsys.readouterr().out == (PANEL_REFS / f"{name}.json").read_text(encoding="utf-8")


def test_cli_analyze_missing_file():
    assert run_cli("analyze", "/nonexistent/lattice.json") == 2


def test_cli_analyze_deterministic_bytes(tmp_path):
    f = _lattice_file(tmp_path, "staircase", "--n", "4")
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run_cli("analyze", str(f), "--out", str(r1))
    run_cli("analyze", str(f), "--out", str(r2))
    assert r1.read_bytes() == r2.read_bytes()


def test_cli_construct_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("construct", "hybrid", "--n", "6", "--m", "1", "--out", str(a))
    run_cli("construct", "hybrid", "--n", "6", "--m", "1", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_cli_verify_subsuite(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli("verify", "--suite", "coherence", "--max-n", "5", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["summary"]["fail"] == 0
    assert all(c["status"] == "pass" for c in data["checks"])
    assert all({"id", "claim", "status", "details"} == set(c) for c in data["checks"])


def test_a_crashing_check_is_an_error_not_a_failed_claim(tmp_path, monkeypatch):
    from wrlat import verify

    def crash(max_n):
        raise RuntimeError("boom")

    check_id, group = "coherence.integer_lattice", "coherence"
    claim, _ = verify._REGISTRY[check_id]
    clean = run_suite(group, max_n=4)
    assert set(clean.counts) == {"pass", "fail", "skipped"} and clean.passed
    monkeypatch.setitem(verify._REGISTRY, check_id, (claim, crash))
    report = run_suite(group, max_n=4)
    crashed = next(c for c in report.checks if c.check_id == check_id)
    assert (crashed.status, crashed.details) == ("error", "RuntimeError: boom")
    assert report.counts == {**clean.counts, "pass": clean.counts["pass"] - 1, "error": 1}
    assert not report.passed
    out = tmp_path / "report.json"
    assert run_cli("verify", "--suite", group, "--max-n", "4", "--out", str(out)) == 1
    assert json.loads(out.read_text())["summary"]["error"] == 1


def test_a_failed_assertion_is_a_failed_claim(tmp_path, monkeypatch):
    from wrlat import verify

    def refuted(max_n):
        raise AssertionError("claim refuted")

    check_id, group = "coherence.integer_lattice", "coherence"
    claim, _ = verify._REGISTRY[check_id]
    n = len(run_suite(group, max_n=4).checks)
    monkeypatch.setitem(verify._REGISTRY, check_id, (claim, refuted))
    report = run_suite(group, max_n=4)
    failed = next(c for c in report.checks if c.check_id == check_id)
    assert (failed.status, failed.details) == ("fail", "claim refuted")
    assert report.counts == {"pass": n - 1, "fail": 1, "skipped": 0}
    assert not report.passed
    out = tmp_path / "report.json"
    assert run_cli("verify", "--suite", group, "--max-n", "4", "--out", str(out)) == 1
    assert json.loads(out.read_text())["summary"] == {"pass": n - 1, "fail": 1, "skipped": 0}


def test_cli_verify_max_n_above_the_enumeration_guard_exits_2(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run_cli("verify", "--max-n", "13", "--out", str(out)) == 2
    assert "at most 12" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError, match="at most 12"):
        run_suite("constructions", max_n=13)


def test_cli_perturb_block(tmp_path, capsys):
    f = _lattice_file(tmp_path, "lnm", "--n", "3", "--m", "1")
    assert run_cli("perturb", str(f), "--block", "0", "--cos", "1/3") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["density_ratio_sq"] == "27/32"
    assert data["still_nearly_orthogonal"] is True


def test_cli_perturb_general(tmp_path, capsys):
    f = _lattice_file(tmp_path, "lnm", "--n", "3", "--m", "1")
    assert run_cli("perturb", str(f), "--mode", "nu", "--target", "1/3") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value_after"] == "1/3"


def test_cli_perturb_rejected_precondition(tmp_path, capsys):
    f = _lattice_file(tmp_path, "staircase", "--n", "3")
    assert run_cli("perturb", str(f), "--mode", "nu", "--target", "1/4") == 1
    data = json.loads(capsys.readouterr().out)
    assert "error" in data


def _not_strict_after_perturbation(lat):
    """is_theta_orthogonal, except that a perturbed lattice (named with "~") is never strict."""
    verdict = wrlat.is_theta_orthogonal(lat)
    return verdict._replace(strictly=False) if "~" in lat.name else verdict


@pytest.mark.parametrize(
    "name, fake, message, diagnostics",
    [
        # a wrong exact root makes the rotated row too long for a Gram
        (
            "rational_sqrt_exact",
            lambda q: F(9),
            "perturbed Gram not positive definite: pivot 2 is -603/3200",
            {},
        ),
        (
            "_density_ratio_sq",
            lambda before, after: F(2),
            "density ratio law violated beyond tolerance",
            {"achieved": "1/5", "density_ratio_sq": "2"},
        ),
        (
            "is_theta_orthogonal",
            _not_strict_after_perturbation,
            "perturbed lattice left the nearly orthogonal class",
            {"achieved": "1/5"},
        ),
    ],
    ids=["not-positive-definite", "density-law", "left-the-class"],
)
def test_cli_perturb_reports_each_failed_verification(tmp_path, capsys, monkeypatch, name, fake, message, diagnostics):
    # nu 1/4 -> 1/5 verifies on this Gram (an irrational rotation); each
    # patched step breaks one of the three post-hoc checks
    from wrlat import lattice_from_gram, perturb

    f = tmp_path / "g.json"
    save_lattice(lattice_from_gram("g", [[1, F(1, 4), F(1, 5)], [F(1, 4), 1, F(1, 6)], [F(1, 5), F(1, 6), 1]]), str(f))
    monkeypatch.setattr(perturb, name, fake)
    assert run_cli("perturb", str(f), "--mode", "nu", "--target", "1/5") == 1
    data = json.loads(capsys.readouterr().out)
    assert data["error"] == message
    assert data["diagnostics"].items() >= {"pair": "(0, 1)", "mode": "nu", "target": "1/5", **diagnostics}.items()


def test_cli_perturb_has_no_tolerance_option(tmp_path, capsys):
    # the post-hoc checks are exact against a fixed 10^-9; a tolerance of
    # nan or inf once made them accept any lattice
    f = _lattice_file(tmp_path, "z", "--n", "3")
    assert run_cli("perturb", str(f), "--mode", "mu", "--target", "1/3") == 1
    assert "mu after perturbation is 0, wanted 1/3" in capsys.readouterr().out
    for tol in ("1", "nan"):
        with pytest.raises(SystemExit) as info:
            run_cli("perturb", str(f), "--mode", "mu", "--target", "1/3", "--tol", tol)
        assert info.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_cli_perturb_requires_one_mode(tmp_path):
    f = _lattice_file(tmp_path, "hex")
    assert run_cli("perturb", str(f)) == 2
    assert run_cli("perturb", str(f), "--block", "0", "--mode", "nu") == 2


def test_cli_rejects_float_rationals(tmp_path):
    f = _lattice_file(tmp_path, "hex")
    assert run_cli("perturb", str(f), "--block", "0", "--cos", "0.25") == 2


def test_cli_analyze_strict_flags_guard_trips(tmp_path, capsys):
    f = _lattice_file(tmp_path, "z", "--n", "13")
    # rank 13 exceeds the enumeration guard: fields null, warnings set
    assert run_cli("analyze", str(f)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kissing_number"] is None
    assert report["warnings"] == ["minimal_vectors: rank 13 exceeds the enumeration guard 12"]
    assert run_cli("analyze", str(f), "--strict") == 1


def test_cli_analyze_has_no_basis_search_switch(tmp_path, capsys):
    # the search runs wherever the bounds leave a class open; no flag turns it off
    with pytest.raises(SystemExit) as exc:
        run_cli("analyze", str(_lattice_file(tmp_path, "hex")), "--no-basis-search")
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-basis-search" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run_cli("analyze", "--help")
    assert exc.value.code == 0 and "basis-search" not in capsys.readouterr().out


def test_the_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path, capsys):
    assert build_parser() is build_parser()
    z1 = str(_lattice_file(tmp_path, "z", "--n", "1"))
    skew = tmp_path / "z2skew.json"  # Z^2 in the basis (1, 0), (1, 1): cos^2 = 1/2
    skew.write_text(json.dumps({"name": "z2skew", "rank": 2, "gram": [["1", "1"], ["1", "2"]]}))
    assert run_cli("analyze", z1, "--strict") == 1
    assert run_cli("analyze", z1) == 0
    capsys.readouterr()
    assert run_cli("analyze", str(skew), "--theta", "1/2") == 0
    half = capsys.readouterr().out
    assert run_cli("analyze", str(skew)) == 0
    default = capsys.readouterr().out
    assert json.loads(half)["basis_verdict"]["strictly"] and not json.loads(default)["basis_verdict"]["strictly"]
    out = tmp_path / "report.json"
    assert run_cli("analyze", str(skew), "--out", str(out)) == 0
    assert capsys.readouterr().out == "" and out.read_text() == default
    with pytest.raises(SystemExit) as exc:
        run_cli("analyze", str(skew), "--theta")
    assert exc.value.code == 2
    assert run_cli("analyze", str(skew), "--theta", "2") == 2
    capsys.readouterr()
    assert run_cli("analyze", str(skew)) == 0
    assert capsys.readouterr().out == default


def test_cli_analyze_strict_exits_1_on_any_warning(tmp_path, capsys):
    # Z^1 trips no guard, but its report warns that it has no pair of
    # minimal vectors; hex gives a report without warnings
    assert run_cli("analyze", str(_lattice_file(tmp_path, "z", "--n", "1")), "--strict") == 1
    assert json.loads(capsys.readouterr().out)["warnings"]
    assert run_cli("analyze", str(_lattice_file(tmp_path, "hex")), "--strict") == 0


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"gram": [[1.5, 0], [0, 1]]}, "not a rational literal: 1.5"),
        ({"gram": [[1, "1/2"], ["1/2", 1]]}, "not a rational literal: 1"),
        # a NaN column makes every Gram entry it touches NaN, and NaN compares
        # within any tolerance, so only an explicit check rejects it
        ({"basis": [[math.nan, 0.5], [0, 1]]}, "finite"),
        ({"basis": [[math.inf, 0], [0, 1]]}, "finite"),
        ({"basis": [[1, None], [0, 1]]}, "malformed basis"),
        # int() would load these as ranks 2, 3 and 1
        ({"rank": 2.9}, "rank 2.9 is not an integer"),
        ({"rank": 3.0}, "rank 3.0 is not an integer"),
        ({"rank": True}, "rank True is not an integer"),
        ({"basis": []}, "malformed basis: empty basis"),
        ({"basis": [[1, 0], [0.5]]}, "malformed basis: ragged basis columns"),
        ({"basis": [[1], [0.5]]}, "malformed basis: more columns than ambient dimension"),
        # strings are not rows: iterating them would read "21" as [2, 1]
        ({"gram": ["21", "12"]}, "gram must be a JSON list of lists"),
        ({"rank": 1, "gram": "5"}, "gram must be a JSON list of lists"),
        ({"gram": [["1", "0"], ["0", "1"]], "basis": ["10", "01"]}, "basis must be a JSON list of lists"),
        # float() would load both as 1.0
        ({"rank": 1, "gram": [["1"]], "basis": [["1"]]}, "malformed basis: basis entries must be ints or floats"),
        ({"rank": 1, "gram": [["1"]], "basis": [[True]]}, "malformed basis: basis entries must be ints or floats"),
        # str() would load these as the name "5" and the provenance "['x']"
        ({"name": 5}, "name 5 is not a JSON string"),
        ({"provenance": ["x"]}, "provenance ['x'] is not a JSON string"),
        # a whole file: its nesting is deeper than the JSON decoder recurses
        pytest.param("[" * 100_000 + "]" * 100_000, "nests JSON too deeply", id="deeply-nested-json"),
        # indexing an array by key would fail with a message about Python lists
        pytest.param("[1, 2]", "a lattice file holds one JSON object", id="top-level-array"),
        ({"provenance": None}, "provenance null is not a JSON string"),
    ],
)
def test_cli_bad_lattice_file_exits_2(tmp_path, capsys, changes, message):
    if isinstance(changes, str):
        path = tmp_path / "raw.json"
        path.write_text(changes)
    else:
        path = _lattice_file(tmp_path, "hex", **changes)
    assert run_cli("analyze", str(path)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and message in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, changes, message",
    [
        (("construct", "z", "--n", "0"), {}, "rank must be positive"),
        (("construct", "an", "--n", "0"), {}, "rank must be positive"),
        (("construct", "anstar", "--n", "1"), {}, "frame needs rank >= 2"),
        (("construct", "staircase", "--n", "1"), {}, "staircase needs rank >= 2"),
        (("perturb", "FILE", "--block", "0"), {}, "block mode needs both --block and --cos"),
        (("perturb", "FILE", "--mode", "nu"), {}, "general mode needs both --mode and --target"),
        (("analyze", "FILE"), {"basis": [[1.0, 0.0]]}, "basis column count does not match rank"),
        (("verify", "--max-n", "1"), {}, "max_n must be at least 2"),
        (("perturb", "FILE", "--block", "0", "--cos", "1/3"), {"gram": [["2", "1"], ["1", "2"]]}, "unit-diagonal"),
        # block 0 is decoupled and unit, but b2 - b3 has norm 1/2
        (
            ("perturb", "FILE", "--block", "0", "--cos", "1/3"),
            {"rank": 4, "gram": [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "3/4"], ["0", "0", "3/4", "1"]]},
            "block perturbation expects minimal norm 1",
        ),
        (("perturb", "FILE", "--mode", "nu", "--target", "1/3"), {"rank": 1, "gram": [["1"]]}, "need rank >= 2"),
    ],
)
def test_cli_bad_arguments_exit_2(tmp_path, capsys, argv, changes, message):
    # FILE stands for the hex lattice file with the given fields replaced
    argv = [str(_lattice_file(tmp_path, "hex", **changes)) if a == "FILE" else a for a in argv]
    assert run_cli(*argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and message in err and err.count("\n") == 1


def test_cli_exits_2_on_input_errors_only(tmp_path, capsys, monkeypatch):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"name": "\xe9"}')
    assert run_cli("analyze", str(latin1)) == 2 and "not UTF-8" in capsys.readouterr().err
    hex_file = str(_lattice_file(tmp_path, "hex"))

    def bug(*args):
        raise ValueError("a bug, not bad input")

    monkeypatch.setattr(wrlat.minvec, "_shortest", bug)  # a ValueError inside a layer
    with pytest.raises(ValueError, match="a bug"):
        run_cli("analyze", hex_file)


def test_cli_theta_out_of_range_exits_2(tmp_path, capsys):
    not_wr = tmp_path / "diag14.json"
    not_wr.write_text(json.dumps({"name": "diag14", "rank": 2, "gram": [["1", "0"], ["0", "4"]]}))
    for path in (_lattice_file(tmp_path, "hex"), not_wr):
        assert run_cli("analyze", str(path), "--theta", "2") == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")


@pytest.mark.parametrize("theta", ["1/2", "1/3"])
def test_cli_membership_above_one_quarter_rests_on_certificates(tmp_path, capsys, theta):
    # A3's kissing number 12 exceeds 4n-2 = 10, a bound that holds only at
    # thresholds up to 1/4; at these, A3 has a basis in threshold
    assert run_cli("analyze", str(_lattice_file(tmp_path, "an", "--n", "3")), "--theta", theta) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["in_weak"] is True and report["in_strict"] is True
    assert not any("kissing" in r for r in report["membership_reasons"])


def test_cli_analyze_rank_1_warnings(tmp_path, capsys):
    f = _lattice_file(tmp_path, "z", "--n", "1")
    assert run_cli("analyze", str(f)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mu"] is None and report["nu"] is None
    assert report["warnings"] == [
        "coherence: 'Z^1' has fewer than two minimal pairs",
        "avg_coherence: 'Z^1' has fewer than two minimal pairs",
        "mu_nu: mu/nu need at least two basis vectors",
    ]


def test_cli_analyze_decides_membership_at_rank_12(tmp_path, capsys):
    f = _lattice_file(tmp_path, "staircase", "--n", "12")
    assert run_cli("analyze", str(f)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["in_weak"] is True and report["in_strict"] is False
    assert report["warnings"] == []


def test_cli_analyze_trips_the_rank_guard_at_the_enumeration(tmp_path, capsys):
    f = _lattice_file(tmp_path, "staircase", "--n", "14")
    assert run_cli("analyze", str(f)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["warnings"] == ["minimal_vectors: rank 14 exceeds the enumeration guard 12"]
    enumerated = (
        "norm_sq", "kissing_number", "minimal_pairs", "well_rounded", "coherence", "avg_coherence",
        "delta", "delta_sq_exact", "basis_verdict", "in_weak", "in_strict",
        "eutaxy_class", "eutaxy_coefficients", "eutaxy_solution_dim", "perfect",
    )
    assert all(report[key] is None for key in enumerated)
    assert report["mu"] == "1/8192" and report["nu"] == "1/2"  # read off the Gram, no enumeration
    # the guard is one constant: no option moves it
    with pytest.raises(SystemExit) as exc:
        run_cli("analyze", str(f), "--max-dim", "14")
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_threshold_sugar():
    assert parse_cos_sq_threshold("pi/3") == F(1, 4)
    assert parse_cos_sq_threshold("1/9") == F(1, 9)
    with pytest.raises(ValueError):
        parse_cos_sq_threshold("pi/4")
    with pytest.raises(ValueError):
        parse_cos_sq_threshold("-1/4")


def test_cli_sorted_keys(tmp_path, capsys):
    f = _lattice_file(tmp_path, "hex")
    run_cli("analyze", str(f))
    out = capsys.readouterr().out
    data = json.loads(out)
    assert out == json.dumps(data, sort_keys=True, indent=2) + "\n"
