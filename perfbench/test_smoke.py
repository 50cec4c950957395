"""Smoke test: every workload runs once on shrunken inputs, in both modes, and
reports exactly the metric names BENCHMARK.json declares."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_smoke(workload, trace):
    res = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                    "--trace", trace, "--smoke")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


def test_recorded_input_digests_reproduce():
    """Generation is deterministic: the recorded seeds give the recorded inputs."""
    code = (
        "import json, sys; sys.path[:0] = ['src', 'perfbench']; import workloads; "
        "refs = workloads.load_refs()['input_digests']; "
        "print(json.dumps({w: {s: workloads.digest(w, workloads.generate(w, int(s)), False) "
        "for s in seeds} for w, seeds in refs.items()} == refs))"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "true"


def test_refuses_without_sources(tmp_path):
    """In a directory holding only the benchmark, it fails without a result."""
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
