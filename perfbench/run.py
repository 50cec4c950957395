"""wrlat benchmark runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analyze-shortest --seed 1 --seconds 50 --trace 0

A closed loop with one client: each pass runs in a fresh Python interpreter
(cold caches, the user's cold-start cost in set-up), spawned one at a time.
Passes repeat until the next one would end after `--seconds`; at least one
pass always runs.  Set-up is also sampled by extra processes that stop before
the first operation.

Every pass does the same operations on the same inputs.  The host's speed
drifts by up to 1.8x (see README.md), so every time metric is normalized, not
raw wall time: a pass process times a fixed stdlib-Fraction probe around and
during each operation (passes.py), and an operation's latency is scaled by
REF_PROBE_S over the mean probe time it saw.  The result reads as seconds on
a host where the probe takes REF_PROBE_S.  Each operation's time is the
median of its scaled latencies over the timed passes: `run_s` sums those
times and `op_p50_s` / `op_p90_s` are their Harrell-Davis percentiles.  `setup_s` is scaled
the same way.  The summary lines also print the raw wall-clock figures.

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and reports the per-layer metrics.  The last line of stdout
is one JSON object with `correct`, `attempted`, `failed` and `metrics`; the
lines before it are a readable summary.  `--smoke` runs shrunken inputs (for
the smoke test).  Spans of traced passes are written once, at the end, to
perfbench/.out/trace-<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"

WORKLOADS = ("analyze-shortest", "verify-suite")
SETUP_PROCESSES = 4
# The probe time the metrics are scaled to: about the fastest probe seen on
# the 2-vCPU Xeon VM the baseline was measured on.
REF_PROBE_S = 0.0025
PASS_TIMEOUT_S = 170
END_TO_END_UNITS = {
    "run_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def recorded_digest(workload: str, seed: int) -> str | None:
    with open(HERE / "refs" / "references.json", encoding="utf-8") as fh:
        return json.load(fh)["input_digests"][workload].get(str(seed))


class PassFailed(RuntimeError):
    pass


def spawn(spec: dict, deadline: float) -> dict:
    """Run one pass process to completion and return its result."""
    timeout = max(1.0, min(PASS_TIMEOUT_S, deadline - time.perf_counter()))
    spec = dict(spec, t_spawn=time.perf_counter())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "passes.py"), json.dumps(spec)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{spec['mode']} pass exceeded {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise PassFailed(f"{spec['mode']} pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values, q: float) -> float:
    """The Harrell-Davis estimate of the q-quantile: a weighted mean of all
    order statistics, with Beta(q(n+1), (1-q)(n+1)) weights.  Unlike a single
    order statistic it does not jump when two ops of unequal cost swap places
    between seeds."""
    n = len(values)
    if n == 1:
        return values[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 200  # midpoint rule per order statistic; the pdf may be infinite at 0 or 1
    weights = []
    for i in range(n):
        ts = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
                           for t in ts))
    total = sum(weights)
    return sum(w * v for w, v in zip(weights, sorted(values))) / total


def run_passes(args, workdir: Path):
    """Set-up probes, then passes until the deadline; returns (setups, passes)."""
    start = time.perf_counter()
    deadline = start + args.seconds
    hard_deadline = start + PASS_TIMEOUT_S
    base = {
        "root": str(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "workdir": str(workdir),
    }
    # the first process compiles bytecode and warms the file cache; not recorded
    spawn(dict(base, mode="setup"), hard_deadline)
    setups = [spawn(dict(base, mode="setup"), hard_deadline) for _ in range(1 if args.smoke else SETUP_PROCESSES)]
    modes = ("time", "trace") if args.trace else ("time",)
    passes: list[tuple[str, dict]] = []
    walls: list[float] = []
    while True:
        mode = modes[len(passes) % len(modes)]
        if len(passes) >= len(modes) and time.perf_counter() + max(walls[-len(modes):]) > deadline:
            break
        t = time.perf_counter()
        passes.append((mode, spawn(dict(base, mode=mode), hard_deadline)))
        walls.append(time.perf_counter() - t)
    return setups, passes


def scaled(latency_s: float, probe_s: float) -> float:
    """A latency in seconds at the reference host speed."""
    return latency_s * REF_PROBE_S / probe_s


def op_times(passes: list[dict], seconds: list[list[float]]) -> list[float]:
    """Each operation's median scaled time over the passes of a run, from one
    list of per-op seconds per pass."""
    per_pass = [[scaled(v, op["probe_s"]) for v, op in zip(values, r["ops"])]
                for r, values in zip(passes, seconds)]
    return [statistics.median(column) for column in zip(*per_pass)]


def end_to_end(setups, passes) -> dict:
    timed = [r for mode, r in passes if mode == "time"]
    latencies = op_times(timed, [[op["latency_s"] for op in r["ops"]] for r in timed])
    return {
        "run_s": sum(latencies),
        "op_p50_s": quantile(latencies, 0.5),
        "op_p90_s": quantile(latencies, 0.9),
        "setup_s": statistics.median(scaled(r["setup_s"], r["setup_probe_s"]) for r in setups + timed),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }


def raw_wall(setups, passes) -> tuple[float, float]:
    """Unscaled figures for the summary: median pass time over the timed
    passes (ops only, probes excluded) and median set-up."""
    timed = [r for mode, r in passes if mode == "time"]
    return (statistics.median(sum(op["latency_s"] for op in r["ops"]) for r in timed),
            statistics.median(r["setup_s"] for r in setups + timed))


def host_ref(processes) -> float:
    return statistics.median(p for r in processes for p in r["host_ref_s"])


def per_layer(setups, passes, e2e: dict) -> dict:
    traced = [r for mode, r in passes if mode == "trace"]
    names = per_layer_units()
    values = {}
    for name in names:
        layer, _, field = name.rpartition(".")
        samples = []
        for r in traced:
            if field in ("busy_s", "calls"):
                samples.append(r["layers"].get(layer, {}).get(field, 0))
            else:
                samples.append(r["counts"].get(name, 0))
        values[name] = min(samples)
    everything = setups + [r for _, r in passes]
    values["bench.import_s"] = statistics.median(r["import_s"] for r in everything)
    values["bench.host_ref_s"] = host_ref(everything)
    values["trace.layer_sum_s"] = sum(op_times(traced, [r["op_layer_s"] for r in traced]))
    values["trace.untraced_run_s"] = e2e["run_s"]
    values["trace.overhead_ratio"] = values["trace.layer_sum_s"] / e2e["run_s"]
    return values


def dominant_layer_lines(passes) -> list[str]:
    """Per input kind, compare the layer with the most self time in the traced
    passes against layer_map.json."""
    with open(HERE / "layer_map.json", encoding="utf-8") as fh:
        expected = json.load(fh)["dominant_layer"]
    traced = [r for mode, r in passes if mode == "trace"]
    lines = []
    for kind in sorted(traced[0]["layers_by_kind"]):
        layers = {name for r in traced for name in r["layers_by_kind"][kind]}
        busy = {name: min(r["layers_by_kind"][kind].get(name, {}).get("busy_s", 0.0)
                              for r in traced)
                for name in layers if not name.startswith("verify.")}
        top = max(busy, key=busy.get)
        verdict = ("matches the map" if top in expected[kind]
                   else f"MISMATCH: the map expects {' or '.join(expected[kind])}")
        lines.append(f"  dominant layer on {kind}: {top} ({busy[top]:.3f} s of "
                     f"{sum(busy.values()):.3f} s traced): {verdict}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrunken inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wrlat" / "__init__.py").is_file():
        print(f"error: no wrlat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{os.getpid()}"
    try:
        setups, passes = run_passes(args, workdir)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every = setups + [r for _, r in passes]
    digests = {r["digest"] for r in every}
    ops = [op for _, r in passes for op in r["ops"]]
    failed = sum(not op["ok"] for op in ops)
    e2e = end_to_end(setups, passes)
    timed = sum(mode == "time" for mode, _ in passes)
    n_ops = len(passes[0][1]["ops"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)} ({timed} timed)  inputs sha256 {min(digests)[:16]}")
    raw_run, raw_setup = raw_wall(setups, passes)
    print(f"  times in seconds at the reference host speed (probe {REF_PROBE_S * 1e3:.2f} ms); "
          "raw = median unscaled wall time")
    notes = {
        "run_s": f"sum over {n_ops} ops of each op's median of {timed} passes; raw {raw_run:.3f} s",
        "op_p50_s": f"over the {n_ops} median op latencies",
        "op_p90_s": f"over the {n_ops} median op latencies",
        "setup_s": f"median of {len(setups) + timed} processes; raw {raw_setup:.3f} s",
        "peak_rss_mb": "median ru_maxrss of the timed passes",
    }
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<13} {e2e[name]:>12.6f} {unit:<5} {notes[name]}")
    print(f"  {'fail_ratio':<13} {failed / len(ops):>12.6f} {'1':<5} {failed} of {len(ops)} ops failed")
    print(f"  {'host_ref_s':<13} {host_ref(every):>12.6f} {'s':<5} "
          "median time of the Fraction probe; ops are scaled by the probes around them")

    if args.trace:
        units = per_layer_units()
        values = per_layer(setups, passes, e2e)
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        for name, m in metrics.items():
            print(f"  {name:<42} {m['value']:>14.6f} {m['unit']}")
        print("\n".join(dominant_layer_lines(passes)))
        OUT.mkdir(parents=True, exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        spans = [{"pass": i, "spans": r["spans"]} for i, (mode, r) in enumerate(passes) if mode == "trace"]
        trace_file.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                          "passes": spans}) + "\n", encoding="utf-8")
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    correct = failed == 0 and len(digests) == 1
    if len(digests) != 1:
        print("error: pass processes generated different inputs", file=sys.stderr)
    recorded = None if args.smoke else recorded_digest(args.workload, args.seed)
    if recorded is not None and digests != {recorded}:
        correct = False
        print("error: inputs differ from the ones recorded for this seed", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
