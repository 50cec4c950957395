"""Run the benchmark over several seeds and record the result as BENCH_<label>.json.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --label baseline

For every workload of BENCHMARK.json it makes one untraced run per seed
(seeds 1..10) and one traced run (seed 1), and records per end-to-end metric the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median,
next to the host: nproc, CPU model and Python version.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    result = {
        "label": args.label,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "host": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench(workload, seed, seconds, 0) for seed in result["seeds"]]
        if not all(r["correct"] and r["failed"] == 0 for r in runs):
            raise SystemExit(f"{workload}: a run reported wrong outputs")
        traced = bench(workload, 1, seconds, 1)
        result["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                m["name"]: dict(summarize([r["metrics"][m["name"]]["value"] for r in runs]), unit=m["unit"])
                for m in spec["end_to_end"]
            },
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
