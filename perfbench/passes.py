"""One benchmark pass in a fresh interpreter; started by run.py, one at a time.

Usage: python3 passes.py '<json spec>'

The spec names the checkout root, workload, seed, mode (`setup`, `time` or
`trace`), the `smoke` flag, a scratch directory, and `t_spawn`, the parent's
time.perf_counter() just before it started this process (CLOCK_MONOTONIC,
shared by all processes on the host).  Set-up runs from `t_spawn` to the first
operation: interpreter start, `import wrlat` and input generation.

Host speed is sampled with a fixed probe kernel: a block of EDGE_PROBES probes
after set-up and between operations, and, in set-up and timed passes, one
probe every SAMPLE_INTERVAL_S of wall time while set-up or an operation runs
(from a SIGALRM handler, so the probe interrupts the program between
bytecodes).  Probe time spent inside an operation is taken out of its
latency.  Each operation reports the mean probe time over the blocks on both
sides of it and the samples taken during it; set-up reports the same over its
samples and the block after it.  run.py scales latencies by these means.

Prints one JSON object on the last line of stdout.
"""

from __future__ import annotations

import json
import resource
import shutil
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path


EDGE_PROBES = 10  # probes in the block after set-up and after every operation
SAMPLE_INTERVAL_S = 0.025  # wall time between probes taken during set-up and ops


def host_probe() -> float:
    """Seconds for a fixed pure-Python Fraction kernel: the 9x9 Hilbert
    determinant by elimination, three times.  Tracks host speed drift."""
    start = time.perf_counter()
    for _ in range(3):
        a = [[Fraction(1, i + j + 1) for j in range(9)] for i in range(9)]
        det = Fraction(1)
        for c in range(9):
            det *= a[c][c]
            for r in range(c + 1, 9):
                f = a[r][c] / a[c][c]
                for k in range(c, 9):
                    a[r][k] -= f * a[c][k]
    if det.numerator != 1:  # Hilbert determinants are 1/integer
        raise AssertionError("host probe computed a wrong determinant")
    return time.perf_counter() - start


class Sampler:
    """Times one host probe every `interval` seconds of wall time while armed.

    The timer is one-shot and re-armed when a probe ends, so probes never
    overlap, and it is disarmed around the probe blocks so that it never
    interrupts one.  `spent` is the wall time spent in the handler, to be
    taken out of whatever it interrupted."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._handler)

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(host_probe())
        self.spent += time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def arm(self):
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def disarm(self) -> tuple[list[float], float]:
        """Stop the timer; return the samples and handler time since arm()."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.samples, self.spent


def probe_block() -> list[float]:
    return [host_probe() for _ in range(EDGE_PROBES)]


def mean(values: list[float]) -> float:
    return sum(values) / len(values)


def peak_rss_mb() -> float:
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1024 * 1024) if sys.platform == "darwin" else rss / 1024


def main() -> int:
    spec = json.loads(sys.argv[1])
    sampling = spec["mode"] != "trace"  # spans would include the probes
    sampler = Sampler(SAMPLE_INTERVAL_S)
    if sampling:
        sampler.arm()
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import wrlat

    import_s = time.perf_counter() - t0
    if not Path(wrlat.__file__).resolve().is_relative_to(src.resolve()):
        sampler.disarm()
        print(f"error: imported wrlat from {wrlat.__file__}, not from {src}", file=sys.stderr)
        return 2

    import workloads
    from tracer import Tracer

    tracer = Tracer() if spec["mode"] == "trace" else None
    workdir = Path(spec["workdir"])
    try:
        ops, digest = workloads.build(spec["workload"], spec["seed"], spec["smoke"], workdir, tracer)
        samples, spent = sampler.disarm()
        end = time.perf_counter()
        block = probe_block()
        result = {
            "setup_s": end - spec["t_spawn"] - spent,
            "setup_probe_s": mean(samples + block),
            "import_s": import_s,
            "digest": digest,
            "ops": [],
        }
        probes = list(block)
        if spec["mode"] != "setup":
            for index, op in enumerate(ops):
                if tracer is not None:
                    tracer.op = index
                if sampling:
                    sampler.arm()
                start = time.perf_counter()
                try:
                    outcome, error = op.run(tracer), None
                except Exception as exc:  # an op that raises counts as failed
                    outcome, error = None, f"{type(exc).__name__}: {exc}"
                samples, spent = sampler.disarm()
                latency = time.perf_counter() - start
                if error is None:
                    try:
                        error = op.check(outcome)
                    except Exception as exc:
                        error = f"check raised {type(exc).__name__}: {exc}"
                if error is not None:
                    print(f"FAILED {op.label}: {error}", file=sys.stderr)
                after = probe_block()
                probes += samples + after
                result["ops"].append({"kind": op.kind, "label": op.label, "latency_s": latency - spent,
                                      "probe_s": mean(block + samples + after), "ok": error is None})
                block = after
        result["host_ref_s"] = probes
        if tracer is not None:
            result["layers"] = tracer.layer_totals()
            kinds = {op.kind for op in ops}
            result["layers_by_kind"] = {
                k: tracer.layer_totals({i for i, op in enumerate(ops) if op.kind == k}) for k in kinds
            }
            result["counts"] = dict(tracer.counts)
            result["op_layer_s"] = tracer.op_times(len(ops))
            result["spans"] = tracer.spans
        result["peak_rss_mb"] = peak_rss_mb()
    finally:
        sampler.disarm()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
