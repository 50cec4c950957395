"""Record the benchmark's correctness references from the current sources.

Usage, from the root of a checkout:

    python3 perfbench/record_refs.py

Writes perfbench/refs/panel/<lattice>.json (the exact `wrlat analyze` output
for each panel lattice) and perfbench/refs/references.json: the stored-basis
invariants of every base lattice of skewed-analyze and shortest-vectors, the
check ids of the full verify suite, and the sha256 digest of each workload's
generated inputs for seeds 0-2.  Run it only at a commit whose outputs are
trusted; later runs compare against these files.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import wrlat  # noqa: E402

import workloads  # noqa: E402

DIGEST_SEEDS = (0, 1, 2)


def main() -> int:
    refs_dir = HERE / "refs"
    (refs_dir / "panel").mkdir(parents=True, exist_ok=True)

    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for kind, label, base, data in workloads.generate("analyze-shortest", 0):
            if kind != "panel":
                continue
            path = Path(tmp) / f"{label}.json"
            path.write_bytes(data)
            code, text = workloads.run_cli(("analyze", str(path)))
            if code != 0:
                raise SystemExit(f"analyze {label} exited with {code}")
            (refs_dir / "panel" / f"{base}.json").write_text(text, encoding="utf-8")

    invariants = {}
    for key, make in workloads.SKEWED.items():
        fields = wrlat.classification_report(make()).to_json_dict()
        invariants[key] = {k: fields[k] for k in workloads.INVARIANT_KEYS + ("in_weak",)}

    shortest = {}
    for key, make in workloads.SHORTEST.items():
        lat = make()
        mvs = wrlat.minimal_vectors(lat)
        shortest[key] = {
            "norm_sq": str(mvs.norm_sq),
            "kissing_number": mvs.count,
            "well_rounded": wrlat.is_well_rounded(lat),
        }

    suite = wrlat.run_suite("all", max_n=8)
    if not suite.passed:
        raise SystemExit(f"verify suite does not pass: {suite.counts}")

    digests = {
        w: {str(s): workloads.digest(w, workloads.generate(w, s), False) for s in DIGEST_SEEDS}
        for w in workloads.WORKLOADS
    }
    doc = {
        "invariants": invariants,
        "shortest": shortest,
        "suite_ids": sorted(c.check_id for c in suite.checks),
        "input_digests": digests,
    }
    with open(refs_dir / "references.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
