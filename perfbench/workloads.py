"""Workload inputs, operations and output checks.

Imported only by pass processes, after the checkout's `src` directory is on
sys.path.  Every operation goes through a public entry point: the CLI
(`wrlat.cli.main`) for analyze and verify, and `wrlat.minimal_vectors` /
`wrlat.is_well_rounded` for the shortest-vector ops.

Two workloads, made of input kinds:

- `analyze-shortest`: `wrlat analyze` on the ROADMAP panel in stored bases
  (kind `panel`) and on disguised lattices (kind `skewed`), and shortest
  vectors of disguised rank 10-12 lattices (kind `shortest`);
- `verify-suite`: `wrlat verify --suite all --max-n 8` (kind `suite`).

A workload builds a list of `Op`s from its seed.  `run(tracer)` performs the
operation (through the traced layer sequence when a tracer is given) and
returns what `check` needs; `check` returns None when the output is correct,
else a one-line reason.  A traced op makes the same public call with layer
functions wrapped in spans (see tracer.wrapped), so its output is checked the
same way.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import wrlat
import wrlat.eutaxy
import wrlat.ortho
import wrlat.verify
from wrlat import cli

from tracer import Tracer, wrapped

REFS = Path(__file__).resolve().parent / "refs"


def root_lattice(name: str, n: int, edges) -> wrlat.Lattice:
    """The root lattice with the given Dynkin diagram: its Cartan matrix as Gram."""
    gram = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b in edges:
        gram[a][b] = gram[b][a] = -1
    return wrlat.lattice_from_gram(name, gram, provenance=f"Cartan matrix of {name}")


def with_hexagonal(lat) -> wrlat.Lattice:
    """lat + 2*A2: the hexagonal plane rescaled to the minimal norm 2 of lat."""
    return wrlat.direct_sum(lat, wrlat.scale_gram(wrlat.hexagonal(), 2))


# The ROADMAP panel, in the bases the constructions store, plus E6 + 2*A2: a
# root lattice with more minimal pairs than n(n+1)/2, summed with a plane of
# another pair density, so it is eutactic but not strongly and eutaxy needs
# the exact LP (a solution space of dimension 15).  The kissing bound decides
# its membership, so no search runs.  E7 + 2*A2 (an LP of dimension 35) is
# left out: its 4-5 s op alone was longer than a whole pass is now.
PANEL = {
    "staircase-9": lambda: wrlat.staircase(9),
    "A9star": lambda: wrlat.an_dual_frame(9),
    "L-9-4": lambda: wrlat.lnm(9, 4),
    "hybrid-8-2": lambda: wrlat.hybrid(8, 2),
    "A7-4": lambda: wrlat.coxeter_barnes(7, 4),
    "K3prime": wrlat.k3_prime,
    "E6+2A2": lambda: with_hexagonal(root_lattice("E6", 6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])),
}

# Disguised with n moves: the stored-basis verdict prunes at once, so the time
# moves to the minimal-basis search and its candidate verdicts.  The list is
# short because a run takes each op's median over its passes, which needs
# several passes in a run: staircase(6) (a 4-5 s search), L(9,4) and
# staircase(5) are left out.
SKEWED = {
    "hybrid-5-2": lambda: wrlat.hybrid(5, 2),
    "L-8-4": lambda: wrlat.lnm(8, 4),
    "K3prime": wrlat.k3_prime,
    "A9star": lambda: wrlat.an_dual_frame(9),
}

# Ranks 10-12, above the ordering guard, so only the enumerator runs.  Each is
# disguised four times, with n moves, and one op covers all four disguises:
# the cost of one call varies by about 30% between disguises of the same move
# count (40% and more at 3n/2 moves, up to 6x on A12), so mild disguises,
# averaged in fours, keep the op percentiles from following the seed.  +-2
# coefficients or 4n moves make single calls take minutes, so the generator
# never uses them.
SHORTEST = {
    "A10": lambda: wrlat.an_root(10),
    "A11": lambda: wrlat.an_root(11),
    "A12": lambda: wrlat.an_root(12),
    "A11-3": lambda: wrlat.coxeter_barnes(11, 3),
    "A11-4": lambda: wrlat.coxeter_barnes(11, 4),
    "A11-6": lambda: wrlat.coxeter_barnes(11, 6),
    "Z12": lambda: wrlat.integer_lattice(12),
    "L-12-6": lambda: wrlat.lnm(12, 6),
    "A11star": lambda: wrlat.an_dual_frame(11),
    "staircase-12": lambda: wrlat.staircase(12),
    "hybrid-12-5": lambda: wrlat.hybrid(12, 5),
}

SUITE_ARGS = ("--suite", "all", "--max-n", "8")
SUITE_GROUPS = ("constructions", "theorems", "coherence")

WORKLOADS = {"analyze-shortest": ("panel", "skewed", "shortest"), "verify-suite": ("suite",)}
TABLES = {"panel": PANEL, "skewed": SKEWED, "shortest": SHORTEST}
COPIES = {"panel": 0, "skewed": 1, "shortest": 4}  # 0: the stored basis itself

# Shrunken inputs for the smoke test: a subset of the bases above, so the
# same references apply.
SMOKE = {
    "panel": ["K3prime"],
    "skewed": ["K3prime", "L-8-4"],
    "shortest": ["A10", "Z12"],
    "suite": ["coherence", "4"],
}

# The lattice invariants compared on disguised inputs.  in_weak is checked
# separately: it may be undecided (null) but must never contradict.
INVARIANT_KEYS = (
    "norm_sq",
    "kissing_number",
    "det_gram",
    "coherence",
    "avg_coherence",
    "delta_sq_exact",
    "well_rounded",
    "eutaxy_class",
    "perfect",
    "in_strict",
)

# Traced passes run the same public calls as timed ones, with these module
# bindings replaced by span-recording wrappers.  For analyze: what
# classification_report calls (bindings in wrlat.eutaxy), and the stored-basis
# verdict and minimal-basis search inside membership_report (in wrlat.ortho),
# so membership_report's self time excludes them.  For the suite: what the
# verify checks call directly (bindings in wrlat.verify), as child spans of
# each group.
ANALYZE_TRACED = (
    "minimal_vectors",
    "is_well_rounded",
    "coherence",
    "average_coherence",
    "mu_nu",
    "packing_density",
    "membership_report",
    "eutaxy_classify",
    "is_perfect",
)
ORTHO_TRACED = ("is_theta_orthogonal", "minimal_basis_subsets")
SUITE_TRACED = (
    "brute_force_min_vectors",
    "minimal_vectors",
    "is_well_rounded",
    "is_theta_orthogonal",
    "minimal_basis_subsets",
    "eutaxy_classify",
    "is_perfect",
    "coherence",
    "packing_density",
)


@dataclass
class Op:
    kind: str
    label: str
    run: Callable
    check: Callable


def load_refs() -> dict:
    with open(REFS / "references.json", encoding="utf-8") as fh:
        return json.load(fh)


def layer_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


# --- inputs ------------------------------------------------------------------


def gram_rows(lat) -> list[list[Fraction]]:
    return [list(lat.gram.row(i)) for i in range(lat.rank)]


def disguise(rows, rng: random.Random, moves: int):
    """Apply `moves` elementary column moves b_j += s b_i, s = +-1, to a Gram.

    The targets j sweep a shuffled order of all indices before any repeats, so
    n moves change every basis vector once and none piles up moves.
    """
    g = [list(r) for r in rows]
    n = len(g)
    targets: list[int] = []
    while len(targets) < moves:
        targets += rng.sample(range(n), n)
    for j in targets[:moves]:
        i = rng.choice([k for k in range(n) if k != j])
        s = rng.choice((1, -1))
        for k in range(n):
            g[k][j] += s * g[k][i]
        for k in range(n):
            g[j][k] += s * g[i][k]
    return g


def lattice_file_bytes(name: str, rows, provenance: str) -> bytes:
    doc = {
        "name": name,
        "rank": len(rows),
        "gram": [[str(Fraction(e)) for e in r] for r in rows],
        "provenance": provenance,
    }
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def generate(workload: str, seed: int, smoke: bool = False) -> list[tuple[str, str, str, bytes]]:
    """The workload's lattice inputs as (kind, label, base, file bytes).

    The same seed gives the same bytes.  Every disguised copy gets n moves.
    """
    out = []
    for kind in WORKLOADS[workload]:
        if kind == "suite":
            continue
        table, copies = TABLES[kind], COPIES[kind]
        for key in SMOKE[kind] if smoke else table:
            lat = table[key]()
            rows = gram_rows(lat)
            if copies == 0:
                out.append((kind, key, key, lattice_file_bytes(lat.name, rows, lat.provenance)))
            for copy in range(copies):
                rng = random.Random(f"{kind}:{seed}:{key}:{copy}")
                moves = lat.rank
                prov = f"{lat.provenance}; disguised by {moves} elementary moves"
                data = lattice_file_bytes(lat.name, disguise(rows, rng, moves), prov)
                out.append((kind, f"{key}#{copy}", key, data))
    return out


def digest(workload: str, inputs, smoke: bool) -> str:
    h = hashlib.sha256()
    if "suite" in WORKLOADS[workload]:
        h.update(" ".join(suite_args(smoke)).encode())
    for kind, label, _, data in inputs:
        h.update(f"{kind}/{label}".encode() + b"\0" + data)
    return h.hexdigest()


def suite_args(smoke: bool) -> tuple[str, ...]:
    if smoke:
        group, max_n = SMOKE["suite"]
        return ("--suite", group, "--max-n", max_n)
    return SUITE_ARGS


# --- operations --------------------------------------------------------------


def run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def traced_analyze(path: str, tr: Tracer) -> tuple[int, str]:
    """`wrlat analyze path` with the layers classification_report calls
    wrapped in spans."""
    with wrapped(tr, cli, ("load_lattice",), layer_name), \
            wrapped(tr, wrlat.eutaxy, ANALYZE_TRACED, layer_name, counter(tr)), \
            wrapped(tr, wrlat.ortho, ORTHO_TRACED, layer_name, counter(tr)):
        return run_cli(("analyze", path))


def check_invariants(fields: dict, ref: dict) -> str | None:
    for key in INVARIANT_KEYS:
        if fields.get(key) != ref[key]:
            return f"{key}: {fields.get(key)!r} != {ref[key]!r}"
    if fields.get("in_weak") is not None and fields["in_weak"] != ref["in_weak"]:
        return f"in_weak: {fields['in_weak']!r} contradicts {ref['in_weak']!r}"
    return None


def counter(tr: Tracer):
    """Counts read from the arguments and results of traced calls."""
    def count(span, args, kwargs, result):
        if span == "minvec.brute_force_min_vectors":
            box = kwargs.get("box", args[1] if len(args) > 1 else None)
            tr.counts["minvec.oracle_points"] += (2 * box + 1) ** args[0].rank
        elif span == "minvec.minimal_vectors":
            tr.counts["minvec.pairs_found"] += len(result.pairs)
        elif span == "invariants.coherence":
            # a cache hit: coherence has just enumerated this lattice's minimal vectors
            tr.counts["invariants.pair_products"] += len(wrlat.minimal_vectors(args[0]).pairs) ** 2
        elif span == "eutaxy.eutaxy_classify":
            if result.klass.value != "StronglyEutactic" and result.solution_space_dim > 0:
                tr.counts["eutaxy.lp_runs"] += 1
                tr.counts["eutaxy.lp_dim_total"] += result.solution_space_dim
        elif span == "ortho.minimal_basis_subsets":
            _, det = result
            tr.counts["ortho.subsets_spanning"] += 1
            tr.counts["ortho.subsets_unimodular"] += abs(det) == 1

    return count


def traced_suite(argv, tr: Tracer) -> dict:
    """`run_suite` once per group, in registry order, with the layers the
    checks call wrapped in spans."""
    group, max_n = argv[1], int(argv[3])
    groups = SUITE_GROUPS if group == "all" else (group,)
    checks = []
    with wrapped(tr, wrlat.verify, SUITE_TRACED, layer_name, counter(tr)):
        for g in groups:
            report = tr.call(f"verify.{g}", wrlat.run_suite, suite=g, max_n=max_n)
            checks.extend(report.checks)
    summary = {"pass": 0, "fail": 0, "skipped": 0}
    for c in checks:
        summary[c.status] += 1
    return {"code": 0 if summary["fail"] == 0 else 1, "summary": summary,
            "ids": sorted(c.check_id for c in checks)}


def suite_op(argv, want_ids) -> Op:
    def run(tr):
        if tr is not None:
            return traced_suite(argv, tr)
        code, out = run_cli(("verify",) + argv)
        doc = json.loads(out)
        return {"code": code, "summary": doc["summary"], "ids": sorted(c["id"] for c in doc["checks"])}

    def check(res):
        want = {"pass": len(want_ids), "fail": 0, "skipped": 0}
        if res["code"] != 0 or res["summary"] != want:
            return f"exit {res['code']}, summary {res['summary']}"
        return None if res["ids"] == want_ids else "check ids differ from the reference"

    return Op("suite", "verify " + " ".join(argv), run, check)


def analyze_op(kind: str, label: str, path: str, report: str | None, ref: dict) -> Op:
    """`wrlat analyze path`; with a reference report the output must equal it
    byte for byte, else its invariants must match `ref`."""
    def run(tr):
        return run_cli(("analyze", path)) if tr is None else traced_analyze(path, tr)

    def check(res):
        code, text = res
        if code != 0:
            return f"exit {code}"
        if report is not None:
            return None if text == report else "report differs from the reference"
        return check_invariants(json.loads(text), ref)

    return Op(kind, label, run, check)


def shortest_op(label: str, lats, ref: dict) -> Op:
    """`minimal_vectors` and `is_well_rounded` on each disguise of one base
    lattice: one op per base, so an op's time averages over its disguises."""
    def run(tr):
        out = []
        for lat in lats:
            if tr is None:
                out.append((wrlat.minimal_vectors(lat), wrlat.is_well_rounded(lat)))
                continue
            mvs = tr.call("minvec.minimal_vectors", wrlat.minimal_vectors, lat)
            tr.counts["minvec.pairs_found"] += len(mvs.pairs)
            out.append((mvs, tr.call("minvec.is_well_rounded", wrlat.is_well_rounded, lat)))
        return out

    def check(res):
        for mvs, wr in res:
            got = {"norm_sq": str(mvs.norm_sq), "kissing_number": mvs.count, "well_rounded": wr}
            if got != ref:
                return f"{got} != {ref}"
        return None

    return Op("shortest", label, run, check)


def build(workload: str, seed: int, smoke: bool, workdir: Path, tracer: Tracer | None):
    """Write the workload's inputs under workdir and return (ops, digest).

    Lattices for shortest-vector ops are loaded here, during set-up, and
    grouped by base lattice; the analyze ops load their file inside the CLI
    call."""
    refs = load_refs()
    inputs = generate(workload, seed, smoke)
    workdir.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []
    disguises: dict[str, list] = {}
    if "suite" in WORKLOADS[workload]:
        argv = suite_args(smoke)
        want = sorted(i for i in refs["suite_ids"] if argv[1] == "all" or i.startswith(argv[1] + "."))
        ops.append(suite_op(argv, want))
    for kind, label, base, data in inputs:
        path = workdir / f"{kind}-{label.replace('#', '-')}.json"
        path.write_bytes(data)
        if kind == "panel":
            report = (REFS / "panel" / f"{base}.json").read_text(encoding="utf-8")
            ops.append(analyze_op(kind, label, str(path), report, json.loads(report)))
        elif kind == "skewed":
            ops.append(analyze_op(kind, label, str(path), None, refs["invariants"][base]))
        else:
            lat = tracer.call("lattice.load_lattice", wrlat.load_lattice, str(path)) if tracer \
                else wrlat.load_lattice(str(path))
            disguises.setdefault(base, []).append(lat)
    ops += [shortest_op(base, lats, refs["shortest"][base]) for base, lats in disguises.items()]
    return ops, digest(workload, inputs, smoke)
