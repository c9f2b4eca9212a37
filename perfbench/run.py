"""Outside-in benchmark for sprec: reconstruct seeded instances, time, verify.

Usage, from the root of a source checkout (``src/sprec`` must be there)::

    python3 perfbench/run.py --workload tree-wide --seed 0 --seconds 45 --trace 0

One process, one thread, one client in a closed loop: instances are set up
and reconstructed one after another. Instance ``i`` of a run uses family seed
``seed + i * SEED_STRIDE``, so ``--seed 0`` starts with the instance whose
ledger and output hash are pinned in ``pins.json``. Each workload runs a
fixed number of instances (``INSTANCES``), so a seed always yields the same
inputs and the same query counts. ``--seconds`` is only a safety stop: no
further instance starts once the run would pass ``SAFETY_FACTOR`` times it.

``--trace 0`` measures with no wrappers installed and reports the end-to-end
metrics. ``--trace 1`` runs the traced pass over instance 0 alone in a child
process (see ``spans.py``), writes its spans to ``.perfbench_out/``, then
reconstructs the same instance untraced in this process, checks that both
passes agree, and reports the per-layer metrics plus ``trace_overhead``.

Every output is compared with the hidden graph by ``graphs_equal`` under
strict budgets and the true maximum degree. A raised ReconstructionError, a
mismatch, or a ledger or edge hash that differs from the pinned one or from
the other pass counts as a failed instance, and the run exits with code 1.
Metric names and units come from ``BENCHMARK.json``; each metric is printed
as ``name value unit`` and the last line is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Every instance is n >= 1024, so the oracle always takes its numpy BFS path;
# the sizes are those whose probes fixed the layer mix each workload stresses.
WORKLOADS = {
    "tree-wide": {"family": "random-tree", "n": 8192, "max_degree": 4},
    "ktree-dense": {"family": "ktree", "n": 4096, "max_degree": 8, "k": 2},
    "caterpillar-deep": {"family": "caterpillar", "n": 2048, "max_degree": 4},
}
# Instances per --trace 0 run: as many as fit in ~45 s on a 2-core VM. The
# median of three or more instances shrugs off one slowed by a noisy host;
# a caterpillar instance takes up to 20 s, so that workload runs two.
INSTANCES = {"tree-wide": 3, "ktree-dense": 4, "caterpillar-deep": 2}
# Per-layer metrics come from instance 0 alone, so they are per instance.
TRACE_INSTANCES = 1
SEED_STRIDE = 1_000_003
# Set-up takes 5-50 ms. It is repeated before every instance so that its
# samples spread over the whole run and their median rides out a slow spell.
SETUP_REPEATS = 8
# No instance starts once the run would pass this many times --seconds, nor
# HARD_CAP_S, which keeps a run inside the 180 s a run may take.
SAFETY_FACTOR = 3
HARD_CAP_S = 150
TRACE_CHILD_TIMEOUT_S = 110
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def edges_sha256(graph) -> str:
    h = hashlib.sha256()
    for u, v in graph.edges():
        h.update(f"{u} {v}\n".encode())
    return h.hexdigest()


def instance_seed(seed: int, i: int) -> int:
    return seed + i * SEED_STRIDE


def _span(tracer, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


def setup(workload: str, seed: int, tracer=None):
    """Generate one instance and build its oracle; returns (hidden, oracle, s)."""
    from sprec import DistanceOracle, FamilySpec, generate

    spec = FamilySpec(seed=seed, **WORKLOADS[workload])
    t0 = time.perf_counter()
    with _span(tracer, "generate"):
        hidden, _meta = generate(spec)
    oracle = DistanceOracle(hidden)
    return hidden, oracle, time.perf_counter() - t0


def run_instance(workload: str, seed: int, tracer=None) -> dict:
    """Set up, reconstruct and verify one instance; never raises on failure."""
    from sprec import (LayeringInvariantError, ReconstructionConfig,
                       ReconstructionError, graphs_equal, max_degree, reconstruct)

    if tracer is not None:
        tracer.instance = seed
    hidden, oracle, setup_s = setup(workload, seed, tracer)
    cfg = ReconstructionConfig(tau=1, strict_budget=True, max_degree=max_degree(hidden))
    error = None
    result = None
    t0 = time.perf_counter()
    try:
        with _span(tracer, "reconstruct"):
            result = reconstruct(oracle, cfg)
    except (ReconstructionError, LayeringInvariantError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    recon_s = time.perf_counter() - t0
    ledger = oracle.ledger
    rec = {
        "seed": seed,
        "n": hidden.n,
        "setup_s": setup_s,
        "recon_s": recon_s,
        "distinct": ledger.distinct_queries,
        "raw_calls": ledger.raw_calls,
        "per_phase": {p.value: c for p, c in ledger.per_phase.items()},
        "edges_sha256": None,
        "error": error,
    }
    if result is not None:
        with _span(tracer, "graph.graphs_equal"):
            same = graphs_equal(result.graph, hidden)
        rec["edges_sha256"] = edges_sha256(result.graph)
        if not same:
            rec["error"] = "output differs from the hidden graph"
        for key in ("max_candidate_set", "max_ancestor_rounds", "max_ancestor_call_queries"):
            rec[key] = max((getattr(row, key) for row in result.trace), default=0)
    return rec


def check_pin(workload: str, rec: dict, pins: dict) -> str | None:
    """Mismatch against the pinned ledger and output hash, if this is the pinned seed."""
    if rec["seed"] != pins["seed"] or rec["error"] is not None:
        return None
    want = pins["workloads"][workload]
    diff = {k: (want[k], rec[k]) for k in want if want[k] != rec[k]}
    return f"differs from pins.json (pinned, got): {diff}" if diff else None


def run_loop(workload: str, seed: int, count: int, seconds: float, tracer=None,
             setup_repeats: int = SETUP_REPEATS) -> tuple[list[dict], list[float]]:
    """Closed loop over ``count`` fresh instances; returns records and set-up samples.

    Before instance ``i`` its set-up is repeated ``setup_repeats`` times on
    top of the one it is reconstructed from.
    """
    setup(workload, instance_seed(seed, 0))  # warm-up: the first call pays lazy imports
    budget = min(SAFETY_FACTOR * seconds, HARD_CAP_S)
    setup_samples: list[float] = []
    records: list[dict] = []
    walls: list[float] = []
    start = time.perf_counter()
    for i in range(count):
        for _ in range(setup_repeats):
            setup_samples.append(setup(workload, instance_seed(seed, i))[2])
        gc.collect()
        t0 = time.perf_counter()
        rec = run_instance(workload, instance_seed(seed, i), tracer)
        gc.collect()
        walls.append(time.perf_counter() - t0)
        records.append(rec)
        setup_samples.append(rec["setup_s"])
        if i + 1 < count and time.perf_counter() - start + statistics.fmean(walls) > budget:
            print(f"safety stop after {i + 1} of {count} instances", file=sys.stderr)
            break
    return records, setup_samples


def load_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def report(records: list[dict], failures: list[str], metrics: dict, spec: list[dict]) -> int:
    """Print every listed metric, the failure share and the JSON result line."""
    failed = len(failures)
    for r in records:
        print(f"instance seed={r['seed']} recon_s={r['recon_s']:.3f} setup_s={r['setup_s']:.4f} "
              f"queries={r['distinct']} error={r['error']}")
    for msg in failures:
        print(f"FAILED: {msg}", file=sys.stderr)
    out = {}
    for m in spec:
        value = metrics[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value} {m['unit']}")
    print(f"failed_share {failed / len(records)} share ({failed} of {len(records)})")
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": out}))
    return 0 if failed == 0 else 1


def instance_failures(workload: str, records: list[dict], pins: dict) -> list[str]:
    failures = []
    for rec in records:
        msg = rec["error"] or check_pin(workload, rec, pins)
        if msg:
            failures.append(f"{workload} seed {rec['seed']}: {msg}")
    return failures


def end_to_end(workload: str, seed: int, seconds: float, spec: list[dict], pins: dict) -> int:
    records, setup_samples = run_loop(workload, seed, INSTANCES[workload], seconds)
    metrics = {
        "recon_s_p50": statistics.median(r["recon_s"] for r in records),
        "vertices_per_s": statistics.median(r["n"] / r["recon_s"] for r in records),
        "queries_per_nlog2n": sum(r["distinct"] for r in records)
        / sum(r["n"] * math.log2(r["n"]) for r in records),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return report(records, instance_failures(workload, records, pins), metrics, spec)


def traced_pass(workload: str, seed: int, seconds: float, out_path: Path) -> int:
    """Child-process side of --trace 1: the only place wrappers are installed."""
    import spans

    tracer = spans.Tracer()
    with spans.installed(tracer):
        records, _ = run_loop(workload, seed, TRACE_INSTANCES, seconds, tracer, setup_repeats=0)
    left = spans.installed_wrappers()
    if left:
        print(f"wrappers still installed after the traced pass: {left}", file=sys.stderr)
        return 1
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"records": records, "trace": tracer.to_json()}, fh)
    return 0


def per_layer(workload: str, seed: int, seconds: float, spec: list[dict], pins: dict) -> int:
    import spans

    out_path = ROOT / ".perfbench_out" / f"trace-{workload}-seed{seed}.json"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
           "--traced-pass", str(out_path)]
    child = subprocess.run(cmd, timeout=TRACE_CHILD_TIMEOUT_S, check=False)
    if child.returncode != 0:
        print(f"traced pass exited with code {child.returncode}", file=sys.stderr)
        return 1
    traced = load_json(out_path)
    traced_recs = traced["records"]
    # The untraced replay runs right after the child, yet a noisy host can
    # move one instance by more than the ~10% tracing costs: trace_overhead
    # is indicative only.
    plain_recs = []
    for rec in traced_recs:
        plain_recs.append(run_instance(workload, rec["seed"]))
        gc.collect()
    for a, b in zip(traced_recs, plain_recs):
        if any(a[f] != b[f] for f in ("distinct", "raw_calls", "per_phase", "edges_sha256")):
            b["error"] = b["error"] or "traced and untraced passes disagree"
    failures = instance_failures(workload, traced_recs + plain_recs, pins)
    metrics = spans.layer_metrics(traced["trace"], traced_recs)
    metrics["trace_overhead"] = (
        statistics.median(r["recon_s"] for r in traced_recs)
        / statistics.median(r["recon_s"] for r in plain_recs) - 1
    )
    return report(traced_recs + plain_recs, failures, metrics, spec)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced-pass", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "sprec" / "__init__.py").is_file():
        print(f"no sprec sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    if args.traced_pass is not None:
        return traced_pass(args.workload, args.seed, args.seconds, args.traced_pass)
    bench = load_json(ROOT / "BENCHMARK.json")
    pins = load_json(HERE / "pins.json")
    if args.trace:
        return per_layer(args.workload, args.seed, args.seconds, bench["per_layer"], pins)
    return end_to_end(args.workload, args.seed, args.seconds, bench["end_to_end"], pins)


if __name__ == "__main__":
    sys.exit(main())
