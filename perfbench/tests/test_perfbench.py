"""Tests for the benchmark's own code: span arithmetic, patching, gates.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
from sprec import (DistanceOracle, FamilySpec, QueryPhase, ReconstructionConfig,
                   generate, max_degree, reconstruct)
from sprec.cli import main as cli_main

BENCH = Path(run.__file__).resolve().parent


def test_self_time_on_nested_spans():
    # A [0,10] holds B [1,4] (which holds C [2,3]) and D [5,9]. Folded
    # queries add 0.5 s under A and 0.25 s under D.
    tree = [
        ["A", 0.0, 10.0, -1, 0, None],
        ["B", 1.0, 4.0, 0, 0, None],
        ["C", 2.0, 3.0, 1, 0, None],
        ["D", 5.0, 9.0, 0, 0, None],
    ]
    queries = [[0, 0, "bootstrap", 7, 5, 0.5], [0, 3, "neighbor-search", 3, 3, 0.25]]
    assert spans.self_times(tree, queries) == pytest.approx([2.5, 2.0, 1.0, 3.75])


def _traced_reconstruct(spec: FamilySpec):
    hidden, _meta = generate(spec)
    oracle = DistanceOracle(hidden)
    cfg = ReconstructionConfig(tau=1, strict_budget=True, max_degree=max_degree(hidden))
    tracer = spans.Tracer()
    tracer.instance = spec.seed
    with spans.installed(tracer):
        with tracer.span("reconstruct"):
            result = reconstruct(oracle, cfg)
    return tracer, result


@pytest.mark.parametrize("spec", [
    FamilySpec("random-tree", 1500, 4, seed=3),
    FamilySpec("ktree", 1200, 8, k=2, seed=1),
    FamilySpec("caterpillar", 1100, 4, seed=2),
])
def test_traced_sums_match_the_ledger(spec):
    tracer, result = _traced_reconstruct(spec)
    ledger = result.ledger
    by_phase: dict[str, int] = {}
    for _inst, _parent, phase, _calls, distinct, _s in tracer.to_json()["queries"]:
        by_phase[phase] = by_phase.get(phase, 0) + distinct
    assert by_phase == {p.value: c for p, c in ledger.per_phase.items() if c}
    rec = {"per_phase": {p.value: c for p, c in ledger.per_phase.items()},
           "max_candidate_set": 0, "max_ancestor_rounds": 0, "max_ancestor_call_queries": 0}
    m = spans.layer_metrics(tracer.to_json(), [rec])
    assert m["oracle.calls"] == ledger.raw_calls
    assert m["oracle.distinct"] == ledger.distinct_queries
    assert m["reconstruct.q_ancestor"] == ledger.per_phase[QueryPhase.ANCESTOR_SEARCH]
    assert m["reconstruct.layers"] == len(result.trace)
    assert m["layering.centroid_calls"] > 0
    assert 0 < m["reconstruct.self_s"] < m["reconstruct.total_s"]
    assert m["oracle.busy_s"] == pytest.approx(
        sum(m[f"oracle.busy_s.{p}"] for p in spans.PHASES.values()))


def test_no_wrapper_survives_the_traced_pass():
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr in spans.patch_targets()]
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.installed(tracer):
            assert len(spans.installed_wrappers()) == len(originals)
            raise RuntimeError("abort mid-pass")
    assert spans.installed_wrappers() == []
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original
    _traced_reconstruct(FamilySpec("random-tree", 200, 3, seed=0))
    assert spans.installed_wrappers() == []


def test_traced_child_pass_restores_and_writes_spans(tmp_path):
    out = tmp_path / "spans.json"
    assert run.main(["--workload", "caterpillar-deep", "--seed", "5", "--seconds", "0.01",
                     "--traced-pass", str(out)]) == 0
    assert spans.installed_wrappers() == []
    data = json.loads(out.read_text())
    assert len(data["records"]) == 1 and data["records"][0]["error"] is None
    assert {s[0] for s in data["trace"]["spans"]} >= {
        "generate", "reconstruct", "layering.append_layer", "layering.centroid"}


def test_instance_count_is_fixed_and_seconds_only_a_safety_stop(monkeypatch):
    monkeypatch.setattr(run, "setup", lambda workload, seed, tracer=None: (None, None, 0.01))
    monkeypatch.setattr(run, "run_instance",
                        lambda workload, seed, tracer=None: {"seed": seed, "setup_s": 0.01})
    records, samples = run.run_loop("tree-wide", 7, 3, seconds=1e6, setup_repeats=2)
    assert [r["seed"] for r in records] == [run.instance_seed(7, i) for i in range(3)]
    assert len(samples) == 3 * (2 + 1)
    records, _ = run.run_loop("tree-wide", 7, 3, seconds=1e-9)
    assert len(records) == 1


def test_pin_mismatch_is_a_failure():
    pins = json.loads((BENCH / "pins.json").read_text())
    rec = dict(pins["workloads"]["tree-wide"], seed=0, error=None)
    assert run.check_pin("tree-wide", rec, pins) is None
    rec["per_phase"] = dict(rec["per_phase"], **{"neighbor-search": 1})
    assert "pins.json" in run.check_pin("tree-wide", rec, pins)
    assert run.check_pin("tree-wide", dict(rec, seed=1), pins) is None


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree-wide", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_pins_equal_sprec_bench_columns(workload, tmp_path):
    """The pinned seed-0 ledgers are what ``sprec bench`` reports (slow: one full run)."""
    pins = json.loads((BENCH / "pins.json").read_text())
    spec = run.WORKLOADS[workload]
    argv = ["bench", "--family", spec["family"], "--sizes", str(spec["n"]),
            "--delta", str(spec["max_degree"]), "--tau", "1", "--seed", str(pins["seed"]),
            "--strict-budget", "--out", str(tmp_path / "bench.csv")]
    if "k" in spec:
        argv += ["--k", str(spec["k"])]
    assert cli_main(argv) == 0
    with open(tmp_path / "bench.csv", newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    want = pins["workloads"][workload]
    phases = want["per_phase"]
    assert int(row["q_total"]) == want["distinct"]
    assert int(row["q_rootbfs"]) == phases["root-bfs"]
    assert int(row["q_bootstrap"]) == phases["bootstrap"]
    assert int(row["q_anc"]) == phases["ancestor-search"]
    assert int(row["q_neighbor"]) == phases["neighbor-search"]
