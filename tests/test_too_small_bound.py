"""Regression pin for runs whose part-diameter bound is too small.

With a bound below the measured layering-tree length a run may raise, return
a wrong graph, or still be exact. None of this is covered by the golden
corpus, which only holds valid bounds. This sweep records, for every run,
either the error string or the output edge hash, ledger and trace hash, so a
change that must not alter behaviour (a refactor, a speed-up) leaves it
green unmodified. Regenerate the file only when a change alters these
outcomes on purpose, and say why:

    PYTHONPATH=src python -m tests.test_too_small_bound
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from sprec import (
    BOUNDED_DEGREE_CONNECTED,
    CATERPILLAR,
    CYCLE,
    RING_OF_CLIQUES,
    DistanceOracle,
    FamilySpec,
    ReconstructionConfig,
    build_layering,
    build_layering_tree,
    generate,
    graphs_equal,
    max_degree,
    reconstruct,
    tree_length,
    write_edge_list,
)

PIN = Path(__file__).parent / "data" / "too_small_bound.json"


def sweep_specs() -> list[FamilySpec]:
    specs = [FamilySpec(CYCLE, n, 2) for n in (5, 8, 13, 24, 40, 64)]
    for seed in range(4):
        for delta in (3, 4):
            for n in (16, 32, 64):
                specs.append(FamilySpec(BOUNDED_DEGREE_CONNECTED, n, delta, seed=seed))
        for c, m in ((3, 4), (3, 8), (4, 6), (5, 12)):
            specs.append(FamilySpec(RING_OF_CLIQUES, c * m, c + 1, clique_size=c, seed=seed))
        for n in (16, 64):
            specs.append(FamilySpec(CATERPILLAR, n, 4, seed=seed))
    return specs


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sweep() -> list[dict]:
    """One record per (instance, ell up to the measured one, strictness).

    Strict runs pass the true degree, so part-size and candidate-set checks
    apply; non-strict runs pass no degree bound and skip them. Trees
    (caterpillars) measure ell 0 and contribute only their valid run.
    """
    records = []
    for spec in sweep_specs():
        g, _ = generate(spec)
        measured = tree_length(g, build_layering_tree(g, build_layering(g, 0)))
        delta = max_degree(g)
        for ell in range(measured + 1):
            for strict in (True, False):
                cfg = ReconstructionConfig(
                    ell=ell, strict_budget=strict, max_degree=delta if strict else None
                )
                rec = {
                    "spec": [spec.family, spec.n, spec.max_degree, spec.clique_size, spec.seed],
                    "ell": ell,
                    "strict": strict,
                }
                try:
                    res = reconstruct(DistanceOracle(g), cfg)
                except Exception as exc:
                    rec["error"] = f"{type(exc).__name__}: {exc}"
                else:
                    rec["exact"] = graphs_equal(res.graph, g)
                    rec["edges_sha256"] = _sha256(write_edge_list(res.graph))
                    rec["distinct_queries"] = res.ledger.distinct_queries
                    rec["raw_calls"] = res.ledger.raw_calls
                    rec["per_phase"] = {p.value: c for p, c in res.ledger.per_phase.items()}
                    rec["trace_sha256"] = _sha256(repr(res.trace))
                records.append(rec)
    return records


def test_too_small_bounds_match_pin():
    pinned = json.loads(PIN.read_text())
    got = sweep()
    assert len(got) == len(pinned)
    differ = [(g["spec"], g["ell"], g["strict"]) for g, w in zip(got, pinned) if g != w]
    assert differ == [], f"{len(differ)} runs differ, first: {differ[0]}"
    # the sweep must exercise every outcome, or it pins nothing useful
    assert any("error" in r for r in pinned)
    assert any(r.get("exact") is False for r in pinned)
    assert any(r.get("exact") is True and r["ell"] > 0 for r in pinned)


if __name__ == "__main__":
    records = sweep()
    lines = ",\n".join(json.dumps(r, sort_keys=True) for r in records)
    PIN.write_text(f"[\n{lines}\n]\n")
    print(f"wrote {len(records)} records to {PIN}")
