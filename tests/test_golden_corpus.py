"""Golden regression over the acceptance corpus.

Every corpus reconstruction must reproduce, exactly, the output edge set, the
distinct and raw query counts, the per-phase ledger and the per-layer trace
recorded in tests/data/golden_corpus.json. A change meant to alter none of
these (a refactor) must leave this test green unmodified. A change that lowers
query counts on purpose regenerates the file and says why:

    PYTHONPATH=src python -m tests.test_golden_corpus
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from sprec import write_edge_list

from .conftest import run_corpus

GOLDEN = Path(__file__).parent / "data" / "golden_corpus.json"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def golden_record(run) -> dict:
    spec = run.spec
    key = [spec.family, spec.n, spec.max_degree, spec.k, spec.clique_size, spec.seed]
    if run.error is not None:
        return {"spec": key, "error": f"{type(run.error).__name__}: {run.error}"}
    ledger = run.result.ledger
    return {
        "spec": key,
        "edges_sha256": _sha256(write_edge_list(run.result.graph)),
        "distinct_queries": ledger.distinct_queries,
        "raw_calls": ledger.raw_calls,
        "per_phase": {p.value: c for p, c in ledger.per_phase.items()},
        "trace_sha256": _sha256(repr(run.result.trace)),
    }


def test_corpus_matches_golden(corpus_runs):
    runs, _ = corpus_runs
    golden = json.loads(GOLDEN.read_text())
    got = [golden_record(r) for r in runs]
    assert len(got) == len(golden)
    mismatched = [(g["spec"], w) for g, w in zip(got, golden) if g != w]
    assert mismatched == [], f"{len(mismatched)} instances differ, first: {mismatched[0]}"


if __name__ == "__main__":
    runs, _ = run_corpus()
    lines = ",\n".join(json.dumps(golden_record(r), sort_keys=True) for r in runs)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(f"[\n{lines}\n]\n")
    print(f"wrote {len(runs)} records to {GOLDEN}")
