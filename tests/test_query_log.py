"""Query-log regression: the CLI's --log-queries output is pinned byte for byte.

The log lists every charged query in the order it was first asked, so its
hash pins the query order of every phase, not only the per-phase counts. A
change to the simulator or to the search loops that must keep the query
sequence (a speed-up, a refactor) leaves this test green unmodified.
"""

from __future__ import annotations

import hashlib

import pytest

from sprec import FamilySpec, generate, write_edge_list
from sprec.cli import main

RUNS = [
    (FamilySpec("random-tree", 1500, 4, seed=3), [],
     "5ebd94a10cb512167c96a9ed1d2f40ec7fe18f0af85f109ce9f608d177d0d951"),
    (FamilySpec("ktree", 600, 8, k=2, seed=1), [],
     "d9042edaf9592b782443b49b525c4c48521401bc0c8c45c5937f4c616573abe1"),
    (FamilySpec("caterpillar", 1100, 4, seed=2), [],
     "cf7c161cab3a4d469d53788d9e413d4fd46b507b7b1acf65d90e0e993cccd909"),
    (FamilySpec("cycle", 200, 2, seed=0), ["--ell-from-truth"],
     "f2030189c7a801787d657ffe6fb1fb31e3e23d2a4adb072049e30c6ae096728f"),
]


def query_log(tmp_path, spec: FamilySpec, extra: list[str]) -> str:
    graph, _ = generate(spec)
    src = tmp_path / "hidden.edges"
    src.write_text(write_edge_list(graph))
    log = tmp_path / "queries.csv"
    rc = main(
        ["reconstruct", str(src), "--strict-budget", "--log-queries", str(log)]
        + extra
    )
    assert rc == 0
    return log.read_text()


@pytest.mark.parametrize(
    "spec, extra, digest", RUNS, ids=[spec.family for spec, _, _ in RUNS]
)
def test_query_log_is_unchanged(tmp_path, spec, extra, digest):
    text = query_log(tmp_path, spec, extra)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
