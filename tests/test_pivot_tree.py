"""Differential test: the pivot tree kept across layers against the reference.

Each instance is reconstructed twice, once with the library's ancestor search
and once with the set-based reference of tests/reference_search.py put in its
place (that reference rebuilds its pivot tree on every layer). Both runs must
return the same (part, distinct queries, rounds) for every new vertex of
every layer, charge the same queries in the same order (the oracle's query
log), and end the same way: the same output graph or the same error. Bounds
below the measured layering-tree length are included, so the errors a too
small bound raises mid-search are compared as well.
"""

from __future__ import annotations

import importlib
import random

import pytest

from sprec import (
    CATERPILLAR,
    CYCLE,
    KTREE,
    RANDOM_TREE,
    RING_OF_CLIQUES,
    DistanceOracle,
    FamilySpec,
    ReconstructionConfig,
    build_layering,
    build_layering_tree,
    generate,
    max_degree,
    reconstruct,
    tree_length,
    write_edge_list,
)

from .conftest import random_graph
from .reference_search import ReferenceSearch

# `sprec.reconstruct` the attribute is the function; the module holds the search
rec = importlib.import_module("sprec.reconstruct")

SPECS = (
    [FamilySpec(RANDOM_TREE, n, d, seed=s) for n, d, s in ((40, 3, 0), (150, 4, 1), (300, 4, 2))]
    + [FamilySpec(KTREE, n, 8, k=2, seed=s) for n, s in ((60, 0), (200, 1), (300, 2))]
    + [FamilySpec(CATERPILLAR, n, 4, seed=s) for n, s in ((100, 0), (300, 1))]
    + [FamilySpec(CYCLE, n, 2) for n in (30, 101, 300)]
    + [FamilySpec(RING_OF_CLIQUES, c * m, c + 1, clique_size=c, seed=s)
       for c, m, s in ((3, 8, 0), (4, 16, 1), (5, 12, 2))]
)
# Random sparse graphs; seeds 653 and 785 reach the two errors the descent
# itself raises at a too-small bound (a nearest pivot neighbour outside the
# current subtree, and a subtree with no capped-layer part).
GRAPH_SEEDS = [653, 785] + list(range(12))


def _run(g, cfg, search_cls, monkeypatch):
    calls: list[tuple] = []

    class Recording(search_cls):
        def locate(self, x, oracle):
            out = super().locate(x, oracle)
            calls.append((self.tree.cap, x, *out))
            return out

    monkeypatch.setattr(rec, "_AncestorSearch", Recording)
    oracle = DistanceOracle(g, log_queries=True)
    try:
        outcome = write_edge_list(reconstruct(oracle, cfg).graph)
    except Exception as exc:  # compared, not judged
        outcome = f"{type(exc).__name__}: {exc}"
    return calls, oracle.ledger.log, outcome


def _compare(g, monkeypatch) -> list[str]:
    """Run every bound from 0 to the measured one (and tau=1), strict and not."""
    measured = tree_length(g, build_layering_tree(g, build_layering(g, 0)))
    ells = sorted({0, 1, 2, measured // 2, max(measured - 1, 0), measured}) + [None]
    outcomes = []
    for ell in ells:
        for strict in (True, False):
            cfg = ReconstructionConfig(
                tau=1, ell=ell, strict_budget=strict,
                max_degree=max_degree(g) if strict else None,
            )
            new = _run(g, cfg, rec._AncestorSearch, monkeypatch)
            monkeypatch.undo()
            ref = _run(g, cfg, ReferenceSearch, monkeypatch)
            monkeypatch.undo()
            assert new[0] == ref[0], (ell, strict)
            assert new[1] == ref[1], (ell, strict)
            assert new[2] == ref[2], (ell, strict)
            outcomes.append(new[2])
    return outcomes


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.family}-{s.n}-{s.seed}")
def test_matches_reference_on_families(spec, monkeypatch):
    g, _ = generate(spec)
    _compare(g, monkeypatch)


def test_matches_reference_on_random_graphs(monkeypatch):
    errors = []
    for seed in GRAPH_SEEDS:
        rng = random.Random(seed)
        n = rng.randint(10, 60)
        g = random_graph(rng, n, rng.randint(0, n))
        errors += [o for o in _compare(g, monkeypatch) if o.startswith("InvariantViolation")]
    assert any("outside the current subtree" in e for e in errors)
    assert any("no capped-layer part" in e for e in errors)
