"""Acceptance suite: seven criteria, one test each, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines. The corpus (built once per session in conftest) is seeded and fixed: 514 instances across five families,
sizes 8 through 4096. Trees and k-trees run with tau=1; families without a
structural treelength bound run with the exact measured layering-tree length.
"""

from __future__ import annotations

import math
import time

from sprec import (
    DistanceOracle,
    FamilySpec,
    Graph,
    KTREE,
    LayeringTree,
    QueryPhase,
    RANDOM_TREE,
    ReconstructionConfig,
    build_layering,
    build_layering_tree,
    generate,
    graphs_equal,
    max_degree,
    reconstruct,
    reconstruct_naive,
    tree_length,
)
from sprec.cli import main as cli_main
from sprec.reconstruct import _AncestorSearch, _grow_tree

from .conftest import brute_components, prefix_graph, truncation


def test_criterion_1_exactness(corpus_runs):
    runs, elapsed = corpus_runs
    assert len(runs) >= 500
    sizes = sorted({r.spec.n for r in runs})
    assert sizes[0] == 8 and sizes[-1] == 4096
    bad = [
        r.spec
        for r in runs
        if r.error is not None or not graphs_equal(r.result.graph, r.graph)
    ]
    assert bad == [], f"{len(bad)} instances failed exact reconstruction"
    assert elapsed < 120.0, f"corpus took {elapsed:.1f}s, target is under 120s"
    print(
        f"\nACCEPTANCE 1 (exactness): PASS - {len(runs)} instances, "
        f"n in [{sizes[0]}, {sizes[-1]}], all edge-set equal, {elapsed:.1f}s"
    )


def test_criterion_2_budgets(corpus_runs):
    runs, _ = corpus_runs
    checked = 0
    for r in runs:
        assert r.error is None
        n, d, ell = r.spec.n, r.true_delta, r.ell
        ledger = r.result.ledger
        assert ledger.per_phase[QueryPhase.ROOT_BFS] == n - 1
        assert ledger.per_phase[QueryPhase.BOOTSTRAP] <= d ** (2 * (ell + 2))
        per_call = d ** (ell + 2) * max(1, (n - 1).bit_length())
        per_vertex = d ** (2 * ell + 4)
        for row in r.result.trace:
            assert row.max_ancestor_call_queries <= per_call
            assert row.max_neighbor_queries_per_vertex <= per_vertex
            checked += 1
    print(
        "\nACCEPTANCE 2 (budget assertions): PASS - strict mode on every run, "
        f"root scan exact, {checked} layer extensions within per-call bounds"
    )


def test_criterion_3_scaling(tmp_path):
    import csv

    sizes = [2 ** e for e in range(8, 14)]
    out = tmp_path / "sweep.csv"
    start = time.monotonic()
    rc = cli_main(
        [
            "bench", "--family", "random-tree",
            "--sizes", ",".join(str(n) for n in sizes),
            "--delta", "4", "--tau", "1", "--repeats", "5",
            "--seed", "0", "--out", str(out), "--strict-budget",
        ]
    )
    elapsed = time.monotonic() - start
    assert rc == 0  # nonzero would mean a failed verification or budget breach
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 5 * len(sizes)
    assert all(r["correct"] == "true" for r in rows)
    stats: dict[int, list[int]] = {n: [] for n in sizes}
    for r in rows:
        n, q = int(r["n"]), int(r["q_total"])
        assert q < n * (n - 1) // 2, f"n={n}: {q} queries does not beat naive"
        stats[n].append(q)
    means = {n: sum(qs) / len(qs) for n, qs in stats.items()}
    assert all(
        means[a] <= means[b] for a, b in zip(sizes, sizes[1:])
    ), "mean query totals are not monotone in n"
    normalized = {n: means[n] / (n * math.log2(n)) for n in sizes}
    spread = max(normalized.values()) / min(normalized.values())
    assert spread <= 3.0, f"q/(n log2 n) spread {spread:.2f} exceeds 3"
    assert elapsed < 300.0, f"sweep took {elapsed:.1f}s, target is under 300s"
    print(
        f"\nACCEPTANCE 3 (scaling): PASS - q/(n*log2(n)) in "
        f"[{min(normalized.values()):.2f}, {max(normalized.values()):.2f}], "
        f"spread {spread:.2f} <= 3, monotone totals, naive beaten at every "
        f"size, {elapsed:.1f}s"
    )


def _check_structure_suite(g: Graph, oracle: DistanceOracle) -> tuple[int, int]:
    """Structure checks for one instance; returns (#parts, #ancestor checks)."""
    n = g.n
    delta = max_degree(g)
    lay = build_layering(g, 0)
    full = build_layering_tree(g, lay)
    ell = tree_length(g, full)
    depth = lay.depth

    # parts partition each layer
    for j, layer in enumerate(lay.layers):
        flat = sorted(v for p in full.parts if p.layer == j for v in p.vertices)
        assert flat == sorted(layer)

    # part sizes within the degree-growth bound
    part_cap = delta ** (ell + 1)
    for p in full.parts:
        assert len(p.vertices) <= part_cap

    # window connectivity: each part is connected within its layer window
    for p in full.parts:
        window = {v for v in range(n) if p.layer <= depth[v] <= p.layer + ell + 1}
        labels = brute_components(g, window)
        assert len({labels[v] for v in p.vertices}) == 1

    # centroid halves the full part tree and is internal for three or more
    subset = list(range(len(full.parts)))
    from sprec import centroid as centroid_op

    pid = centroid_op(full, subset)
    rest = set(subset) - {pid}
    sizes = []
    while rest:
        seed_pid = min(rest)
        comp = {seed_pid}
        stack = [seed_pid]
        while stack:
            q = stack.pop()
            for r in full.tree_neighbors(q):
                if r in rest and r not in comp:
                    comp.add(r)
                    stack.append(r)
        sizes.append(len(comp))
        rest -= comp
    assert not sizes or max(sizes) <= len(subset) // 2
    if len(subset) >= 3:
        assert sum(1 for q in full.tree_neighbors(pid) if q in subset) >= 2

    anc_checks = 0
    tree = LayeringTree(n)
    for k in range(0, lay.num_layers - ell - 2):
        _grow_tree(tree, lay, g, k, ell)
        # truncation equivalence against the ground-truth tree
        assert truncation(tree, k) == truncation(full, k)

        alive = {v for v in range(n) if depth[v] >= k}
        labels = brute_components(g, alive)
        label_of_part = {
            pid2: labels[full.parts[pid2].vertices[0]]
            for pid2 in full.layer_parts[k]
        }

        # comp sizes obey the degree-growth bound for every usable horizon
        by_label_depth: dict[int, dict[int, int]] = {}
        for v in alive:
            by_label_depth.setdefault(labels[v], {}).setdefault(depth[v], 0)
            by_label_depth[labels[v]][depth[v]] += 1
        for pid2 in full.layer_parts[k]:
            lbl = label_of_part[pid2]
            counts = by_label_depth[lbl]
            running = 0
            for i in range(k, min(k + ell + 2, lay.num_layers - 1) + 1):
                running += counts.get(i, 0)
                assert running <= delta ** (ell + i - k + 2)

        # logarithmic ancestor search agrees with brute-force components
        search = _AncestorSearch(tree, prefix_graph(g, lay, k + 2))
        for j in range(k + ell + 2, lay.num_layers):
            for x in lay.layers[j]:
                pid2, _, _ = search.locate(x, oracle)
                assert label_of_part[pid2] == labels[x]
                anc_checks += 1
    return len(full.parts), anc_checks


def test_criterion_4_structure_suites(corpus_runs):
    runs, _ = corpus_runs
    small = [r for r in runs if r.spec.n <= 512]
    assert len(small) >= 450
    total_parts = 0
    total_anc = 0
    for r in small:
        oracle = DistanceOracle(r.graph)
        parts, anc = _check_structure_suite(r.graph, oracle)
        total_parts += parts
        total_anc += anc
    print(
        f"\nACCEPTANCE 4 (per-structure suites): PASS - {len(small)} instances "
        f"(n <= 512), {total_parts} parts checked, "
        f"{total_anc} ancestor searches matched brute force"
    )


def test_criterion_5_naive_equivalence(corpus_runs):
    runs, _ = corpus_runs
    eligible = sorted(
        (r for r in runs if r.spec.n <= 256),
        key=lambda r: (r.spec.n, r.spec.family, r.spec.seed),
    )[:200]
    assert len(eligible) == 200
    for r in eligible:
        o = DistanceOracle(r.graph)
        naive = reconstruct_naive(o)
        n = r.spec.n
        assert o.ledger.distinct_queries == n * (n - 1) // 2
        assert o.ledger.per_phase[QueryPhase.BASELINE] == n * (n - 1) // 2
        assert graphs_equal(naive, r.result.graph)
    print(
        "\nACCEPTANCE 5 (baseline equivalence): PASS - 200 instances, "
        "identical graphs, naive used exactly n(n-1)/2 distinct queries"
    )


def test_criterion_6_chordal_length_bound(corpus_runs):
    runs, _ = corpus_runs
    ktrees = [r for r in runs if r.spec.family == KTREE]
    assert ktrees
    worst = 0
    for r in ktrees:
        lay = build_layering(r.graph, 0)
        length = tree_length(r.graph, build_layering_tree(r.graph, lay))
        worst = max(worst, length)
        assert length <= 3
    print(
        f"\nACCEPTANCE 6 (chordal length bound): PASS - {len(ktrees)} k-tree "
        f"instances, max layering-tree length {worst} <= 3"
    )


def test_criterion_7_determinism(corpus_runs, tmp_path):
    # library level: identical ledgers, traces, and graphs on a repeat run
    g, _ = generate(FamilySpec(RANDOM_TREE, 200, 4, seed=11))
    first = reconstruct(DistanceOracle(g), ReconstructionConfig(tau=1))
    second = reconstruct(DistanceOracle(g), ReconstructionConfig(tau=1))
    assert graphs_equal(first.graph, second.graph)
    assert first.ledger.distinct_queries == second.ledger.distinct_queries
    assert first.ledger.raw_calls == second.ledger.raw_calls
    assert first.ledger.per_phase == second.ledger.per_phase
    assert first.trace == second.trace

    # CLI level: byte-identical CSV once the wall_time column is dropped
    texts = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        rc = cli_main(
            [
                "bench", "--family", "random-tree", "--sizes", "32,64",
                "--delta", "4", "--tau", "1", "--repeats", "3",
                "--seed", "7", "--out", str(out), "--strict-budget",
            ]
        )
        assert rc == 0
        texts.append(out.read_text())
    stripped = ["\n".join(l.rsplit(",", 1)[0] for l in t.splitlines()) for t in texts]
    assert stripped[0] == stripped[1]
    print(
        "\nACCEPTANCE 7 (determinism): PASS - repeated runs give identical "
        "ledgers, traces, graphs, and CSV records (wall_time aside)"
    )
