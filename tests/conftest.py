"""Shared brute-force oracles, kept independent of the library internals,
and the seeded acceptance corpus reconstructed once per session."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import pytest

from sprec import (
    BOUNDED_DEGREE_CONNECTED,
    CYCLE,
    DistanceOracle,
    FamilySpec,
    Graph,
    KTREE,
    LayeringTree,
    RANDOM_TREE,
    RING_OF_CLIQUES,
    ReconstructionConfig,
    build_layering,
    build_layering_tree,
    generate,
    max_degree,
    reconstruct,
    tree_length,
    verify_family_invariants,
)
from sprec.reconstruct import _grow_tree


def brute_all_pairs(g: Graph) -> list[list[int]]:
    """Distance table via a plain level-by-level BFS, written from scratch."""
    table = []
    for s in range(g.n):
        dist = [-1] * g.n
        dist[s] = 0
        level = [s]
        d = 0
        while level:
            d += 1
            nxt = []
            for u in level:
                for w in g.adj[u]:
                    if dist[w] < 0:
                        dist[w] = d
                        nxt.append(w)
            level = nxt
        table.append(dist)
    return table


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def brute_components(g: Graph, alive: set[int]) -> dict[int, int]:
    """Masked component labels via union-find; labels are component minima."""
    uf = UnionFind(g.n)
    for u in alive:
        for w in g.adj[u]:
            if w in alive and w > u:
                uf.union(u, w)
    groups: dict[int, list[int]] = {}
    for v in alive:
        groups.setdefault(uf.find(v), []).append(v)
    out = {}
    for members in groups.values():
        label = min(members)
        for v in members:
            out[v] = label
    return out


def brute_anc(g: Graph, depth: list[int] | tuple[int, ...], x: int, k: int) -> frozenset[int]:
    """Vertices of layer k in x's component once layers < k are removed."""
    alive = {v for v in range(g.n) if depth[v] >= k}
    labels = brute_components(g, alive)
    target = labels[x]
    return frozenset(
        v for v in alive if depth[v] == k and labels[v] == target
    )


def prefix_graph(g: Graph, layering, known_layers: int) -> Graph:
    """The subgraph of g induced by its first `known_layers` BFS layers."""
    depth = layering.depth
    return Graph(
        g.n,
        [(u, v) for u, v in g.edges() if depth[u] < known_layers and depth[v] < known_layers],
    )


def capped_tree(g: Graph, layering, k: int, ell: int) -> LayeringTree:
    """Layering tree through layer k, grown layer by layer as reconstruct grows it."""
    tree = LayeringTree(g.n)
    for j in range(k + 1):
        _grow_tree(tree, layering, g, j, ell)
    return tree


def truncation(tree: LayeringTree, k: int) -> tuple[list, list[int]]:
    """(parts, parents) of the tree restricted to layers 0..k.

    Part ids follow (layer, min vertex) order, so these are list prefixes.
    """
    m = sum(1 for p in tree.parts if p.layer <= k)
    return tree.parts[:m], tree.parent[:m]


def random_graph(rng: random.Random, n: int, extra_edges: int) -> Graph:
    """Random connected graph: random spanning tree plus extra edges."""
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    for _ in range(extra_edges):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


NEEDS_MEASURED_BOUND = (RING_OF_CLIQUES, CYCLE, BOUNDED_DEGREE_CONNECTED)


def corpus_specs() -> list[FamilySpec]:
    specs: list[FamilySpec] = []
    for delta in (3, 4, 5):
        for n in (8, 16, 24, 32, 48, 64):
            for seed in range(10):
                specs.append(FamilySpec(RANDOM_TREE, n, delta, seed=seed))
    for n in (512, 1024, 2048, 4096):
        for seed in (0, 1):
            specs.append(FamilySpec(RANDOM_TREE, n, 4, seed=seed))
    for n in (8, 16, 32, 64, 128):
        for seed in range(12):
            specs.append(FamilySpec(KTREE, n, 8, k=2, seed=seed))
    for n in (256, 1024):
        for seed in (0, 1):
            specs.append(FamilySpec(KTREE, n, 8, k=2, seed=seed))
    for c in (3, 4, 5):
        for m in (3, 5, 8, 16):
            for seed in range(8):
                specs.append(
                    FamilySpec(RING_OF_CLIQUES, c * m, c + 1, clique_size=c, seed=seed)
                )
    for n in (8, 9, 12, 16, 20, 24, 33, 48, 64, 81, 100, 128, 160, 200, 256, 331):
        specs.append(FamilySpec(CYCLE, n, 2, seed=0))
    for delta in (3, 4, 5):
        for n in (8, 16, 32, 64, 96):
            for seed in range(10):
                specs.append(FamilySpec(BOUNDED_DEGREE_CONNECTED, n, delta, seed=seed))
    return specs


@dataclass
class Run:
    spec: FamilySpec
    graph: Graph
    true_delta: int
    tau: int | None
    ell: int
    result: object
    error: Exception | None


def run_corpus() -> tuple[list[Run], float]:
    """Reconstruct every corpus instance under strict budgets with the true degree."""
    runs: list[Run] = []
    start = time.monotonic()
    for spec in corpus_specs():
        g, meta = generate(spec)
        assert verify_family_invariants(g, spec) == [], spec
        if spec.family in NEEDS_MEASURED_BOUND:
            lay = build_layering(g, 0)
            ell = tree_length(g, build_layering_tree(g, lay))
            tau = None
        else:
            ell = None
            tau = 1
        cfg = ReconstructionConfig(
            tau=tau if tau is not None else 1,
            ell=ell,
            strict_budget=True,
            max_degree=max_degree(g),
        )
        error = None
        result = None
        try:
            result = reconstruct(DistanceOracle(g), cfg)
        except Exception as exc:  # recorded, judged by criterion 1
            error = exc
        runs.append(
            Run(
                spec=spec,
                graph=g,
                true_delta=max_degree(g),
                tau=tau,
                ell=cfg.effective_ell,
                result=result,
                error=error,
            )
        )
    elapsed = time.monotonic() - start
    return runs, elapsed


@pytest.fixture(scope="session")
def corpus_runs() -> tuple[list[Run], float]:
    return run_corpus()
