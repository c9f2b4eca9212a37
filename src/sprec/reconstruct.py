"""Exact graph reconstruction from shortest-path distance queries.

The strategy: one distance scan from a root vertex fixes the BFS layers.
All edges among the shallow layers are found by brute-force pair queries.
From there the graph is completed one layer at a time; for each new vertex a
logarithmic descent through a capped tree of layer parts locates the small
region that can contain its neighbors, and only pairs inside that region are
queried. With a valid part-diameter bound the output equals the hidden graph
and the distinct-query total stays within an explicit per-phase budget.

A single run is sequential (later queries depend on earlier answers);
independent runs can execute concurrently, each with its own oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .graph import Graph, GraphBuilder, components_masked, neighbors_of_set
from .layering import (
    Layering,
    LayeringTree,
    centroid,
    layering_from_depths,
)
from .oracle import DistanceOracle, QueryLedger, QueryPhase

GraphLike = Graph | GraphBuilder


class ReconstructionError(RuntimeError):
    """Base class for failures during a reconstruction run."""


class InvariantViolation(ReconstructionError):
    """A structural bound failed mid-run; the configured bound is suspect."""


class BudgetExceeded(ReconstructionError):
    """A query-budget assertion failed under strict accounting."""


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length() if n >= 1 else 0


@dataclass(frozen=True)
class ReconstructionConfig:
    """Run parameters.

    tau is the promised treelength bound; the effective part-diameter bound
    is 3 * tau unless ell overrides it directly. Strict budget checks need
    max_degree (the hidden graph's degree bound) because every budget is a
    power of it; the benchmark harness passes the true value.
    """

    tau: int = 1
    ell: int | None = None
    strict_budget: bool = False
    max_degree: int | None = None

    @property
    def effective_ell(self) -> int:
        return self.ell if self.ell is not None else 3 * self.tau

    def validate(self) -> None:
        if self.ell is None and self.tau < 1:
            raise ValueError("tau must be a positive integer")
        if self.ell is not None and self.ell < 0:
            raise ValueError("ell must be nonnegative")
        if self.max_degree is not None and self.max_degree < 0:
            raise ValueError("max_degree must be nonnegative when given")
        if self.strict_budget and self.max_degree is None:
            raise ValueError(
                "strict_budget requires max_degree: all budgets are powers of it"
            )


@dataclass(frozen=True)
class LayerTrace:
    """Distinct-query accounting for one layer extension."""

    layer: int
    layer_size: int
    ancestor_queries: int
    neighbor_queries: int
    max_ancestor_call_queries: int
    max_ancestor_rounds: int
    max_neighbor_queries_per_vertex: int
    max_candidate_set: int


@dataclass(frozen=True)
class ReconstructionResult:
    graph: Graph
    ledger: QueryLedger
    trace: tuple[LayerTrace, ...]
    ell: int
    root: int


class _SearchNode:
    __slots__ = ("part_ids", "cap_count", "sole_cap_part", "pivot",
                 "pivot_neighbors", "child_by_part")

    def __init__(self, part_ids: set[int], cap_count: int, sole_cap_part: int):
        self.part_ids = part_ids
        self.cap_count = cap_count
        self.sole_cap_part = sole_cap_part
        self.pivot: int | None = None
        self.pivot_neighbors: list[int] | None = None
        self.child_by_part: dict[int, "_SearchNode"] | None = None


class _AncestorSearch:
    """Shared pivot tree for locating capped-layer ancestors of new vertices.

    Pivots are centroids, so each descent halves the candidate part set; the
    pivot tree is materialized lazily and shared by every vertex of a layer,
    which keeps the per-vertex work proportional to the queries it issues.
    """

    def __init__(self, tree: LayeringTree, prefix_graph: GraphLike):
        self.tree = tree
        self.prefix_graph = prefix_graph
        self.cap = tree.cap
        cap_parts = tree.parts_at(self.cap)
        self._root = _SearchNode(
            set(range(len(tree.parts))),
            len(cap_parts),
            cap_parts[0] if len(cap_parts) == 1 else -1,
        )

    def locate(self, x: int, oracle: DistanceOracle) -> tuple[int, int, int]:
        """Capped-layer ancestor part of x, plus (distinct queries, rounds).

        Each round pivots on a centroid of the remaining part subtree, queries
        x against the pivot's graph neighborhood and keeps the side of the
        nearest neighbor (ties to the smallest id), until one capped part is left.
        """
        tree = self.tree
        ledger = oracle.ledger
        before = ledger.distinct_queries
        rounds = 0
        node = self._root
        while node.cap_count != 1:
            if node.cap_count == 0:
                raise InvariantViolation(
                    "descent reached a subtree with no capped-layer part; "
                    "the configured diameter bound is likely too small"
                )
            if len(node.part_ids) < 3:
                raise InvariantViolation(
                    "two capped-layer parts without a connecting internal part"
                )
            self._ensure_pivot(node)
            rounds += 1
            best_w = -1
            best_d = -1
            for w in node.pivot_neighbors:
                # w first: every vertex of the layer probes the same pivot
                # neighborhoods, so the oracle's per-source rows get reused.
                d = oracle.query(w, x, QueryPhase.ANCESTOR_SEARCH)
                if best_w < 0 or d < best_d:
                    best_w, best_d = w, d
            if best_w < 0:
                raise InvariantViolation("pivot part has an empty neighborhood")
            wp = tree.vertex_to_part[best_w]
            if wp < 0:
                raise InvariantViolation(
                    f"nearest pivot neighbor {best_w} lies outside the capped tree"
                )
            self._ensure_split(node)
            child = node.child_by_part.get(wp)
            if child is None:
                raise InvariantViolation(
                    "nearest pivot neighbor points outside the current subtree"
                )
            node = child
        return node.sole_cap_part, ledger.distinct_queries - before, rounds

    def _ensure_pivot(self, node: _SearchNode) -> None:
        if node.pivot is not None:
            return
        pid = centroid(self.tree, node.part_ids)
        node.pivot = pid
        w = neighbors_of_set(self.prefix_graph, self.tree.parts[pid].vertices)
        node.pivot_neighbors = sorted(w)

    def _ensure_split(self, node: _SearchNode) -> None:
        if node.child_by_part is not None:
            return
        tree = self.tree
        cap = self.cap
        remaining = node.part_ids - {node.pivot}
        child_by_part: dict[int, _SearchNode] = {}
        visited: set[int] = set()
        for start in sorted(remaining):
            if start in visited:
                continue
            comp: list[int] = [start]
            visited.add(start)
            stack = [start]
            while stack:
                q = stack.pop()
                for r in tree.tree_neighbors(q):
                    if r in remaining and r not in visited:
                        visited.add(r)
                        comp.append(r)
                        stack.append(r)
            cap_parts = [q for q in comp if tree.parts[q].layer == cap]
            child = _SearchNode(
                set(comp),
                len(cap_parts),
                cap_parts[0] if len(cap_parts) == 1 else -1,
            )
            for q in comp:
                child_by_part[q] = child
        node.child_by_part = child_by_part


def _grow_tree(
    tree: LayeringTree, layering: Layering, prefix_graph: GraphLike, k: int, ell: int
) -> dict[int, int]:
    """Append the parts of layer k to the capped tree; return the window labels.

    Vertices that share a part at layer k are already connected inside the
    known layers k..k+ell+1 when ell bounds the part diameter, so the masked
    components of that window group layer k exactly as the full graph does.
    """
    window = [v for layer in layering.layers[k : k + ell + 2] for v in layer]
    labels = components_masked(prefix_graph, window)
    tree.append_layer(k, labels, layering, prefix_graph)
    return labels


def _extend_layer(
    builder: GraphBuilder,
    layering: Layering,
    tree: LayeringTree,
    i: int,
    ell: int,
    oracle: DistanceOracle,
    max_degree: int | None,
    strict: bool,
) -> LayerTrace:
    """Find the edges incident to layer i given the prefix below it.

    Caps the tree at layer i - ell - 2, locates the capped-layer ancestor part
    of every new vertex, then queries each new vertex against the previous
    and current layer vertices below the same part. New edges go to builder.
    """
    k = i - ell - 2
    labels = _grow_tree(tree, layering, builder, k, ell)
    if max_degree is not None:
        part_limit = max_degree ** (ell + 1)
        for pid in tree.parts_at(k):
            if len(tree.parts[pid].vertices) > part_limit:
                raise InvariantViolation(
                    f"part at layer {k} has {len(tree.parts[pid].vertices)} "
                    f"vertices, above the bound {part_limit}; the diameter "
                    "bound is likely too small"
                )
    layers = layering.layers
    n = len(layering.depth)

    label_to_part: dict[int, int] = {}
    for pid in tree.parts_at(k):
        label_to_part[labels[tree.parts[pid].vertices[0]]] = pid
    anc: dict[int, int] = {}
    try:
        for layer in layers[k:i]:
            for u in layer:
                anc[u] = label_to_part[labels[u]]
    except KeyError:
        raise InvariantViolation(
            "a prefix vertex is disconnected from every capped-layer part"
        ) from None

    search = _AncestorSearch(tree, builder)
    ledger = oracle.ledger
    anc_limit = (
        max_degree ** (ell + 2) * _ceil_log2(n) if max_degree is not None else None
    )
    anc_before = ledger.distinct_queries
    max_call = 0
    max_rounds = 0
    for x in layers[i]:
        pid, cost, rounds = search.locate(x, oracle)
        if strict and cost > anc_limit:
            raise BudgetExceeded(
                f"ancestor search for {x} used {cost} queries, limit {anc_limit}"
            )
        anc[x] = pid
        max_call = max(max_call, cost)
        max_rounds = max(max_rounds, rounds)
    anc_total = ledger.distinct_queries - anc_before

    prev_by_part: dict[int, list[int]] = {}
    for u in layers[i - 1]:
        prev_by_part.setdefault(anc[u], []).append(u)
    cur_by_part: dict[int, list[int]] = {}
    for x in layers[i]:
        cur_by_part.setdefault(anc[x], []).append(x)

    cand_limit = max_degree ** (2 * ell + 4) if max_degree is not None else None
    seen_pairs: set[tuple[int, int]] = set()
    nb_before = ledger.distinct_queries
    max_vertex = 0
    max_cand = 0
    for v in layers[i]:
        a = anc[v]
        cand_prev = prev_by_part.get(a, ())
        cand_cur = cur_by_part[a]
        csize = len(cand_prev) + len(cand_cur)
        max_cand = max(max_cand, csize)
        if cand_limit is not None and csize > cand_limit:
            raise InvariantViolation(
                f"candidate set of size {csize} for vertex {v} exceeds the "
                f"part-growth bound {cand_limit}; the diameter bound is "
                "likely too small"
            )
        v_before = ledger.distinct_queries
        for u in chain(cand_prev, cand_cur):
            if u == v:
                continue
            key = (u, v) if u < v else (v, u)
            if key in seen_pairs:
                continue
            seen_pairs.add(key)
            if oracle.query(v, u, QueryPhase.NEIGHBOR_SEARCH) == 1:
                builder.add_edge(*key)
        v_used = ledger.distinct_queries - v_before
        if strict and v_used > cand_limit:
            raise BudgetExceeded(
                f"neighbor search for {v} used {v_used} queries, limit {cand_limit}"
            )
        max_vertex = max(max_vertex, v_used)
    nb_total = ledger.distinct_queries - nb_before

    return LayerTrace(
        layer=i,
        layer_size=len(layers[i]),
        ancestor_queries=anc_total,
        neighbor_queries=nb_total,
        max_ancestor_call_queries=max_call,
        max_ancestor_rounds=max_rounds,
        max_neighbor_queries_per_vertex=max_vertex,
        max_candidate_set=max_cand,
    )


def reconstruct(
    oracle: DistanceOracle, config: ReconstructionConfig | None = None
) -> ReconstructionResult:
    """Reconstruct the oracle's hidden graph exactly.

    Correct whenever the effective diameter bound is at least the true
    largest intra-part distance of the root's layering tree (guaranteed when
    tau bounds the treelength). With a bound that is too small the run either
    trips an invariant and raises, or returns a wrong graph that downstream
    verification must catch.
    """
    cfg = config if config is not None else ReconstructionConfig()
    cfg.validate()
    ell = cfg.effective_ell
    strict = cfg.strict_budget
    delta = cfg.max_degree
    n = oracle.n
    root = 0
    fresh = oracle.ledger.raw_calls == 0

    depth_map = oracle.batch_distances_from(root, range(1, n), QueryPhase.ROOT_BFS)
    if strict and fresh and oracle.ledger.per_phase[QueryPhase.ROOT_BFS] != n - 1:
        raise BudgetExceeded(
            f"root scan charged {oracle.ledger.per_phase[QueryPhase.ROOT_BFS]} "
            f"queries, expected exactly {n - 1}"
        )
    depth = [0] * n
    for v, d in depth_map.items():
        depth[v] = d
    layering = layering_from_depths(root, depth)

    builder = GraphBuilder(n)
    hi = min(ell + 1, layering.num_layers - 1)
    ball = sorted(v for layer in layering.layers[: hi + 1] for v in layer)
    boot_before = oracle.ledger.distinct_queries
    for idx, a in enumerate(ball):
        for b, d in oracle.batch_distances_from(
            a, ball[idx + 1 :], QueryPhase.BOOTSTRAP
        ).items():
            if d == 1:
                builder.add_edge(a, b)
    if strict:
        boot_used = oracle.ledger.distinct_queries - boot_before
        boot_limit = delta ** (2 * (ell + 2))
        if boot_used > boot_limit:
            raise BudgetExceeded(
                f"bootstrap charged {boot_used} queries, limit {boot_limit}"
            )

    tree = LayeringTree(n)
    trace = [
        _extend_layer(builder, layering, tree, i, ell, oracle, delta, strict)
        for i in range(ell + 2, layering.num_layers)
    ]

    return ReconstructionResult(
        graph=builder.to_graph(),
        ledger=oracle.ledger.snapshot(),
        trace=tuple(trace),
        ell=ell,
        root=root,
    )


def reconstruct_naive(oracle: DistanceOracle) -> Graph:
    """Baseline: query every unordered pair; edge iff distance one."""
    n = oracle.n
    builder = GraphBuilder(n)
    for u in range(n - 1):
        for v, d in oracle.batch_distances_from(
            u, range(u + 1, n), QueryPhase.BASELINE
        ).items():
            if d == 1:
                builder.add_edge(u, v)
    return builder.to_graph()
