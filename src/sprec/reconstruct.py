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

from .graph import (
    Graph, GraphBuilder, GraphLike, as_integer, components_masked, neighbors_of_set,
)
from .layering import (
    InvariantViolation,
    Layering,
    LayeringTree,
    ReconstructionError,
    centroid,
    layering_from_depths,
)
from .oracle import DistanceOracle, QueryLedger, QueryPhase


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
        if self.ell is None and as_integer("tau", self.tau) < 1:
            raise ValueError("tau must be a positive integer")
        if self.ell is not None and as_integer("ell", self.ell) < 0:
            raise ValueError("ell must be nonnegative")
        if self.max_degree is not None and as_integer("max_degree", self.max_degree) < 0:
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


class _PivotNode:
    """Connected part subtree: the parts below `top` minus those below any
    root in `excluded`. Appending leaf parts never changes which subtree a
    node names, so its pivot and children carry over to the next layer."""

    __slots__ = ("top", "excluded", "layer", "size", "cap_parts", "sole_cap_part",
                 "pivot", "kids")

    def __init__(self, top: int, excluded: tuple[int, ...]):
        self.top = top
        self.excluded = excluded
        self.layer = -1  # cap layer the fields below were computed for
        self.size = self.cap_parts = self.sole_cap_part = 0
        self.pivot = -1
        self.kids: dict[int, _PivotNode] = {}  # by the kid's top; -1 above the pivot


class _AncestorSearch:
    """Pivot tree for locating capped-layer ancestors of new vertices.

    One search serves a whole run. Each node's pivot is the centroid of its
    part subtree, so each round halves the candidate part set. On the first
    visit in a layer a node recounts its parts from the tree's subtree
    counts and re-finds its centroid by a walk from its previous pivot (for
    a new node, from the last pivot at its depth if that lies inside, else
    from its top). Appended leaves move a centroid only a little, so the
    walk is short; the node keeps its children while its pivot stays. Pivot
    neighbourhoods are read once per part: a part becomes a pivot only after
    the layer below it is complete, so its edges are all known by then.
    """

    def __init__(self, tree: LayeringTree, prefix_graph: GraphLike):
        self.tree = tree
        self.prefix_graph = prefix_graph
        self._root = _PivotNode(0, ())
        self._hints: dict[int, int] = {}  # search depth -> last pivot found there
        self._neighbors: dict[int, list[int]] = {}

    def locate(self, x: int, oracle: DistanceOracle) -> tuple[int, int, int]:
        """Capped-layer ancestor part of x, plus (distinct queries, rounds).

        Each round queries x against the pivot's graph neighborhood and keeps
        the side of the nearest neighbor (ties to the smallest id), until one
        capped part is left.
        """
        tree = self.tree
        ledger = oracle.ledger
        before = ledger.distinct_queries
        rounds = 0
        node = self._root
        while True:
            if node.layer != tree.cap:
                self._refresh(node, rounds)
            if node.cap_parts == 1:
                return node.sole_cap_part, ledger.distinct_queries - before, rounds
            if node.cap_parts == 0:
                raise InvariantViolation(
                    "descent reached a subtree with no capped-layer part; "
                    "the configured diameter bound is likely too small"
                )
            if node.size < 3:
                raise InvariantViolation(
                    "two capped-layer parts without a connecting internal part"
                )
            rounds += 1
            best_w = -1
            best_d = -1
            for w in self._neighbors[node.pivot]:
                # (w, x), not (x, w): the query-log pins record this order.
                # The labels hold x for its whole descent and read w's label
                # alone; past their budget w's fallback row is read, which
                # the layer's vertices reuse, as they probe the same pivots.
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
            node = self._kid(node, wp)

    def _holds(self, node: _PivotNode, pid: int) -> bool:
        tree = self.tree
        return tree.is_under(pid, node.top) and not any(
            tree.is_under(pid, r) for r in node.excluded
        )

    def _refresh(self, node: _PivotNode, depth: int) -> None:
        """Recount the node for the current cap; re-find its pivot if it needs one."""
        tree = self.tree
        node.layer = tree.cap
        size = tree.size[node.top]
        count, total = tree.caps_below(node.top)
        for r in node.excluded:
            c, t = tree.caps_below(r)
            size -= tree.size[r]
            count -= c
            total -= t
        node.size, node.cap_parts, node.sole_cap_part = size, count, total
        if count < 2 or size < 3:
            return
        start = node.pivot
        if start < 0:
            start = self._hints.get(depth, -1)
            if start < 0 or not self._holds(node, start):
                start = node.top
        pivot = centroid(tree, node.top, node.excluded, start)
        if pivot != node.pivot:
            node.pivot = pivot
            node.kids = {}
        self._hints[depth] = pivot
        if pivot not in self._neighbors:
            w = neighbors_of_set(self.prefix_graph, tree.parts[pivot].vertices)
            self._neighbors[pivot] = sorted(w)

    def _kid(self, node: _PivotNode, wp: int) -> _PivotNode:
        """The component of node minus its pivot that holds part wp."""
        tree = self.tree
        p = node.pivot
        if wp == p or not self._holds(node, wp):
            raise InvariantViolation(
                "nearest pivot neighbor points outside the current subtree"
            )
        # prefix edges join adjacent layers or stay inside a part: wp is p's child or above p
        key = wp if tree.parent[wp] == p else -1
        kid = node.kids.get(key)
        if kid is None:
            if key >= 0:
                kid = _PivotNode(key, tuple(r for r in node.excluded if tree.is_under(r, key)))
            else:
                rest = tuple(r for r in node.excluded if not tree.is_under(r, p))
                kid = _PivotNode(node.top, rest + (p,))
            node.kids[key] = kid
        return kid


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
    search: _AncestorSearch,
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
    tree = search.tree
    labels = _grow_tree(tree, layering, builder, k, ell)
    part_limit = max_degree ** (ell + 1) if max_degree is not None else None
    label_to_part: dict[int, int] = {}
    for pid in tree.parts_at(k):
        vs = tree.parts[pid].vertices
        if part_limit is not None and len(vs) > part_limit:
            raise InvariantViolation(
                f"part at layer {k} has {len(vs)} vertices, above the bound "
                f"{part_limit}; the diameter bound is likely too small"
            )
        label_to_part[labels[vs[0]]] = pid
    # Each part holds one window component's layer-k vertices, so a further
    # label is a component of layers k..i-1 that never reaches layer k.
    if len(set(labels.values())) > len(label_to_part):
        raise InvariantViolation(
            "a prefix vertex is disconnected from every capped-layer part"
        )
    layers = layering.layers
    n = len(layering.depth)
    prev_by_part: dict[int, list[int]] = {}
    for u in layers[i - 1]:
        prev_by_part.setdefault(label_to_part[labels[u]], []).append(u)

    ledger = oracle.ledger
    anc_limit = (
        max_degree ** (ell + 2) * _ceil_log2(n) if max_degree is not None else None
    )
    anc_before = ledger.distinct_queries
    max_call = 0
    max_rounds = 0
    anc: dict[int, int] = {}
    cur_by_part: dict[int, list[int]] = {}
    for x in layers[i]:
        pid, cost, rounds = search.locate(x, oracle)
        if strict and cost > anc_limit:
            raise BudgetExceeded(
                f"ancestor search for {x} used {cost} queries, limit {anc_limit}"
            )
        anc[x] = pid
        cur_by_part.setdefault(pid, []).append(x)
        max_call = max(max_call, cost)
        max_rounds = max(max_rounds, rounds)
    anc_total = ledger.distinct_queries - anc_before

    cand_limit = max_degree ** (2 * ell + 4) if max_degree is not None else None
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
        # Layer i - 1 vertices are never sources here, so each of their pairs
        # comes up once; a pair of two new vertices of one part is asked by the
        # earlier of them, so v takes only the part's vertices after its own.
        targets = [*cand_prev, *cand_cur[cand_cur.index(v) + 1 :]]
        v_before = ledger.distinct_queries
        # One batch per vertex: the oracle grows v's BFS ball only as far as
        # its farthest candidate. Edges go in in target order, which keeps the
        # builder's adjacency order, and so part ids and pivots, unchanged.
        dist = oracle.batch_distances_from(v, targets, QueryPhase.NEIGHBOR_SEARCH)
        for u in targets:
            if dist[u] == 1:
                builder.add_edge(min(u, v), max(u, v))
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

    search = _AncestorSearch(LayeringTree(n), builder)
    trace = [
        _extend_layer(builder, layering, search, i, ell, oracle, delta, strict)
        for i in range(ell + 2, layering.num_layers)
    ]
    del search  # the pivot and part trees go before the output graph is built

    return ReconstructionResult(
        graph=builder.to_graph(),
        ledger=oracle.ledger.snapshot(),
        trace=tuple(trace),
        ell=ell,
        root=root,
    )

