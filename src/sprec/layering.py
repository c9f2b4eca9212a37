"""BFS layerings and the tree of layer parts.

Rooted at s, layer j holds the vertices at distance j from s. The parts at
layer j are the intersections of layer j with the connected components of the
graph minus all shallower layers; parts partition each layer and form a tree
in which every part's parent sits one layer up.

build_layering_tree computes the full tree from a completely known graph
(ground truth for tests and benchmarks). The reconstruction grows a
depth-capped tree one layer at a time with LayeringTree.append_layer, from
component labels of the known prefix; part ids are assigned so that both
agree exactly on the layers they share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import (
    Graph,
    GraphBuilder,
    UNREACHABLE,
    bfs_distances,
)

GraphLike = Graph | GraphBuilder


class PartialTreeError(ValueError):
    """Precondition failure while building or extending a capped tree."""


class LayeringInvariantError(RuntimeError):
    """Structural breach that signals a corrupted prefix or an invalid bound."""


@dataclass(frozen=True)
class Layering:
    """Root, per-vertex BFS depth, and layers as ascending id tuples."""

    root: int
    depth: tuple[int, ...]
    layers: tuple[tuple[int, ...], ...]

    @property
    def num_layers(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class Part:
    part_id: int
    layer: int
    vertices: tuple[int, ...]


def layering_from_depths(root: int, depth: Sequence[int]) -> Layering:
    """Build a Layering from an externally obtained depth map."""
    n = len(depth)
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range for n={n}")
    if depth[root] != 0:
        raise ValueError("root must have depth 0")
    max_depth = max(depth)
    buckets: list[list[int]] = [[] for _ in range(max_depth + 1)]
    for v in range(n):
        d = depth[v]
        if d < 0:
            raise ValueError(f"vertex {v} unreachable from root")
        buckets[d].append(v)
    for j, bucket in enumerate(buckets):
        if not bucket:
            raise ValueError(f"empty layer {j} below the deepest layer")
    return Layering(
        root=root,
        depth=tuple(depth),
        layers=tuple(tuple(b) for b in buckets),
    )


def build_layering(g: GraphLike, s: int) -> Layering:
    dist = bfs_distances(g, s)
    if UNREACHABLE in dist:
        raise ValueError("graph must be connected to build a layering")
    return layering_from_depths(s, dist)


class LayeringTree:
    """Tree over layer parts, complete through layer `cap`.

    Part ids are assigned in (layer, min vertex id) order, so ids of a capped
    tree match the ids of the full tree truncated at the same depth.
    """

    __slots__ = ("parts", "parent", "children", "vertex_to_part", "layer_parts", "cap")

    def __init__(self, n: int):
        self.parts: list[Part] = []
        self.parent: list[int] = []
        self.children: list[list[int]] = []
        self.vertex_to_part: list[int] = [-1] * n
        self.layer_parts: list[list[int]] = []
        self.cap = -1

    def parts_at(self, layer: int) -> list[int]:
        return self.layer_parts[layer]

    def tree_neighbors(self, part_id: int) -> list[int]:
        out = list(self.children[part_id])
        if self.parent[part_id] >= 0:
            out.append(self.parent[part_id])
        return out

    # -- growth ------------------------------------------------------------

    def append_layer(
        self,
        k: int,
        labels: dict[int, int],
        layering: Layering,
        prefix_graph: GraphLike,
    ) -> list[int]:
        """Add the parts of layer k, grouping that layer by component label.

        `labels` must cover every vertex of layer k (a components_masked pass
        over a window of layers starting at k). Returns the new part ids.
        """
        if k != self.cap + 1:
            raise PartialTreeError(f"cannot append layer {k} to a tree capped at {self.cap}")
        groups: dict[int, list[int]] = {}
        for v in layering.layers[k]:
            groups.setdefault(labels[v], []).append(v)
        new_ids: list[int] = []
        depth = layering.depth
        adj = prefix_graph.adj
        # Ascending iteration over the layer makes group insertion order equal
        # to min-vertex order, matching the global id assignment rule.
        for vs in groups.values():
            pid = len(self.parts)
            self.parts.append(Part(pid, k, tuple(vs)))
            self.children.append([])
            if k == 0:
                self.parent.append(-1)
            else:
                parent_pid = -1
                for u in vs:
                    for w in adj[u]:
                        if depth[w] == k - 1:
                            parent_pid = self.vertex_to_part[w]
                            break
                    if parent_pid >= 0:
                        break
                if parent_pid < 0:
                    raise LayeringInvariantError(
                        f"part {vs} at layer {k} has no neighbor one layer up"
                    )
                self.parent.append(parent_pid)
                self.children[parent_pid].append(pid)
            for u in vs:
                self.vertex_to_part[u] = pid
            new_ids.append(pid)
        self.layer_parts.append(new_ids)
        self.cap = k
        return new_ids


def build_layering_tree(g: GraphLike, layering: Layering) -> LayeringTree:
    """Full layering tree of a completely known graph.

    Processes layers deepest-first with a union-find, so each layer's parts
    are read off when the layer joins; total cost is near-linear in n + m.
    """
    n = g.n
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    depth = layering.depth
    active = [False] * n
    groups_per_layer: list[list[list[int]]] = []
    for k in range(layering.num_layers - 1, -1, -1):
        layer = layering.layers[k]
        for v in layer:
            active[v] = True
        for v in layer:
            for w in g.adj[v]:
                if active[w]:
                    ru, rw = find(v), find(w)
                    if ru != rw:
                        parent[ru] = rw
        groups: dict[int, list[int]] = {}
        for v in layer:
            groups.setdefault(find(v), []).append(v)
        groups_per_layer.append(list(groups.values()))
    groups_per_layer.reverse()

    tree = LayeringTree(n)
    for k, groups in enumerate(groups_per_layer):
        labels: dict[int, int] = {}
        for vs in groups:
            for v in vs:
                labels[v] = vs[0]
        tree.append_layer(k, labels, layering, g)
    return tree


def tree_length(g: GraphLike, tree: LayeringTree) -> int:
    """Exact maximum intra-part distance, measured in the full graph.

    Ground-truth quantity for choosing the window bound on families without a
    known structural bound; never consumes oracle queries.
    """
    best = 0
    for part in tree.parts:
        vs = part.vertices
        if len(vs) < 2:
            continue
        members = set(vs)
        for u in vs:
            dist = bfs_distances(g, u)
            for v in vs:
                if v in members and dist[v] > best:
                    best = dist[v]
    return best


def centroid(tree: LayeringTree, part_ids: Iterable[int]) -> int:
    """Part whose removal splits the induced subtree into halves or smaller.

    The subset must induce a connected subtree. Ties break to the smallest
    part id; for subsets of three or more parts the winner is always an
    internal vertex of the subtree (a leaf would leave a component larger
    than half).
    """
    subset = set(part_ids)
    if not subset:
        raise ValueError("part subset must be nonempty")
    start = min(subset)
    order: list[int] = [start]
    parent_of: dict[int, int] = {start: -1}
    idx = 0
    while idx < len(order):
        pid = order[idx]
        idx += 1
        for q in tree.tree_neighbors(pid):
            if q in subset and q not in parent_of:
                parent_of[q] = pid
                order.append(q)
    if len(order) != len(subset):
        raise ValueError("part subset is not connected in the tree")
    total = len(subset)
    size = {pid: 1 for pid in subset}
    for pid in reversed(order[1:]):
        size[parent_of[pid]] += size[pid]
    best_pid = -1
    best_worst = total + 1
    for pid in sorted(subset):
        worst = total - size[pid]
        for q in tree.children[pid]:
            if q in subset:
                worst = max(worst, size[q])
        if worst < best_worst:
            best_worst = worst
            best_pid = pid
    if best_worst > total // 2:
        raise LayeringInvariantError("no half-splitting part found in a tree")
    if total >= 3:
        deg = sum(1 for q in tree.tree_neighbors(best_pid) if q in subset)
        if deg < 2:
            raise LayeringInvariantError("half-splitting part of a 3+ subtree must be internal")
    return best_pid
