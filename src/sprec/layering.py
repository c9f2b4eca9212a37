"""BFS layerings and the tree of layer parts.

Rooted at s, layer j holds the vertices at distance j from s. The parts at
layer j are the intersections of layer j with the connected components of the
graph minus all shallower layers; parts partition each layer and form a tree
in which every part's parent sits one layer up.

build_layering_tree builds the full tree of a completely known graph (ground
truth for tests and benchmarks). The reconstruction grows a depth-capped tree
one layer at a time with LayeringTree.append_layer, from component labels of
the known prefix; part ids are assigned so that both agree exactly on the
layers they share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import GraphLike, UNREACHABLE, bfs_distances


class PartialTreeError(ValueError):
    """Precondition failure while building or extending a capped tree."""


class ReconstructionError(RuntimeError):
    """Base class for failures during a reconstruction run."""


class InvariantViolation(ReconstructionError):
    """A structural bound failed mid-run; the configured bound is suspect."""


class LayeringInvariantError(InvariantViolation):
    """Structural breach in the layering tree: a corrupted prefix or an
    invalid bound."""


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

    Growth keeps, per part, the number of parts in its subtree (`size`), the
    number and id sum of its capped-layer descendants (valid while
    `cap_seen` equals `cap`), and a skew-binary jump pointer (Myers, 1983),
    so subtree sizes are O(1) reads and level ancestors take O(log n) steps.
    Each appended layer updates the counts in one pass up the tree, which
    visits every ancestor of the new parts once.
    """

    __slots__ = ("parts", "parent", "children", "vertex_to_part", "layer_parts", "cap",
                 "size", "jump", "cap_count", "cap_sum", "cap_seen")

    def __init__(self, n: int):
        self.parts: list[Part] = []
        self.parent: list[int] = []
        self.children: list[list[int]] = []
        self.vertex_to_part: list[int] = [-1] * n
        self.layer_parts: list[list[int]] = []
        self.cap = -1
        self.size: list[int] = []
        self.jump: list[int] = []
        self.cap_count: list[int] = []
        self.cap_sum: list[int] = []
        self.cap_seen: list[int] = []

    def parts_at(self, layer: int) -> list[int]:
        return self.layer_parts[layer]

    def ancestor_at(self, pid: int, layer: int) -> int:
        """Ancestor of part pid at `layer` (pid itself at its own layer)."""
        parts, jump = self.parts, self.jump
        while parts[pid].layer > layer:
            j = jump[pid]
            pid = j if parts[j].layer >= layer else self.parent[pid]
        return pid

    def is_under(self, pid: int, top: int) -> bool:
        """Whether part pid lies in the subtree rooted at part top."""
        layer = self.parts[top].layer
        return self.parts[pid].layer >= layer and self.ancestor_at(pid, layer) == top

    def caps_below(self, pid: int) -> tuple[int, int]:
        """(count, id sum) of the capped-layer parts in pid's subtree."""
        if self.cap_seen[pid] != self.cap:
            return 0, 0
        return self.cap_count[pid], self.cap_sum[pid]

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
            self._add_leaf(pid, k)
            for u in vs:
                self.vertex_to_part[u] = pid
            new_ids.append(pid)
        self._count_layer(new_ids, k)
        self.layer_parts.append(new_ids)
        self.cap = k
        return new_ids

    def _add_leaf(self, pid: int, k: int) -> None:
        """Set the jump pointer and the counts of new leaf pid at layer k."""
        parent, jump, parts = self.parent, self.jump, self.parts
        p = parent[pid]
        if p < 0:
            jump.append(pid)
        else:
            j = jump[p]
            mid = parts[j].layer
            even = parts[p].layer - mid == mid - parts[jump[j]].layer
            jump.append(jump[j] if even else p)
        self.size.append(1)
        self.cap_count.append(1)
        self.cap_sum.append(pid)
        self.cap_seen.append(k)

    def _count_layer(self, new_ids: list[int], k: int) -> None:
        """Count the new leaves of layer k in every ancestor, in one upward
        pass: counts merge one layer at a time while the ancestors differ,
        then one walk covers the single chain left above them."""
        parent, size, count, total, seen = (
            self.parent, self.size, self.cap_count, self.cap_sum, self.cap_seen)
        up: dict[int, list[int]] = {}  # ancestor -> [new leaves below, their id sum]
        for pid in new_ids:
            p = parent[pid]
            if p >= 0:
                acc = up.setdefault(p, [0, 0])
                acc[0] += 1
                acc[1] += pid
        while len(up) > 1:  # layer 0 has one part, so these have parents
            nxt: dict[int, list[int]] = {}
            for p, (c, t) in up.items():
                size[p] += c
                count[p], total[p], seen[p] = c, t, k
                acc = nxt.setdefault(parent[p], [0, 0])
                acc[0] += c
                acc[1] += t
            up = nxt
        for p, (c, t) in up.items():
            while p >= 0:
                size[p] += c
                count[p], total[p], seen[p] = c, t, k
                p = parent[p]


def build_layering_tree(g: GraphLike, layering: Layering) -> LayeringTree:
    """Full layering tree of a completely known graph.

    Joins layers deepest-first with a union-find, so each layer's parts are
    read off when the layer joins; total cost is near-linear in n + m.
    """
    n = g.n
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    active = [False] * n
    labels: list[dict[int, int]] = []  # component label per vertex, deepest layer first
    for layer in reversed(layering.layers):
        for v in layer:
            active[v] = True
        for v in layer:
            for w in g.adj[v]:
                if active[w]:
                    ru, rw = find(v), find(w)
                    if ru != rw:
                        parent[ru] = rw
        labels.append({v: find(v) for v in layer})
    tree = LayeringTree(n)
    for k, layer_labels in enumerate(reversed(labels)):
        tree.append_layer(k, layer_labels, layering, g)
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


def centroid(tree: LayeringTree, top: int, excluded: tuple[int, ...], start: int) -> int:
    """Centroid of the part subtree rooted at `top` minus the subtrees rooted
    at `excluded` (parts of top's subtree, none below another).

    Returns the part whose removal leaves the smallest largest component,
    ties to the smallest id; it leaves components of at most half. The walk
    starts at `start`, a part of the subtree, and steps into the component
    larger than half while there is one, so its cost grows with the
    distance to the centroid, not with the size of the subtree. A tree has
    one centroid or two adjacent ones, split by an edge into equal halves.
    """
    size, parent, children = tree.size, tree.parent, tree.children

    def inner(pid: int) -> int:
        return size[pid] - sum(size[r] for r in excluded if tree.is_under(r, pid))

    total = inner(top)
    v = start
    while True:
        up = total - inner(v)
        if 2 * up > total:
            v = parent[v]
            continue
        heavy = -1
        twin = parent[v] if up and 2 * up == total else -1
        for c in children[v]:
            if c in excluded:
                continue
            s = inner(c)
            if 2 * s > total:
                heavy = c
                break
            if 2 * s == total:
                twin = c
        if heavy < 0:
            return v if twin < 0 else min(v, twin)
        v = heavy
