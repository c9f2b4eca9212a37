"""BFS layerings and the tree of layer parts.

Rooted at s, layer j holds the vertices at distance j from s. The parts at
layer j are the intersections of layer j with the connected components of the
graph minus all shallower layers; parts partition each layer and form a tree
in which every part's parent sits one layer up. Most parts are one vertex, so
the tree keeps its parts in flat per-part lists and int arrays, no object per part.

build_layering_tree builds the full tree of a completely known graph (ground
truth for tests and benchmarks). The reconstruction grows a depth-capped tree
one layer at a time: LayeringTree.append_layer adds layer cap + 1 from
component labels of the known prefix. Part ids are assigned so that both
agree exactly on the layers they share.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from operator import index
from typing import Collection, Sequence

from .graph import GraphLike, UNREACHABLE, bfs_distances


class ReconstructionError(RuntimeError):
    """Base class for failures during a reconstruction run."""


class InvariantViolation(ReconstructionError):
    """A structural bound failed mid-run; the configured bound is suspect."""


class LayeringInvariantError(InvariantViolation):
    """Structural breach in the layering tree: a corrupted prefix or an
    invalid bound."""


@dataclass(frozen=True)
class Layering:
    """Per-vertex BFS depth and layers as ascending id tuples; the root is
    the one vertex at depth 0."""

    depth: tuple[int, ...]
    layers: tuple[tuple[int, ...], ...]

    @property
    def num_layers(self) -> int:
        return len(self.layers)


def layering_from_depths(depth: Sequence[int]) -> Layering:
    """Build a Layering from an externally obtained depth map."""
    n = len(depth)
    for v, d in enumerate(depth):
        try:
            index(d)
        except TypeError:
            raise ValueError(f"vertex {v} at non-integer depth {d!r}") from None
    roots = [v for v, d in enumerate(depth) if d == 0]
    if len(roots) != 1:
        which = f"vertices {roots[0]} and {roots[1]} both" if roots else "no vertex"
        raise ValueError(f"{which} at depth 0; a layering has one root")
    # n vertices fill at most layers 0..n-1, so a depth of n or more leaves a
    # layer below it empty: n + 1 buckets find that layer.
    buckets: list[list[int]] = [[] for _ in range(min(max(depth), n) + 1)]
    for v in range(n):
        d = depth[v]
        if d < 0:
            raise ValueError(f"vertex {v} unreachable from root")
        buckets[min(d, n)].append(v)
    for j, bucket in enumerate(buckets):
        if not bucket:
            raise ValueError(f"empty layer {j} below the deepest layer")
    return Layering(tuple(depth), tuple(tuple(b) for b in buckets))


def build_layering(g: GraphLike, s: int) -> Layering:
    dist = bfs_distances(g, s)
    if UNREACHABLE in dist:
        raise ValueError("graph must be connected to build a layering")
    return layering_from_depths(dist)


class LayeringTree:
    """Tree over layer parts, complete through layer `cap`; append_layer adds cap + 1.

    Part ids are assigned in (layer, min vertex id) order, so ids of a capped
    tree match the ids of the full tree truncated at the same depth.

    Parts live in flat lists, `layer[p]` and `parent[p]`, and in slices of one int
    array each, `vertices(p)` and `children(p)`; layer k writes layer k - 1's children.

    Growth keeps, per part, the number of parts in its subtree (`size`) and
    a skew-binary jump pointer (Myers, 1983), so subtree sizes are O(1)
    reads and level ancestors take O(log n) steps. Each appended layer
    updates the sizes in one pass up the tree, which visits the new parts
    and each of their ancestors once, and rebuilds `caps`: the number and id
    sum of the capped-layer parts in the subtree of each part it visits.
    """

    __slots__ = ("layer", "parent", "vertex_to_part", "cap", "size", "jump", "caps",
                 "_verts", "_vstart", "_kids", "_kstart")

    def __init__(self, n: int):
        self.layer: list[int] = []
        self.parent: list[int] = []
        self.vertex_to_part: list[int] = [-1] * n
        self.cap = -1
        self.size: list[int] = []
        self.jump: list[int] = []
        self.caps: dict[int, tuple[int, int]] = {}
        self._verts = array("i")
        self._vstart = array("i", [0])  # part p's vertices start at _vstart[p]
        self._kids = array("i")
        self._kstart = array("i", [0])  # part p's children start at _kstart[p]

    def vertices(self, pid: int) -> list[int]:
        """The vertices of part pid, ascending."""
        return self._verts[self._vstart[pid] : self._vstart[pid + 1]].tolist()

    def children(self, pid: int) -> list[int]:
        """The child parts of part pid, ascending; none in the capped layer."""
        ks = self._kstart
        return self._kids[ks[pid] : ks[pid + 1]].tolist() if pid + 1 < len(ks) else []

    def is_under(self, pid: int, top: int) -> bool:
        """Whether part pid lies in the subtree rooted at part top."""
        layer, jump, lt = self.layer, self.jump, self.layer[top]
        while layer[pid] > lt:
            j = jump[pid]
            pid = j if layer[j] >= lt else self.parent[pid]
        return pid == top

    # -- growth ------------------------------------------------------------

    def append_layer(
        self,
        labels: dict[int, int],
        layering: Layering,
        prefix_graph: GraphLike,
    ) -> dict[int, int]:
        """Add the parts of layer k = cap + 1, grouping that layer by component
        label; return {label: part id} for the new parts, in id order.

        `labels` must cover every vertex of layer k (a components_masked pass
        over a window of layers starting at k).
        """
        k = self.cap + 1
        groups: dict[int, list[int]] = {}
        for v in layering.layers[k]:
            groups.setdefault(labels[v], []).append(v)
        new_ids: dict[int, int] = {}
        depth, adj = layering.depth, prefix_graph.adj
        first = len(self.layer)
        # Ascending iteration over the layer makes group insertion order equal
        # to min-vertex order, matching the global id assignment rule.
        for label, vs in groups.items():
            pid = len(self.layer)
            parent_pid = -1
            if k > 0:
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
            self.layer.append(k)
            self.parent.append(parent_pid)
            self._verts.extend(vs)
            self._vstart.append(len(self._verts))
            self._add_leaf(pid)
            for u in vs:
                self.vertex_to_part[u] = pid
            new_ids[label] = pid
        if k > 0:  # children of the layer k - 1 parts; a stable sort keeps them in id order
            per_parent = Counter(self.parent[first:])
            for p in range(len(self._kstart) - 1, first):
                self._kstart.append(self._kstart[-1] + per_parent[p])
            self._kids.extend(sorted(range(first, len(self.layer)), key=self.parent.__getitem__))
        self._count_layer(new_ids.values())
        self.cap = k
        return new_ids

    def _add_leaf(self, pid: int) -> None:
        """Set the jump pointer of new leaf pid, and a size of 0 for _count_layer."""
        parent, jump, layer = self.parent, self.jump, self.layer
        p = parent[pid]
        if p < 0:
            jump.append(pid)
        else:
            j = jump[p]
            mid = layer[j]
            even = layer[p] - mid == mid - layer[jump[j]]
            jump.append(jump[j] if even else p)
        self.size.append(0)

    def _count_layer(self, new_ids: Collection[int]) -> None:
        """Count the new leaves in themselves and every ancestor, in one
        upward pass: counts merge one layer at a time from the leaves while
        the parts differ, then one walk covers the single chain left above."""
        parent, size = self.parent, self.size
        caps = self.caps = {}
        up = {pid: [1, pid] for pid in new_ids}  # part -> [new leaves below, their id sum]
        while len(up) > 1:  # layer 0 has one part, so these have parents
            nxt: dict[int, list[int]] = {}
            for p, (c, t) in up.items():
                size[p] += c
                caps[p] = c, t
                acc = nxt.setdefault(parent[p], [0, 0])
                acc[0] += c
                acc[1] += t
            up = nxt
        for p, (c, t) in up.items():
            ct = c, t
            while p >= 0:
                size[p] += c
                caps[p] = ct
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
    for layer_labels in reversed(labels):
        tree.append_layer(layer_labels, layering, g)
    return tree


def tree_length(g: GraphLike, tree: LayeringTree) -> int:
    """Exact maximum intra-part distance, measured in the full graph.

    Ground-truth quantity for choosing the window bound on families without a
    known structural bound; never consumes oracle queries.
    """
    best = 0
    for pid in range(len(tree.layer)):
        vs = tree.vertices(pid)
        if len(vs) < 2:
            continue
        for u in vs:
            dist = bfs_distances(g, u)
            for v in vs:
                if dist[v] > best:
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
    size, parent = tree.size, tree.parent

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
        for c in tree.children(v):
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
