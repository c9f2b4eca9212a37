"""Set-based reference for the ancestor search.

This is the descent the library used before its pivot tree was kept across
layers: a subtree is an explicit set of part ids, its centroid is found by a
full scan, and the split into components is materialized per node. The
search is rebuilt whenever the tree's cap moves. It is slow but short, and the
differential tests hold the library's search to it: same parts, same query
sequence, same rounds and the same errors.
"""

from __future__ import annotations

from typing import Iterable

from sprec.graph import neighbors_of_set
from sprec.layering import LayeringInvariantError, LayeringTree
from sprec.oracle import DistanceOracle, QueryPhase
from sprec.reconstruct import InvariantViolation

from .conftest import tree_neighbors


def reference_centroid(tree: LayeringTree, part_ids: Iterable[int]) -> int:
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
        for q in tree_neighbors(tree, pid):
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
        for q in tree.children(pid):
            if q in subset:
                worst = max(worst, size[q])
        if worst < best_worst:
            best_worst = worst
            best_pid = pid
    if best_worst > total // 2:
        raise LayeringInvariantError("no half-splitting part found in a tree")
    if total >= 3:
        deg = sum(1 for q in tree_neighbors(tree, best_pid) if q in subset)
        if deg < 2:
            raise LayeringInvariantError("half-splitting part of a 3+ subtree must be internal")
    return best_pid


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


class ReferenceSearch:
    """Set-based pivot tree, rebuilt from scratch for every cap layer.

    Takes the same arguments as the library's `_AncestorSearch` and answers
    `locate` the same way, so it can stand in for it inside `reconstruct`.
    """

    def __init__(self, tree: LayeringTree, prefix_graph):
        self.tree = tree
        self.prefix_graph = prefix_graph
        self.cap = None
        self._root = None

    def _rebuild(self) -> None:
        tree = self.tree
        self.cap = tree.cap
        cap_parts = [pid for pid, j in enumerate(tree.layer) if j == self.cap]
        self._root = _SearchNode(
            set(range(len(tree.layer))),
            len(cap_parts),
            cap_parts[0] if len(cap_parts) == 1 else -1,
        )

    def locate(self, x: int, oracle: DistanceOracle) -> tuple[int, int, int]:
        if self.cap != self.tree.cap:
            self._rebuild()
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
        pid = reference_centroid(self.tree, node.part_ids)
        node.pivot = pid
        w = neighbors_of_set(self.prefix_graph, self.tree.vertices(pid))
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
                for r in tree_neighbors(tree, q):
                    if r in remaining and r not in visited:
                        visited.add(r)
                        comp.append(r)
                        stack.append(r)
            cap_parts = [q for q in comp if tree.layer[q] == cap]
            child = _SearchNode(
                set(comp),
                len(cap_parts),
                cap_parts[0] if len(cap_parts) == 1 else -1,
            )
            for q in comp:
                child_by_part[q] = child
        node.child_by_part = child_by_part
