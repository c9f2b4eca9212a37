"""Shortest-path distance oracle over a hidden graph, with query accounting.

The oracle answers d(u, v) exactly and charges one distinct-query credit per
unordered pair, no matter how often the pair is re-asked. Every charged query
is attributed to a phase so budgets can be checked per algorithm stage.
The ledger records which pairs were charged, not their distances: one array
of partner ids per vertex, each pair at both ends, 16-bit ids up to n=65,536
and 32-bit above, about 7 bytes retained per charged pair on a 2-tree at
n=1024. A re-asked pair is answered again by the hidden side, uncharged. A
single query scans the shorter of its two rows for the other endpoint, so
it costs O(shorter row); a batch from s costs O(|partners[s]|) on top of its
ball.

The hidden side answers in two ways. A batch (one source, many targets)
grows a BFS ball from its source, level by level, only until it holds every
target, answers the batch from it and charges its new pairs in one pass.
All balls share one dense list, each marking d(s, x) as base + d above the
marks of the balls before it, so no batch allocates or clears n entries. A
single query reads exact 2-hop distance labels of the hidden graph: pruned
landmark labels (Akiba, Iwata and Yoshida, SIGMOD 2013), built at the first
single query by one pruned BFS per vertex, each a hub tuple and a distance
tuple. One vertex's label is held, spread over an n-entry hub array, so a
pair with a held end reads one label: the ancestor search, asking (w, x) for
many w, loads x once per descent.
Vertices are ranked by a centroid decomposition of a BFS tree of the hidden
graph from vertex 0. Labels are exact under any order; this one keeps them
near log2 n entries per vertex on bounded-treelength graphs: at n=8192, 8.1
on a random tree, 11.2 on a caterpillar and 14.2 to 14.6 on 2-trees. Graphs
of large treelength get much larger labels, so the build stops once they
hold more than _LABEL_BUDGET * n * ceil(log2 n) entries; single queries
then read complete BFS rows instead, kept least recently used first within
_ROW_CACHE_BYTES: a pair, new or re-asked, reads u's row.

One oracle serves one reconstruction run; concurrent runs each get their own.
"""

from __future__ import annotations

import io
import time
from array import array
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from operator import add, index
from typing import Iterable

from .graph import Graph, bfs_distances, is_connected

# Memory budget for the complete BFS rows that answer single queries once
# the labels are over budget; answers stay exact under eviction, only
# recomputation cost is affected. Every row costs 4 bytes per vertex, so the
# budget is a row count.
_ROW_CACHE_BYTES = 128 << 20
# The label build stops once the labels hold more than this many entries
# per vertex and per bit of n: 4 * n * ceil(log2 n) in all.
_LABEL_BUDGET = 4


class QueryPhase(Enum):
    # members compare by identity, so the identity hash agrees with ==; it
    # is a C slot, where Enum's own hashes the name in Python on every
    # per-phase count a charged query updates
    __hash__ = object.__hash__

    ROOT_BFS = "root-bfs"
    BOOTSTRAP = "bootstrap"
    ANCESTOR_SEARCH = "ancestor-search"
    NEIGHBOR_SEARCH = "neighbor-search"
    BASELINE = "baseline"


@dataclass
class QueryLedger:
    """Counts distinct unordered pairs asked, total raw calls, and per-phase splits."""

    distinct_queries: int = 0
    raw_calls: int = 0
    per_phase: dict[QueryPhase, int] = field(
        default_factory=lambda: {p: 0 for p in QueryPhase}
    )
    log: list[tuple[int, int, int, str]] | None = None

    def snapshot(self) -> "QueryLedger":
        return QueryLedger(
            distinct_queries=self.distinct_queries,
            raw_calls=self.raw_calls,
            per_phase=dict(self.per_phase),
            log=None if self.log is None else list(self.log),
        )


@dataclass
class OracleStats:
    """Hidden-side work behind the answers.

    balls_transient: BFS balls grown for batches, none kept past its batch.
    visited: vertices those balls and the fallback rows reached, each
        source included.
    label_entries: entries the label build wrote. Past the budget of
        _LABEL_BUDGET * n * ceil(log2 n) the build stops there and the
        labels are dropped, so a count above the budget means fallback.
    label_visits: vertices the label build's pruned BFSs reached.
    label_seconds: wall time of the label build, its vertex order included.
    fallback_rows: complete BFS rows built for single queries once the
        labels were over budget.
    evicted: fallback rows evicted from the row cache.
    """

    balls_transient: int = 0
    visited: int = 0
    label_entries: int = 0
    label_visits: int = 0
    label_seconds: float = 0.0
    fallback_rows: int = 0
    evicted: int = 0


class DistanceOracle:
    """Simulates shortest-path distance queries against a hidden graph.

    The ledger keeps each charged pair as a partner id at both ends, not its
    distance, and the hidden side never builds an all-pairs table; the
    module docstring gives their costs. batch_distances_from(s, ...) has the
    ledger, log and answers of query(s, t) per target, charged in one pass.
    query(u, v) reads the label of an end that is not held, holding v if
    neither is; the labels are built at the first single query, so runs
    that ask none pay nothing for them.

    Where query is overridden (a subclass, a wrapper), a batch calls it for
    every target and the batch's answers, taken from its ball first, answer
    those calls, so a batch never builds the labels or a row.
    `stats` counts the BFS and label work behind the answers.
    """

    def __init__(self, hidden: Graph, log_queries: bool = False):
        if hidden.n < 1:
            raise ValueError("hidden graph must have at least one vertex")
        if not is_connected(hidden):
            raise ValueError("hidden graph must be connected")
        self.hidden = hidden
        self.n = hidden.n
        self.ledger = QueryLedger(log=[] if log_queries else None)
        # charged pairs: row u holds every partner of u, in charging order;
        # built at the first pair asked, 16-bit ids while they fit
        self._partners: list[array] | None = None
        self._id_code = "H" if self.n <= 1 << 16 else "i"
        self._labels: list[list[tuple[int, ...]]] | None = None  # [hubs, dists]
        self._via: list[int] = []  # the held hub array, built with the labels
        self._held = -1  # the vertex it holds, none until a query
        self._rows: OrderedDict[int, array] = OrderedDict()  # fallback rows
        # all batch balls, built at the first batch: d(s, x) is marked as
        # base + d, and marks below _base are left from earlier balls
        self._marks: list[int] | None = None
        self._base = 0
        self._ball: tuple[int, dict[int, int]] | None = None  # (s, answers) during a batch
        self.stats = OracleStats()

    # -- query surface ----------------------------------------------------

    def query(self, u: int, v: int, phase: QueryPhase) -> int:
        if not isinstance(phase, QueryPhase):
            raise _phase_error(phase)
        if type(u) is not int or type(v) is not int:
            u, v = _ints(u, v)
        n = self.n
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex pair ({u},{v}) out of range for n={n}")
        ledger = self.ledger
        ledger.raw_calls += 1
        if u == v:
            return 0  # not a pair: nothing to charge, record or log
        partners = self._partners
        if partners is None:
            partners = self._partners = [array(self._id_code) for _ in range(n)]
        pu, pv = partners[u], partners[v]
        if (v in pu) if len(pu) <= len(pv) else (u in pv):
            return self._distance(u, v)  # answered again, uncharged
        d = self._distance(u, v)
        pu.append(v)
        pv.append(u)
        ledger.distinct_queries += 1
        ledger.per_phase[phase] += 1
        if ledger.log is not None:
            ledger.log.append((u, v, d, phase.value))
        return d

    def batch_distances_from(
        self, s: int, targets: Iterable[int], phase: QueryPhase
    ) -> dict[int, int]:
        """Distances from s to each target, in first-seen target order.

        Accounting is identical to calling query(s, t) for each distinct
        target in order; the hidden side grows one ball from s, only as far
        as the farthest target, the batch is answered from it, and the pairs
        not charged before are charged in one pass.
        """
        if not isinstance(phase, QueryPhase):
            raise _phase_error(phase)
        n = self.n
        if type(s) is not int:
            (s,) = _ints(s)
        if not 0 <= s < n:
            raise ValueError(f"source {s} out of range for n={n}")
        targets = _checked_targets(s, targets, n)
        ball = targets.count(s) < len(targets)  # a target besides s itself
        if ball:
            marks, base = self._marks, self._base
            if marks is None:
                marks = self._marks = [-1] * n
            self._base = self._grow(s, targets[:], marks, base) + 1
            out = {t: marks[t] - base for t in targets}  # first-seen order
            self.stats.balls_transient += 1
        else:
            out = dict.fromkeys(targets, 0)
        if type(self).query is not _OWN_QUERY:
            # an overriding query (a subclass's or a wrapper) sees each
            # target, and _distance answers it from the batch's answers
            self._ball = s, out
            try:
                return {t: self.query(s, t, phase) for t in out}
            finally:
                self._ball = None
        ledger = self.ledger
        ledger.raw_calls += len(out)
        if not ball:
            return out
        partners = self._partners
        if partners is None:
            partners = self._partners = [array(self._id_code) for _ in range(n)]
        row = partners[s]
        charged = set(row)
        charged.add(s)
        want = [t for t in out if t not in charged]
        if want:
            row.extend(want)
            for t in want:
                partners[t].append(s)
            if ledger.log is not None:
                value = phase.value
                ledger.log.extend([(s, t, out[t], value) for t in want])
            ledger.distinct_queries += len(want)
            ledger.per_phase[phase] += len(want)
        return out

    def write_query_log(self, out: io.TextIOBase) -> None:
        """Dump charged queries as CSV lines "u,v,distance,phase"."""
        if self.ledger.log is None:
            raise ValueError("oracle was created with log_queries=False")
        for u, v, d, phase in self.ledger.log:
            out.write(f"{u},{v},{d},{phase}\n")

    # -- hidden-side distance computation ---------------------------------

    def _distance(self, u: int, v: int) -> int:
        """d(u, v), from the running batch's answers if it has one.

        Holding x, via[h] is d(h, x) for each hub h of x and n elsewhere, so
        the least via[h] + d(h, w) over w's hubs h is d(w, x): the labels
        share a hub on a shortest path, and one of w's alone adds at least n.
        """
        ball = self._ball
        if ball is not None and ball[0] == u and v in ball[1]:
            return ball[1][v]
        labels = self._labels
        if labels is None:
            labels = self._labels = self._build_labels()
        if not labels:
            return self._row(u)[v]
        (hubs, dists), via, x = labels, self._via, self._held
        if x != u and x != v:
            for h in hubs[x]:  # x = -1 resets hubs[n - 1], all n already
                via[h] = self.n
            for h, d in zip(hubs[v], dists[v]):
                via[h] = d
            self._held = x = v
        w = v if u == x else u
        return min(map(add, map(via.__getitem__, hubs[w]), dists[w]))

    def _grow(self, s: int, pending: list[int], row: list[int], base: int) -> int:
        """Grows a batch's ball: marks d(s, x) as base + d in row, entries
        below base counting as unreached, up to the first BFS level that
        holds every vertex of pending, which it empties; returns the largest
        mark."""
        row[s] = level = base
        adj = self.hidden.adj
        frontier, held = [s], 1
        while frontier:
            while pending and row[pending[-1]] >= base:
                pending.pop()
            if not pending:
                break
            level += 1  # one int per level, shared by its vertices
            nxt = []
            for x in frontier:
                for w in adj[x]:
                    if row[w] < base:
                        row[w] = level
                        nxt.append(w)
            held += len(nxt)
            frontier = nxt
        self.stats.visited += held
        return level

    def _row(self, s: int) -> array:
        """s's complete BFS row, the most recently used from now on; least
        recently used rows leave while the cache is over its budget."""
        rows, stats = self._rows, self.stats
        row = rows.get(s)
        if row is not None:
            rows.move_to_end(s)
            return row
        row = rows[s] = array("i", bfs_distances(self.hidden, s))
        stats.fallback_rows += 1
        stats.visited += self.n  # the hidden graph is connected
        while len(rows) > max(1, _ROW_CACHE_BYTES // (row.itemsize * self.n)):
            rows.popitem(last=False)
            stats.evicted += 1
        return row

    def _build_labels(self) -> list[list[tuple[int, ...]]]:
        """Pruned landmark labels of the hidden graph, [hubs, dists] with u's
        hubs and its distances to them in step, or [] past the budget.

        Vertices r are taken in _separator_order; the BFS from r does not
        label or expand a vertex u at distance d when a hub ranked before r
        already gives d(r, h) + d(h, u) <= d. Then d(u, v) is the least
        d(u, h) + d(h, v) over the hubs h that u's and v's labels share.
        """
        start = time.perf_counter()
        n, adj, stats = self.n, self.hidden.adj, self.stats
        budget = _LABEL_BUDGET * n * (n - 1).bit_length()
        labels: list = [{} for _ in range(n)]  # hub -> distance while built
        via = [n] * n  # d(r, h) for each hub h of the root r's label, else n
        mark = [-1] * n  # the last root whose BFS reached the vertex
        entries = visits = 0
        for r in _separator_order(self.hidden):
            lr = labels[r]
            for h, dh in lr.items():
                via[h] = dh
            mark[r] = r
            frontier, d = [r], 0
            while frontier:
                visits += len(frontier)
                nxt = []
                for u in frontier:
                    lu = labels[u]
                    if lu and min(map(add, map(via.__getitem__, lu), lu.values())) <= d:
                        continue
                    lu[r] = d
                    entries += 1
                    for w in adj[u]:
                        if mark[w] != r:
                            mark[w] = r
                            nxt.append(w)
                frontier = nxt
                d += 1
            for h in lr:
                via[h] = n
            if entries > budget:
                labels = []
                break
        else:
            dists = [()] * n
            for u, lu in enumerate(labels):  # a vertex at a time: no full second copy
                labels[u], dists[u] = tuple(lu), tuple(lu.values())
            labels, self._via, self._held = [labels, dists], via, -1
        stats.label_entries += entries
        stats.label_visits += visits
        stats.label_seconds += time.perf_counter() - start
        return labels


_OWN_QUERY = DistanceOracle.query  # batches charge in one pass only under it


def _separator_order(g: Graph) -> list[int]:
    """g's vertices by a centroid decomposition of a BFS tree from vertex 0,
    in which each vertex hangs from its first neighbour one layer up: the
    tree's centroid, then the centroids of the pieces it leaves, breadth
    first."""
    n, adj = g.n, g.adj
    depth = bfs_distances(g, 0)
    parent = [-1] * n
    children: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        p = parent[v] = next(w for w in adj[v] if depth[w] < depth[v])
        children[p].append(v)
    removed = [False] * n
    pred = [-1] * n  # parent within the current piece
    weight = [0] * n  # vertex count of the subtree within the piece
    order: list[int] = []
    tops = [0]  # one vertex of each piece left to split
    for top in tops:
        pred[top] = -1
        piece, stack = [], [top]
        while stack:
            p = stack.pop()
            piece.append(p)
            weight[p] = 1
            for q in (*children[p], parent[p]):
                if q >= 0 and q != pred[p] and not removed[q]:
                    pred[q] = p
                    stack.append(q)
        for p in reversed(piece[1:]):
            weight[pred[p]] += weight[p]
        c, total = top, weight[top]
        while True:
            for q in (*children[c], parent[c]):
                if q >= 0 and not removed[q] and pred[q] == c and 2 * weight[q] > total:
                    c = q
                    break
            else:
                break
        removed[c] = True
        order.append(c)
        tops.extend(q for q in (*children[c], parent[c]) if q >= 0 and not removed[q])
    return order


def _checked_targets(s: int, targets: Iterable, n: int) -> list[int]:
    """targets as ints in range, or the error of the first one that is not."""
    out = []
    for t in targets:
        if type(t) is not int:
            _, t = _ints(s, t)
        if not 0 <= t < n:
            raise ValueError(f"vertex pair ({s},{t}) out of range for n={n}")
        out.append(t)
    return out


def _phase_error(phase: object) -> TypeError:
    return TypeError(f"phase must be a QueryPhase, got {phase!r}")


def _ints(*xs: object) -> tuple[int, ...]:
    """xs as ints; int-like values such as numpy integers convert."""
    try:
        return tuple(map(index, xs))
    except TypeError:
        raise TypeError(f"vertices ({', '.join(map(repr, xs))}) must be integers") from None
