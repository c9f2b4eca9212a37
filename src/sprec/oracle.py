"""Shortest-path distance oracle over a hidden graph, with query accounting.

The oracle answers d(u, v) exactly and charges one distinct-query credit per
unordered pair, no matter how often the pair is re-asked. Every charged query
is attributed to a phase so budgets can be checked per algorithm stage.
Answered pairs are cached in one small dict per vertex, row u mapping each
partner v > u to d(u, v): the keys are vertex ints the caller already holds,
so a pair costs one dict entry, about 42 bytes retained per charged pair on
a 2-tree at n=1024.

The hidden side answers in two ways. A batch (one source, many targets)
grows a BFS ball from its source in a throwaway dense list, level by level,
only until it holds every target whose pair is not cached yet, and charges
those answers in one pass. A single query reads exact 2-hop distance labels
of the hidden graph: pruned landmark labels (Akiba, Iwata and Yoshida,
SIGMOD 2013), built at the first single query by one pruned BFS per vertex.
Vertices are ranked by a centroid decomposition of a BFS tree of the hidden
graph from vertex 0. Labels are exact under any order; this one keeps them
near log2 n entries per vertex on bounded-treelength graphs: at n=8192, 8.1
on a random tree, 11.2 on a caterpillar and 14.2 to 14.6 on 2-trees. Graphs
of large treelength get much larger labels, so the build stops once they
hold more than _LABEL_BUDGET * n * ceil(log2 n) entries; single queries
then read complete BFS rows instead, one per source, kept least recently
used first within _ROW_CACHE_BYTES.

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

    balls_transient: throwaway BFS balls grown for batches.
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

    Answers are memoized per unordered pair; the hidden side never builds an
    all-pairs table.

    batch_distances_from(s, ...) grows a BFS ball around s in a dense list
    that is dropped after the batch, only as far as its farthest uncached
    target, and charges the batch in one pass; its ledger, log and answers
    equal those of query(s, t) per target. query(u, v) answers from exact
    distance labels of the hidden graph (see the module docstring), built
    at the first single query, so runs whose single queries never come pay
    nothing for them. If the labels pass their budget, query(u, v) reads a
    complete BFS row from u instead; rows are kept least recently used
    first within _ROW_CACHE_BYTES, and v's row is never read.

    Where query is overridden (a subclass, a wrapper), a batch calls it for
    every target and the batch's ball answers those calls, so a batch never
    builds the labels or a row.
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
        # answered pairs: row u maps each v > u to d(u, v); built at the
        # first pair asked
        self._pairs: list[dict[int, int]] | None = None
        self._labels: list[dict[int, int]] | None = None  # hub -> distance per vertex
        self._rows: OrderedDict[int, array] = OrderedDict()  # fallback rows
        self._ball: tuple[int, list[int]] | None = None  # (s, ball) during a batch
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
            return 0  # not a pair: nothing to charge, cache or log
        pairs = self._pairs
        if pairs is None:
            pairs = self._pairs = [{} for _ in range(n)]
        row, w = (pairs[u], v) if u < v else (pairs[v], u)
        d = row.get(w)
        if d is not None:
            return d
        d = row[w] = self._distance(u, v)
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
        as the farthest target whose pair is not cached yet, and the
        uncached answers are read from it and charged in one pass.
        """
        if not isinstance(phase, QueryPhase):
            raise _phase_error(phase)
        n = self.n
        if type(s) is not int:
            (s,) = _ints(s)
        if not 0 <= s < n:
            raise ValueError(f"source {s} out of range for n={n}")
        pairs = self._pairs
        if pairs is None:
            pairs = self._pairs = [{} for _ in range(n)]
        row = pairs[s]
        out: dict[int, int] = {}
        want: list[int] = []
        for t in targets:
            if type(t) is not int:
                _, t = _ints(s, t)
            if not 0 <= t < n:
                raise ValueError(f"vertex pair ({s},{t}) out of range for n={n}")
            if t in out:
                continue
            if t == s:
                out[t] = 0
                continue
            d = row.get(t) if s < t else pairs[t].get(s)
            if d is None:
                want.append(t)
            out[t] = d  # a placeholder keeps t's place until it is charged
        if want:
            ball = self._grow(s, want)
            self.stats.balls_transient += 1
        if type(self).query is not _OWN_QUERY:
            # an overriding query (a subclass's or a wrapper) sees each
            # target, and _distance answers it from the ball
            if want:
                self._ball = s, ball
            try:
                return {t: self.query(s, t, phase) for t in out}
            finally:
                self._ball = None
        ledger = self.ledger
        ledger.raw_calls += len(out)
        log, value = ledger.log, phase.value
        for t in want:
            d = out[t] = ball[t]
            if s < t:
                row[t] = d
            else:
                pairs[t][s] = d
            if log is not None:
                log.append((s, t, d, value))
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
        ball = self._ball
        if ball is not None and ball[0] == u and ball[1][v] >= 0:
            return ball[1][v]
        labels = self._labels
        if labels is None:
            labels = self._labels = self._build_labels()
        if labels:
            lu, lv = labels[u], labels[v]
            return min([lu[h] + lv[h] for h in lu.keys() & lv.keys()])
        return self._row(u)[v]

    def _grow(self, s: int, want: list[int]) -> list[int]:
        """Distances from s in a dense list, -1 beyond the first BFS level
        that holds every vertex of want."""
        row = [-1] * self.n
        row[s] = 0
        adj = self.hidden.adj
        frontier, d, held = [s], 0, 1
        pending = want[:]
        while frontier:
            while pending and row[pending[-1]] >= 0:
                pending.pop()
            if not pending:
                break
            d += 1
            nxt = []
            for x in frontier:
                for w in adj[x]:
                    if row[w] < 0:
                        row[w] = d
                        nxt.append(w)
            held += len(nxt)
            frontier = nxt
        self.stats.visited += held
        return row

    def _row(self, s: int) -> array:
        """s's complete BFS row, the most recently used from now on; least
        recently used rows leave while the cache is over its budget."""
        rows, stats = self._rows, self.stats
        row = rows.get(s)
        if row is not None:
            rows.move_to_end(s)
            return row
        row = rows[s] = array("i", self._grow(s, list(range(self.n))))
        stats.fallback_rows += 1
        while len(rows) > max(1, _ROW_CACHE_BYTES // (row.itemsize * self.n)):
            rows.popitem(last=False)
            stats.evicted += 1
        return row

    def _build_labels(self) -> list[dict[int, int]]:
        """Pruned landmark labels of the hidden graph, hub -> distance per
        vertex, or [] once they hold more than the budget's entries.

        Vertices r are taken in _separator_order; the BFS from r does not
        label or expand a vertex u at distance d when a hub ranked before r
        already gives d(r, h) + d(h, u) <= d. Then d(u, v) is the least
        d(u, h) + d(h, v) over the hubs h that u's and v's labels share.
        """
        start = time.perf_counter()
        n, adj, stats = self.n, self.hidden.adj, self.stats
        budget = _LABEL_BUDGET * n * (n - 1).bit_length()
        labels: list[dict[int, int]] = [{} for _ in range(n)]
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


def _phase_error(phase: object) -> TypeError:
    return TypeError(f"phase must be a QueryPhase, got {phase!r}")


def _ints(*xs: object) -> tuple[int, ...]:
    """xs as ints; int-like values such as numpy integers convert."""
    try:
        return tuple(map(index, xs))
    except TypeError:
        raise TypeError(f"vertices ({', '.join(map(repr, xs))}) must be integers") from None
