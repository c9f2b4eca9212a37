"""Shortest-path distance oracle over a hidden graph, with query accounting.

The oracle answers d(u, v) exactly and charges one distinct-query credit per
unordered pair, no matter how often the pair is re-asked. Every charged query
is attributed to a phase so budgets can be checked per algorithm stage.

One oracle serves one reconstruction run; concurrent runs each get their own.
"""

from __future__ import annotations

import io
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

import numpy as np

from .graph import Graph, is_connected, max_degree

# Below this size a plain deque BFS beats the vectorized one.
_NUMPY_MIN_N = 1024
# Memory budget for memoized per-source distance rows; answers stay exact
# under eviction, only recomputation cost is affected.
_ROW_CACHE_BYTES = 128 << 20


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


class DistanceOracle:
    """Simulates shortest-path distance queries against a hidden graph.

    Answers are memoized per unordered pair; distances are produced by
    per-source BFS rows memoized per source vertex (never a precomputed
    all-pairs table). The first argument of query() is the BFS side, so
    callers that reuse one endpoint across many queries should pass it first.
    """

    def __init__(self, hidden: Graph, log_queries: bool = False):
        if hidden.n < 1:
            raise ValueError("hidden graph must have at least one vertex")
        if not is_connected(hidden):
            raise ValueError("hidden graph must be connected")
        self.hidden = hidden
        self.n = hidden.n
        self.ledger = QueryLedger(log=[] if log_queries else None)
        self._pair_cache: dict[tuple[int, int], int] = {}
        self._rows: OrderedDict[int, object] = OrderedDict()
        self._max_rows = max(64, _ROW_CACHE_BYTES // max(1, 4 * hidden.n))
        deg_cap = max_degree(hidden)
        # Large graphs of degree at most 32 get the padded numpy BFS; every
        # other graph gets the deque BFS.
        self._padded = hidden.n >= _NUMPY_MIN_N and deg_cap <= 32
        if self._padded:
            # Row v holds v's neighbors padded with v itself; a visited
            # vertex never re-enters a frontier, so pads filter out free.
            pad = np.empty((hidden.n, max(deg_cap, 1)), dtype=np.int32)
            for v in range(hidden.n):
                pad[v, :] = v
                a = hidden.adj[v]
                pad[v, : len(a)] = a
            self._pad_adj = pad
            self._claim = np.empty(hidden.n, dtype=np.int64)

    # -- query surface ----------------------------------------------------

    def query(self, u: int, v: int, phase: QueryPhase) -> int:
        if not isinstance(phase, QueryPhase):
            raise TypeError(f"phase must be a QueryPhase, got {phase!r}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex pair ({u},{v}) out of range for n={self.n}")
        ledger = self.ledger
        ledger.raw_calls += 1
        if u == v:
            return 0  # not a pair: nothing to charge, cache or log
        key = (u, v) if u < v else (v, u)
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        d = self._distance(u, v)
        self._pair_cache[key] = d
        ledger.distinct_queries += 1
        ledger.per_phase[phase] += 1
        if ledger.log is not None:
            ledger.log.append((u, v, d, phase.value))
        return d

    def batch_distances_from(
        self, s: int, targets: Iterable[int], phase: QueryPhase
    ) -> dict[int, int]:
        """Distances from s to each target; accounting identical to a query loop."""
        targets = sorted(set(targets))
        if targets:
            self._ensure_row(s)
        return {t: self.query(s, t, phase) for t in targets}

    def write_query_log(self, out: io.TextIOBase) -> None:
        """Dump charged queries as CSV lines "u,v,distance,phase"."""
        if self.ledger.log is None:
            raise ValueError("oracle was created with log_queries=False")
        for u, v, d, phase in self.ledger.log:
            out.write(f"{u},{v},{d},{phase}\n")

    # -- hidden-side distance computation ---------------------------------

    def _distance(self, u: int, v: int) -> int:
        row = self._rows.get(u)
        if row is not None:
            self._rows.move_to_end(u)
            return int(row[v])
        row = self._rows.get(v)
        if row is not None:
            self._rows.move_to_end(v)
            return int(row[u])
        return int(self._ensure_row(u)[v])

    def _ensure_row(self, s: int):
        row = self._rows.get(s)
        if row is not None:
            self._rows.move_to_end(s)
            return row
        row = self._bfs_padded(s) if self._padded else self._bfs_python(s)
        self._rows[s] = row
        if len(self._rows) > self._max_rows:
            self._rows.popitem(last=False)
        return row

    def _bfs_python(self, s: int) -> list[int]:
        dist = [-1] * self.n
        dist[s] = 0
        queue = deque([s])
        adj = self.hidden.adj
        while queue:
            x = queue.popleft()
            dx = dist[x] + 1
            for w in adj[x]:
                if dist[w] < 0:
                    dist[w] = dx
                    queue.append(w)
        return dist

    def _bfs_padded(self, s: int) -> np.ndarray:
        pad = self._pad_adj
        claim = self._claim
        dist = np.full(self.n, -1, dtype=np.int32)
        dist[s] = 0
        frontier = np.array([s], dtype=np.int64)
        d = 0
        while frontier.size:
            cand = pad[frontier].reshape(-1)
            fresh = cand[dist[cand] < 0]
            if fresh.size == 0:
                break
            # Deduplicate without sorting: last writer wins, and every read
            # position was written in this level, so stale values are inert.
            order = np.arange(fresh.size, dtype=np.int64)
            claim[fresh] = order
            frontier = fresh[claim[fresh] == order]
            d += 1
            dist[frontier] = d
        return dist
