"""Shortest-path distance oracle over a hidden graph, with query accounting.

The oracle answers d(u, v) exactly and charges one distinct-query credit per
unordered pair, no matter how often the pair is re-asked. Every charged query
is attributed to a phase so budgets can be checked per algorithm stage.

The hidden side runs one level-by-level BFS that stops early and resumes:
each kept row is a ball that keeps its last level (its frontier), and a
batch or a single query that the ball does not answer grows it from that
frontier only until it holds every vertex asked for. Only single queries
start kept rows; a batch from a source without one grows a throwaway ball.
Rows are memoized per source under a fixed memory budget. A batch charges
its uncached answers in one pass, with accounting identical to a query per
target. Answered pairs are cached under the int key u * n + v, u < v.

One oracle serves one reconstruction run; concurrent runs each get their own.
"""

from __future__ import annotations

import io
from array import array
from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum
from operator import index
from typing import Iterable

from .graph import Graph, is_connected

# Memory budget for memoized per-source distance rows; answers stay exact
# under eviction, only recomputation cost is affected. A dense row costs 4
# bytes per vertex and per vertex of its kept frontier, a sparse one about
# 64 bytes per entry.
_ROW_CACHE_BYTES = 128 << 20
_SPARSE_ENTRY_BYTES = 64


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
    """Hidden-side work: balls started from a bare source into the row
    cache, balls grown further from a kept frontier, throwaway balls grown
    for a batch and never cached, vertices all those growths reached (each
    source included), and rows evicted from the row cache."""

    balls_started: int = 0
    balls_resumed: int = 0
    balls_transient: int = 0
    visited: int = 0
    evicted: int = 0


class DistanceOracle:
    """Simulates shortest-path distance queries against a hidden graph.

    Answers are memoized per unordered pair. Distances come from per-source
    rows (never a precomputed all-pairs table). A row is a BFS ball around
    its source: exact for every vertex it holds and holding every vertex up
    to its radius; a complete row holds the whole graph. Rows smaller than
    n/16 are dicts, larger ones int arrays with -1 beyond the radius. A ball
    that is not complete keeps its frontier, the vertices at its radius, so
    growing it further resumes there and never restarts from the source: a
    dict row holds its vertices in BFS order, so its frontier is its tail,
    and an incomplete array row stores its radius, its vertex count and its
    frontier after its n distances.

    query(u, v) answers from u's row, else grows u's ball until it holds v;
    it never reads v's row, so callers that reuse one endpoint across many
    queries should pass it first. batch_distances_from(s, ...) grows s's
    ball only as far as its farthest uncached target and charges the batch
    in one pass; its ledger, log and answers equal those of query(s, t) per
    target.
    It resumes s's row if s has one; otherwise the ball grows in a dense
    list that is dropped after the batch, as most batch sources are never
    asked again, so only single queries add rows to the cache. Where query
    is overridden (a subclass, a wrapper), a batch keeps s's ball as a row
    and the override sees every target.
    `stats` counts the BFS work behind the answers.
    """

    def __init__(self, hidden: Graph, log_queries: bool = False):
        if hidden.n < 1:
            raise ValueError("hidden graph must have at least one vertex")
        if not is_connected(hidden):
            raise ValueError("hidden graph must be connected")
        self.hidden = hidden
        self.n = hidden.n
        self.ledger = QueryLedger(log=[] if log_queries else None)
        self._pair_cache: dict[int, int] = {}  # key u * n + v, u < v
        self._rows: OrderedDict[int, dict[int, int] | array] = OrderedDict()
        self._row_bytes = 0
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
        key = u * n + v if u < v else v * n + u
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
        """Distances from s to each target, in first-seen target order.

        Accounting is identical to calling query(s, t) for each distinct
        target in order; the hidden side grows s's ball once, only as far
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
        cache = self._pair_cache
        sn = s * n
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
            key = sn + t if s < t else t * n + s
            d = cache.get(key)
            if d is None:
                want.append(t)
            out[t] = d  # a placeholder keeps t's place until it is charged
        if type(self).query is not _OWN_QUERY:
            # an overriding query (a subclass's or a wrapper) sees each target
            if want:
                self._grow(s, want)
            return {t: self.query(s, t, phase) for t in out}
        if want:
            row = self._grow(s, want, transient=True)
        ledger = self.ledger
        ledger.raw_calls += len(out)
        log, value = ledger.log, phase.value
        for t in want:
            out[t] = cache[sn + t if s < t else t * n + s] = d = row[t]
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
        row = self._rows.get(u)
        if row is not None:
            d = _held(row, v)
            if d >= 0:
                self._rows.move_to_end(u)
                return d
        return self._grow(u, [v])[v]

    def _grow(
        self, s: int, want: list[int], transient: bool = False
    ) -> dict[int, int] | array | list[int]:
        """s's row, grown level by level from its kept frontier (from s if it
        has no row) out to the first level that holds every vertex of want.

        The row becomes the most recently used; then least recently used
        rows are evicted while the cache is over its budget. If s has no row
        and transient is set, the ball grows in a dense list that is returned
        without entering the cache.
        """
        rows, stats, n = self._rows, self.stats, self.n
        row = rows.get(s)
        if row is None:
            if transient:
                row = [-1] * n
                row[s] = 0
                stats.balls_transient += 1
            else:
                row = {s: 0}
                stats.balls_started += 1
            frontier, d, held, start = [s], 0, 1, 0
        else:
            rows.move_to_end(s)
            if all(_held(row, t) >= 0 for t in want):
                return row
            self._row_bytes -= _row_bytes(row)
            if type(row) is dict:  # in BFS order: the frontier is the tail
                d, held = next(reversed(row.values())), len(row)
                frontier = []
                for v in reversed(row):
                    if row[v] < d:
                        break
                    frontier.append(v)
            else:  # radius, vertex count and frontier follow the distances
                d, held = row[n], row[n + 1]
                frontier = row[n + 2:]
                del row[n:]
            start = held
            stats.balls_resumed += 1
        adj = self.hidden.adj
        pending = want[:]
        while frontier:
            while pending and _held(row, pending[-1]) >= 0:
                pending.pop()
            if not pending:
                break
            d += 1
            nxt = []
            if type(row) is dict:
                for x in frontier:
                    for w in adj[x]:
                        if w not in row:
                            row[w] = d
                            nxt.append(w)
                if 16 * len(row) >= n:
                    dense = array("i", [-1]) * n
                    for v, dv in row.items():
                        dense[v] = dv
                    row = dense
            else:
                for x in frontier:
                    for w in adj[x]:
                        if row[w] < 0:
                            row[w] = d
                            nxt.append(w)
            held += len(nxt)
            frontier = nxt
        stats.visited += held - start
        if type(row) is list:
            return row
        rows[s] = row
        if held < n and type(row) is not dict:
            row.extend((d, held, *frontier))
        self._row_bytes += _row_bytes(row)
        while self._row_bytes > _ROW_CACHE_BYTES and len(rows) > 1:
            _, old = rows.popitem(last=False)
            self._row_bytes -= _row_bytes(old)
            stats.evicted += 1
        return row


_OWN_QUERY = DistanceOracle.query  # batches charge in one pass only under it


def _phase_error(phase: object) -> TypeError:
    return TypeError(f"phase must be a QueryPhase, got {phase!r}")


def _ints(*xs: object) -> tuple[int, ...]:
    """xs as ints; int-like values such as numpy integers convert."""
    try:
        return tuple(map(index, xs))
    except TypeError:
        raise TypeError(f"vertices ({', '.join(map(repr, xs))}) must be integers") from None


def _held(row: dict[int, int] | array | list[int], v: int) -> int:
    """Distance to v if the row holds v, else -1."""
    return row.get(v, -1) if type(row) is dict else row[v]


def _row_bytes(row: dict[int, int] | array) -> int:
    if type(row) is dict:
        return _SPARSE_ENTRY_BYTES * len(row)
    return row.itemsize * len(row)
