"""Simple undirected graphs over dense vertex ids 0..n-1.

Graphs are canonical (sorted adjacency, no loops or parallel edges) and
immutable once constructed, so equality is exact and instances can be shared
freely across threads. GraphBuilder is the single-owner mutable companion for
algorithms that discover edges incrementally.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator

UNREACHABLE = -1


class EdgeListParseError(ValueError):
    """Malformed edge-list text; the message names the offending line."""


class Graph:
    """Immutable simple undirected graph with sorted adjacency lists."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj: list[list[int]] = [[] for _ in range(n)]
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({key[0]},{key[1]})")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(a)) for a in adj
        )

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if v > u:
                    yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        a = self.adj[u]
        if len(a) > 8:
            lo, hi = 0, len(a)
            while lo < hi:
                mid = (lo + hi) // 2
                if a[mid] < v:
                    lo = mid + 1
                else:
                    hi = mid
            return lo < len(a) and a[lo] == v
        return v in a

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class GraphBuilder:
    """Mutable adjacency accumulator; freeze with to_graph().

    Not thread safe; owned by a single reconstruction run. The caller is
    responsible for not adding an edge twice (to_graph() re-validates).
    """

    __slots__ = ("n", "adj", "_edges")

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self._edges: list[tuple[int, int]] = []

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        self.adj[u].append(v)
        self.adj[v].append(u)
        self._edges.append((u, v) if u < v else (v, u))

    def to_graph(self) -> Graph:
        return Graph(self.n, self._edges)


GraphLike = Graph | GraphBuilder


def graphs_equal(a: Graph, b: Graph) -> bool:
    """Exact edge-set equality on the canonical form."""
    return a.n == b.n and a.adj == b.adj


def max_degree(g: GraphLike) -> int:
    if g.n == 0:
        return 0
    return max(len(a) for a in g.adj)


def bfs_distances(g: GraphLike, s: int) -> list[int]:
    """BFS depth of every vertex from s; UNREACHABLE for other components."""
    if not 0 <= s < g.n:
        raise ValueError(f"source {s} out of range for n={g.n}")
    dist = [UNREACHABLE] * g.n
    dist[s] = 0
    queue = deque([s])
    adj = g.adj
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for w in adj[u]:
            if dist[w] == UNREACHABLE:
                dist[w] = du
                queue.append(w)
    return dist


def is_connected(g: GraphLike) -> bool:
    if g.n <= 1:
        return True
    return UNREACHABLE not in bfs_distances(g, 0)


def components_masked(g: GraphLike, alive: Iterable[int]) -> dict[int, int]:
    """Component label for each vertex of g restricted to `alive`.

    Two alive vertices get the same label iff they are connected in the
    induced subgraph. Labels are the minimum vertex id of each component,
    which makes them reproducible across runs.
    """
    alive_set = set(alive)
    labels: dict[int, int] = {}
    adj = g.adj
    for v in sorted(alive_set):
        if v in labels:
            continue
        # v is the minimum id of its component: smaller alive ids are done.
        labels[v] = v
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w in alive_set and w not in labels:
                    labels[w] = v
                    queue.append(w)
    return labels


def neighbors_of_set(g: GraphLike, vertices: Iterable[int]) -> set[int]:
    """Open neighborhood: vertices outside the set adjacent to it."""
    inside = set(vertices)
    out: set[int] = set()
    adj = g.adj
    for v in inside:
        out.update(adj[v])
    return out - inside


def read_edge_list(text: str) -> Graph:
    """Parse "n m" header plus m "u v" lines (0-based, '#' comments allowed)."""
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    data_lines = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise EdgeListParseError(f"expected 'n m' header at line {lineno}")
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise EdgeListParseError(
                    f"non-integer header field at line {lineno}"
                ) from None
            if n < 0 or m < 0:
                raise EdgeListParseError(f"negative header value at line {lineno}")
            header = (n, m)
            continue
        n, m = header
        data_lines += 1
        if data_lines > m:
            raise EdgeListParseError(
                f"more than {m} edges; unexpected line {lineno}"
            )
        if len(fields) != 2:
            raise EdgeListParseError(f"expected 'u v' at line {lineno}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListParseError(
                f"non-integer vertex at line {lineno}"
            ) from None
        if u == v:
            raise EdgeListParseError(f"self-loop at line {lineno}")
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListParseError(
                f"vertex out of range [0,{n}) at line {lineno}"
            )
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise EdgeListParseError(f"duplicate edge at line {lineno}")
        seen.add(key)
        edges.append(key)
    if header is None:
        raise EdgeListParseError("missing 'n m' header")
    if data_lines < header[1]:
        raise EdgeListParseError(
            f"expected {header[1]} edges, found {data_lines}"
        )
    return Graph(header[0], edges)


def write_edge_list(g: Graph) -> str:
    """Canonical text form; read_edge_list(write_edge_list(g)) == g."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
