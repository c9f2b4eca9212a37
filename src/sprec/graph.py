"""Simple undirected graphs over dense vertex ids 0..n-1.

Graphs are canonical (sorted adjacency, no loops or parallel edges) and
immutable once constructed, so equality is exact and instances can be shared
freely across threads. GraphBuilder is the single-owner mutable companion for
algorithms that discover edges incrementally.
"""

from __future__ import annotations

from collections import deque
from operator import index
from typing import Iterable, Iterator

UNREACHABLE = -1


class EdgeListParseError(ValueError):
    """Malformed edge-list text; the message names the offending line."""


def as_integer(name: str, value: object) -> int:
    try:
        return index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


class Graph:
    """Immutable simple undirected graph with sorted adjacency lists."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self.adj = _freeze(adj)

    @property
    def m(self) -> int:
        return sum(len(a) for a in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in self.adj[u]:
                if v > u:
                    yield (u, v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class GraphBuilder:
    """Mutable adjacency accumulator; freeze with to_graph().

    Not thread safe; one run owns it. Rows are exact-size tuples, one longer per edge; to_graph()
    sorts them into the graph's tuples, so it comes last, once; an edge added twice raises.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int):
        self.n = n
        self.adj: list[tuple[int, ...]] = [()] * n

    def add_edge(self, u: int, v: int) -> None:
        for w in (u, v):
            if not 0 <= w < self.n:
                raise ValueError(f"vertex {w} out of range for n={self.n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        self.adj[u] += (v,)
        self.adj[v] += (u,)

    def to_graph(self) -> Graph:
        for u, a in enumerate(self.adj):  # one row at a time, the form _freeze sorts in place
            self.adj[u] = sorted(a)
        g = Graph.__new__(Graph)
        g.n, g.adj = self.n, _freeze(self.adj)
        return g


def _freeze(adj: list) -> tuple[tuple[int, ...], ...]:
    """Sort each list and swap it for its tuple in place; name the least repeated pair."""
    for u, a in enumerate(adj):
        a.sort()
        adj[u] = tuple(a)  # one list at a time, so no second copy of them all is held
    if sum(map(len, map(set, adj))) != sum(map(len, adj)):
        u, v = next((u, x) for u, a in enumerate(adj) for x, y in zip(a, a[1:]) if x == y)
        raise ValueError(f"duplicate edge ({u},{v})")
    return tuple(adj)


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
