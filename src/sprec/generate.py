"""Seeded families of connected bounded-degree graphs.

All randomness flows through SplitMix64, a fixed 64-bit counter-based
generator, so a (family, parameters, seed) triple produces a bit-identical
graph on every platform and run. randrange(bound) keeps a draw below the
largest multiple of bound that fits in 64 bits, and works that multiple out
only for a draw above 2**64 - bound, as no lower one can reach it. A k-tree
holds its k-cliques as ascending tuples: each new vertex exceeds all before
it, so dropping one vertex of a clique and appending the new one needs no
sort. generate returns each graph with its known treelength bound: one for
the chordal families (trees, k-trees, small clique rings), None for the
others, where the harness measures the layering-tree length of the concrete
instance instead.

Generation is a pure function of the spec; specs can be expanded in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, as_integer, max_degree

RANDOM_TREE = "random-tree"
KTREE = "ktree"
RING_OF_CLIQUES = "ring-of-cliques"
CYCLE = "cycle"
CATERPILLAR = "caterpillar"
BOUNDED_DEGREE_CONNECTED = "bounded-degree-connected"

_MASK64 = (1 << 64) - 1


class InfeasibleSpecError(ValueError):
    """The requested family parameters cannot produce a valid graph."""


class SplitMix64:
    """SplitMix64: 64-bit state advanced by a fixed odd constant, then mixed.

    Chosen for reproducibility: the sequence is defined by the algorithm
    alone, independent of platform, word size, or library version.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, bound: int) -> int:
        """Uniform integer in [0, bound), bound <= 2**64, unbiased via rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound > 1 << 64:
            raise ValueError("bound must be at most 2**64")
        while True:
            r = self.next_u64()
            if r <= (1 << 64) - bound or r < (1 << 64) - (1 << 64) % bound:
                return r % bound


@dataclass(frozen=True)
class FamilySpec:
    """Family name, size, degree cap, family parameters, and seed."""

    family: str
    n: int
    max_degree: int
    k: int | None = None
    clique_size: int | None = None
    seed: int = 0

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise InfeasibleSpecError(
                f"unknown family {self.family!r}; choose from {FAMILIES}"
            )
        n, cap = as_integer("n", self.n), as_integer("max_degree", self.max_degree)
        as_integer("seed", self.seed)
        for name in ("k", "clique_size"):
            if (value := getattr(self, name)) is not None:
                as_integer(name, value)
        if n < 1:
            raise InfeasibleSpecError("n must be at least 1")
        if cap < 0:
            raise InfeasibleSpecError("max_degree must be nonnegative")


def generate(spec: FamilySpec) -> tuple[Graph, int | None]:
    """Build the graph for a spec, with its known treelength bound or None."""
    spec.validate()
    return _BUILDERS[spec.family](spec, SplitMix64(spec.seed))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InfeasibleSpecError(message)


def _random_tree_edges(
    n: int, cap: int, rng: SplitMix64
) -> tuple[list[tuple[int, int]], list[int]]:
    edges: list[tuple[int, int]] = []
    degree = [0] * n
    eligible = [0]
    for v in range(1, n):
        idx = rng.randrange(len(eligible))
        u = eligible[idx]
        edges.append((u, v))
        degree[u] += 1
        degree[v] += 1
        if degree[u] >= cap:
            eligible[idx] = eligible[-1]
            eligible.pop()
        if degree[v] < cap:
            eligible.append(v)
    return edges, degree


def _random_tree(spec: FamilySpec, rng: SplitMix64) -> tuple[Graph, int | None]:
    n, cap = spec.n, spec.max_degree
    _require(n == 1 or cap >= 1, "a tree with n >= 2 needs max_degree >= 1")
    _require(n <= 2 or cap >= 2, "a tree with n >= 3 needs max_degree >= 2")
    return Graph(n, _random_tree_edges(n, cap, rng)[0]), 1


def _ktree(spec: FamilySpec, rng: SplitMix64) -> tuple[Graph, int | None]:
    n, cap, k = spec.n, spec.max_degree, spec.k
    _require(k is not None and k >= 1, "ktree needs parameter k >= 1")
    _require(n >= k + 1, f"ktree with k={k} needs n >= {k + 1}")
    _require(cap >= k + 1, f"ktree attachment needs max_degree >= k + 1 = {k + 1}")
    base = list(range(k + 1))
    edges = [(u, v) for ui, u in enumerate(base) for v in base[ui + 1 :]]
    degree = [k] * (k + 1) + [0] * (n - k - 1)
    cliques: list[tuple[int, ...]] = [
        tuple(c for c in base if c != skip) for skip in base
    ]
    degree_of = degree.__getitem__
    for v in range(k + 1, n):
        chosen = None
        for _ in range(64):
            cand = cliques[rng.randrange(len(cliques))]
            if max(map(degree_of, cand)) < cap:
                chosen = cand
                break
        if chosen is None:
            for cand in cliques:
                if max(map(degree_of, cand)) < cap:
                    chosen = cand
                    break
            else:
                raise InfeasibleSpecError("no attachable clique respects the degree cap")
        for c in chosen:
            edges.append((c, v))
            degree[c] += 1
        degree[v] = k
        for i in range(k):  # ascending, as v exceeds all of chosen
            cliques.append((*chosen[:i], *chosen[i + 1 :], v))
    return Graph(n, edges), 1


def _ring_of_cliques(spec: FamilySpec, rng: SplitMix64) -> tuple[Graph, int | None]:
    n, cap, c = spec.n, spec.max_degree, spec.clique_size
    _require(c is not None and c >= 1, "ring-of-cliques needs clique_size >= 1")
    _require(n % c == 0, f"n={n} is not a multiple of clique_size={c}")
    m = n // c
    edges: list[tuple[int, int]] = []
    for j in range(m):
        block = range(j * c, (j + 1) * c)
        edges.extend((u, v) for ui, u in enumerate(block) for v in block[ui + 1 :])
    if m == 2:
        edges.append((c - 1, c))
    elif m >= 3:
        for j in range(m):
            edges.append((j * c + c - 1, ((j + 1) % m) * c))
    g = Graph(n, edges)
    _require(
        max_degree(g) <= cap,
        f"ring of {m} cliques of size {c} has degree {max_degree(g)} > cap {cap}",
    )
    return g, 1 if m <= 2 else None


def _cycle(spec: FamilySpec, rng: SplitMix64) -> tuple[Graph, int | None]:
    n, cap = spec.n, spec.max_degree
    _require(n >= 3, "a cycle needs n >= 3")
    _require(cap >= 2, "a cycle needs max_degree >= 2")
    edges = [(v, (v + 1) % n) for v in range(n)]
    return Graph(n, edges), None


def _caterpillar(spec: FamilySpec, rng: SplitMix64) -> tuple[Graph, int | None]:
    n, cap = spec.n, spec.max_degree
    _require(n == 1 or cap >= 1, "a caterpillar with n >= 2 needs max_degree >= 1")
    _require(n <= 2 or cap >= 2, "a caterpillar with n >= 3 needs max_degree >= 2")
    if n <= 3 or cap == 2:
        return Graph(n, [(v, v + 1) for v in range(n - 1)]), 1
    spine = 2
    while 2 * (cap - 1) + (spine - 2) * (cap - 2) < n - spine:
        spine += 1
    edges = [(v, v + 1) for v in range(spine - 1)]
    slack = [cap - 1 if v in (0, spine - 1) else cap - 2 for v in range(spine)]
    open_slots = [v for v in range(spine) if slack[v] > 0]
    for leaf in range(spine, n):
        idx = rng.randrange(len(open_slots))
        host = open_slots[idx]
        edges.append((host, leaf))
        slack[host] -= 1
        if slack[host] == 0:
            open_slots[idx] = open_slots[-1]
            open_slots.pop()
    return Graph(n, edges), 1


def _bounded_degree_connected(
    spec: FamilySpec, rng: SplitMix64
) -> tuple[Graph, int | None]:
    n, cap = spec.n, spec.max_degree
    _require(n == 1 or cap >= 1, "a connected graph with n >= 2 needs max_degree >= 1")
    _require(n <= 2 or cap >= 2, "a connected graph with n >= 3 needs max_degree >= 2")
    edges, degree = _random_tree_edges(n, cap, rng)
    present = {(u, v) if u < v else (v, u) for u, v in edges}
    for _ in range(2 * n):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in present or degree[u] >= cap or degree[v] >= cap:
            continue
        present.add(key)
        edges.append(key)
        degree[u] += 1
        degree[v] += 1
    return Graph(n, edges), None


# Family name -> builder; its order is the order of FAMILIES.
_BUILDERS = {
    RANDOM_TREE: _random_tree,
    KTREE: _ktree,
    RING_OF_CLIQUES: _ring_of_cliques,
    CYCLE: _cycle,
    CATERPILLAR: _caterpillar,
    BOUNDED_DEGREE_CONNECTED: _bounded_degree_connected,
}
FAMILIES = tuple(_BUILDERS)
