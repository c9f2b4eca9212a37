"""Baselines and structural checks that only the tests use.

reconstruct_naive is the all-pairs reconstruction that acceptance criterion
5 compares `reconstruct` against; the chordality test and the family
invariant check confirm what the generators promise.
"""

from __future__ import annotations

from sprec.generate import (
    CATERPILLAR,
    CYCLE,
    KTREE,
    RANDOM_TREE,
    RING_OF_CLIQUES,
    FamilySpec,
)
from sprec.graph import Graph, GraphBuilder, is_connected, max_degree
from sprec.oracle import DistanceOracle, QueryPhase


def reconstruct_naive(oracle: DistanceOracle) -> Graph:
    """Query every unordered pair; edge iff distance one."""
    n = oracle.n
    builder = GraphBuilder(n)
    for u in range(n - 1):
        for v, d in oracle.batch_distances_from(
            u, range(u + 1, n), QueryPhase.BASELINE
        ).items():
            if d == 1:
                builder.add_edge(u, v)
    return builder.to_graph()


def perfect_elimination_ordering(g: Graph) -> list[int] | None:
    """PEO via maximum cardinality search, or None if the graph has none.

    MCS picks an unnumbered vertex with the most numbered neighbors (ties to
    the smallest id); the reverse visit order is a perfect elimination
    ordering exactly when the graph is chordal, which the second pass checks.
    """
    n = g.n
    if n == 0:
        return []
    weight = [0] * n
    numbered = [False] * n
    visit: list[int] = []
    for _ in range(n):
        best = -1
        for v in range(n):
            if not numbered[v] and (best < 0 or weight[v] > weight[best]):
                best = v
        numbered[best] = True
        visit.append(best)
        for w in g.adj[best]:
            if not numbered[w]:
                weight[w] += 1
    order = visit[::-1]
    pos = [0] * n
    for p, v in enumerate(order):
        pos[v] = p
    neighbor_sets = [set(a) for a in g.adj]
    for v in order:
        later = [w for w in g.adj[v] if pos[w] > pos[v]]
        if not later:
            continue
        u = min(later, key=lambda w: pos[w])
        rest = set(later) - {u}
        if not rest <= neighbor_sets[u]:
            return None
    return order


def is_chordal(g: Graph) -> bool:
    return perfect_elimination_ordering(g) is not None


def verify_family_invariants(g: Graph, spec: FamilySpec) -> list[str]:
    """Check a graph against its spec; returns a list of violations (empty = ok)."""
    violations: list[str] = []
    if g.n != spec.n:
        violations.append(f"vertex count {g.n} != spec n {spec.n}")
    if not is_connected(g):
        violations.append("graph is not connected")
    if max_degree(g) > spec.max_degree:
        violations.append(
            f"max degree {max_degree(g)} exceeds cap {spec.max_degree}"
        )
    fam = spec.family
    if fam in (RANDOM_TREE, CATERPILLAR):
        if g.m != g.n - 1:
            violations.append(f"tree family has {g.m} edges, expected {g.n - 1}")
        if fam == CATERPILLAR and g.n >= 2 and g.m == g.n - 1:
            leaves = {v for v in range(g.n) if len(g.adj[v]) == 1}
            spine = [v for v in range(g.n) if v not in leaves]
            if spine:
                spine_set = set(spine)
                inner_deg = [sum(1 for w in g.adj[v] if w in spine_set) for v in spine]
                if any(d > 2 for d in inner_deg) or sum(
                    1 for d in inner_deg if d <= 1
                ) > 2:
                    violations.append("non-leaf vertices do not form a path")
    elif fam == KTREE:
        k = spec.k or 0
        expected = k * (k + 1) // 2 + (g.n - k - 1) * k
        if g.m != expected:
            violations.append(f"ktree has {g.m} edges, expected {expected}")
        if not is_chordal(g):
            violations.append("ktree instance is not chordal")
    elif fam == CYCLE:
        if g.m != g.n or any(len(a) != 2 for a in g.adj):
            violations.append("cycle instance is not 2-regular")
    elif fam == RING_OF_CLIQUES:
        c = spec.clique_size or 0
        if c >= 1 and g.n % c == 0:
            m = g.n // c
            for j in range(m):
                block = list(range(j * c, (j + 1) * c))
                for ui, u in enumerate(block):
                    for v in block[ui + 1 :]:
                        if v not in g.adj[u]:
                            violations.append(f"missing clique edge ({u},{v})")
            if m <= 2 and not is_chordal(g):
                violations.append("small clique ring should be chordal")
        else:
            violations.append(f"n={g.n} incompatible with clique_size={c}")
    return violations
