import random

import pytest

from sprec import (
    BudgetExceeded,
    CATERPILLAR,
    DistanceOracle,
    FamilySpec,
    Graph,
    LayeringTree,
    QueryPhase,
    RANDOM_TREE,
    RING_OF_CLIQUES,
    ReconstructionConfig,
    ReconstructionError,
    build_layering,
    build_layering_tree,
    generate,
    graphs_equal,
    max_degree,
    reconstruct,
    reconstruct_naive,
    tree_length,
)
from sprec.reconstruct import _AncestorSearch, _grow_tree

from .conftest import brute_anc, capped_tree, prefix_graph, random_graph


def path(n):
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def cycle(n):
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def ceil_log2(n):
    return (n - 1).bit_length()


class TestConfig:
    def test_effective_bound_from_tau(self):
        assert ReconstructionConfig(tau=2).effective_ell == 6

    def test_override_wins(self):
        assert ReconstructionConfig(tau=2, ell=1).effective_ell == 1

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            ReconstructionConfig(tau=0).validate()

    def test_rejects_negative_ell(self):
        with pytest.raises(ValueError):
            ReconstructionConfig(ell=-1).validate()

    def test_strict_needs_max_degree(self):
        with pytest.raises(ValueError, match="max_degree"):
            ReconstructionConfig(strict_budget=True).validate()

    def test_zero_max_degree_fails_fast_beyond_one_vertex(self):
        cfg = ReconstructionConfig(strict_budget=True, max_degree=0)
        res = reconstruct(DistanceOracle(Graph(1)), cfg)
        assert res.graph == Graph(1) and res.ledger.distinct_queries == 0
        with pytest.raises(BudgetExceeded, match="bootstrap"):
            reconstruct(DistanceOracle(path(3)), cfg)


class TestKnownPrefix:
    def test_from_graph_keeps_only_shallow_edges(self):
        g = cycle(6)
        lay = build_layering(g, 0)
        prefix = prefix_graph(g, lay, 3)
        assert sorted(prefix.edges()) == [(0, 1), (0, 5), (1, 2), (4, 5)]


class TestFindAncestorPart:
    def test_single_capped_part_needs_no_queries(self):
        g = path(8)
        lay = build_layering(g, 0)
        k, i = 2, 4
        tree = capped_tree(g, lay, k, 0)
        o = DistanceOracle(g)
        pid, cost, rounds = _AncestorSearch(tree, prefix_graph(g, lay, i)).locate(4, o)
        assert tree.parts[pid].vertices == (2,)
        assert cost == rounds == o.ledger.distinct_queries == 0

    def test_matches_brute_force_on_500_random_instances(self):
        rng = random.Random(500)
        checked = 0
        for trial in range(500):
            if trial % 2 == 0:
                g, _ = generate(
                    FamilySpec(CATERPILLAR, rng.randint(8, 36), 4, seed=trial)
                )
            else:
                g = random_graph(rng, rng.randint(8, 36), rng.randint(0, 6))
            lay = build_layering(g, 0)
            full = build_layering_tree(g, lay)
            ell = tree_length(g, full)
            o = DistanceOracle(g)
            tree = LayeringTree(g.n)
            for k in range(0, lay.num_layers - ell - 2):
                i = k + ell + 2
                _grow_tree(tree, lay, g, k, ell)
                search = _AncestorSearch(tree, prefix_graph(g, lay, i))
                for x in lay.layers[i]:
                    pid, _, _ = search.locate(x, o)
                    expect = brute_anc(g, lay.depth, x, k)
                    assert frozenset(tree.parts[pid].vertices) == expect
                    checked += 1
        assert checked > 1000

    def test_strict_budget_accepts_valid_runs(self):
        g, _ = generate(FamilySpec(CATERPILLAR, 40, 4, seed=3))
        cfg = ReconstructionConfig(ell=0, strict_budget=True, max_degree=4)
        res = reconstruct(DistanceOracle(g), cfg)
        assert graphs_equal(res.graph, g)
        assert res.trace
        limit = 4 ** 2 * ceil_log2(g.n)
        assert all(row.max_ancestor_call_queries <= limit for row in res.trace)

    def test_pivot_descent_halves_the_part_set(self):
        rng = random.Random(88)
        for trial in range(20):
            g, _ = generate(FamilySpec(RANDOM_TREE, rng.randint(20, 80), 4, seed=trial))
            lay = build_layering(g, 0)
            ell = 0
            k = lay.num_layers - ell - 3
            if k < 1:
                continue
            i = k + ell + 2
            tree = capped_tree(g, lay, k, ell)
            search = _AncestorSearch(tree, prefix_graph(g, lay, i))
            o = DistanceOracle(g)
            for x in lay.layers[i]:
                search.locate(x, o)
            # every materialized split leaves components of at most half
            stack = [search._root]
            while stack:
                node = stack.pop()
                if node.child_by_part is None:
                    continue
                kids = {id(c): c for c in node.child_by_part.values()}
                for child in kids.values():
                    assert len(child.part_ids) <= len(node.part_ids) // 2
                    stack.append(child)


class TestExtendOneLayer:
    @staticmethod
    def measured_ell(g):
        return tree_length(g, build_layering_tree(g, build_layering(g, 0)))

    def test_path_finds_the_single_edge(self):
        g = path(10)
        res = reconstruct(DistanceOracle(g), ReconstructionConfig(ell=0))
        assert graphs_equal(res.graph, g)
        # layer i adds only the edge (i - 1, i), found with one query
        assert [row.layer for row in res.trace] == list(range(2, 10))
        assert all(row.neighbor_queries == 1 for row in res.trace)

    def test_prefix_soundness_chain(self):
        rng = random.Random(77)
        for _ in range(25):
            n = rng.randint(6, 40)
            g = random_graph(rng, n, rng.randint(0, n // 2))
            ell = self.measured_ell(g)
            res = reconstruct(DistanceOracle(g), ReconstructionConfig(ell=ell))
            assert graphs_equal(res.graph, g)

    def test_edges_match_hidden_on_500_instances(self):
        rng = random.Random(1234)
        done = 0
        for trial in range(500):
            kind = trial % 3
            if kind == 0:
                g, _ = generate(FamilySpec(RANDOM_TREE, rng.randint(10, 40), 4, seed=trial))
            elif kind == 1:
                g, _ = generate(FamilySpec(CATERPILLAR, rng.randint(10, 40), 5, seed=trial))
            else:
                g = random_graph(rng, rng.randint(10, 40), rng.randint(0, 5))
            ell = self.measured_ell(g)
            res = reconstruct(DistanceOracle(g), ReconstructionConfig(ell=ell))
            assert graphs_equal(res.graph, g)
            if res.trace:
                done += 1
        assert done >= 400  # a few instances are shallow enough to skip

    def test_ring_of_cliques_is_covered_by_bootstrap(self):
        # With the measured diameter bound, a clique ring's layer count never
        # exceeds bound + 2, so the layer loop is unreachable and the whole
        # ring is reconstructed by the bootstrap scan alone.
        for (c, m, seed) in ((1, 6, 0), (3, 5, 1), (4, 8, 2)):
            g, _ = generate(
                FamilySpec(RING_OF_CLIQUES, c * m, max(2, c + 1), clique_size=c, seed=seed)
            )
            lay = build_layering(g, 0)
            ell = tree_length(g, build_layering_tree(g, lay))
            assert lay.num_layers <= ell + 2
            res = reconstruct(DistanceOracle(g), ReconstructionConfig(ell=ell))
            assert graphs_equal(res.graph, g)
            assert res.trace == ()


class TestReconstruct:
    def test_p10_exact(self):
        g = path(10)
        o = DistanceOracle(g)
        res = reconstruct(o, ReconstructionConfig(tau=1))
        assert graphs_equal(res.graph, g)
        assert res.ledger.per_phase[QueryPhase.ROOT_BFS] == 9

    def test_k4_bootstrap_only(self):
        k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        o = DistanceOracle(k4)
        res = reconstruct(o, ReconstructionConfig(tau=1))
        assert graphs_equal(res.graph, k4)
        assert res.ledger.per_phase[QueryPhase.ANCESTOR_SEARCH] == 0
        assert res.ledger.per_phase[QueryPhase.NEIGHBOR_SEARCH] == 0
        assert res.trace == ()

    def test_c6_bootstrap_covers_everything(self):
        o = DistanceOracle(cycle(6))
        res = reconstruct(o, ReconstructionConfig(ell=2))
        assert graphs_equal(res.graph, cycle(6))
        assert res.trace == ()

    def test_single_vertex_and_edge(self):
        res1 = reconstruct(DistanceOracle(Graph(1)))
        assert res1.graph == Graph(1)
        assert res1.ledger.distinct_queries == 0
        res2 = reconstruct(DistanceOracle(Graph(2, [(0, 1)])))
        assert res2.graph == Graph(2, [(0, 1)])
        assert res2.ledger.distinct_queries == 1

    def test_families_with_strict_budget(self):
        rng = random.Random(6)
        for trial in range(30):
            g, _ = generate(
                FamilySpec(RANDOM_TREE, rng.randint(8, 120), 4, seed=trial)
            )
            o = DistanceOracle(g)
            res = reconstruct(
                o,
                ReconstructionConfig(
                    tau=1, strict_budget=True, max_degree=max_degree(g)
                ),
            )
            assert graphs_equal(res.graph, g)

    def test_underestimated_bound_is_caught_or_wrong(self):
        # ring long enough that its parts outgrow the assumed window
        g = cycle(16)
        o = DistanceOracle(g)
        try:
            res = reconstruct(o, ReconstructionConfig(tau=1))
        except ReconstructionError:
            return
        assert not graphs_equal(res.graph, g)

    def test_result_is_reproducible(self):
        g, _ = generate(FamilySpec(RANDOM_TREE, 90, 4, seed=17))
        runs = []
        for _ in range(2):
            res = reconstruct(DistanceOracle(g), ReconstructionConfig(tau=1))
            runs.append(res)
        assert graphs_equal(runs[0].graph, runs[1].graph)
        assert runs[0].ledger.distinct_queries == runs[1].ledger.distinct_queries
        assert runs[0].ledger.per_phase == runs[1].ledger.per_phase
        assert runs[0].trace == runs[1].trace


class TestBudgets:
    @staticmethod
    def run(g, tau=1, ell=None):
        o = DistanceOracle(g)
        cfg = ReconstructionConfig(
            tau=tau, ell=ell, strict_budget=True, max_degree=max_degree(g)
        )
        return reconstruct(o, cfg), o

    def test_per_phase_bounds_on_random_trees(self):
        rng = random.Random(60)
        for trial in range(12):
            g, _ = generate(FamilySpec(RANDOM_TREE, rng.randint(40, 200), 4, seed=trial))
            res, o = self.run(g)
            n, d, ell = g.n, max_degree(g), res.ell
            ledger = res.ledger
            assert ledger.per_phase[QueryPhase.ROOT_BFS] == n - 1
            assert ledger.per_phase[QueryPhase.BOOTSTRAP] <= d ** (2 * (ell + 2))
            per_call = d ** (ell + 2) * ceil_log2(n)
            per_vertex = d ** (2 * ell + 4)
            for row in res.trace:
                assert row.max_ancestor_call_queries <= per_call
                assert row.max_neighbor_queries_per_vertex <= per_vertex
                assert row.max_candidate_set <= per_vertex
                assert row.max_ancestor_rounds <= ceil_log2(n) + 1
            total_bound = (
                (n - 1)
                + d ** (2 * ell + 4)
                + sum(row.layer_size * (per_call + per_vertex) for row in res.trace)
            )
            assert ledger.distinct_queries <= total_bound

    def test_trace_totals_match_ledger(self):
        g, _ = generate(FamilySpec(RANDOM_TREE, 150, 4, seed=5))
        res, o = self.run(g)
        assert (
            sum(r.ancestor_queries for r in res.trace)
            == res.ledger.per_phase[QueryPhase.ANCESTOR_SEARCH]
        )
        assert (
            sum(r.neighbor_queries for r in res.trace)
            == res.ledger.per_phase[QueryPhase.NEIGHBOR_SEARCH]
        )


class TestNaive:
    def test_two_vertices(self):
        o = DistanceOracle(Graph(2, [(0, 1)]))
        g = reconstruct_naive(o)
        assert g == Graph(2, [(0, 1)])
        assert o.ledger.distinct_queries == 1

    def test_c6_query_count_closed_form(self):
        o = DistanceOracle(cycle(6))
        g = reconstruct_naive(o)
        assert g == cycle(6)
        assert o.ledger.distinct_queries == 15
        assert o.ledger.per_phase[QueryPhase.BASELINE] == 15

    def test_agrees_with_reconstruct(self):
        rng = random.Random(31)
        for trial in range(15):
            g = random_graph(rng, rng.randint(4, 48), rng.randint(0, 10))
            lay = build_layering(g, 0)
            ell = tree_length(g, build_layering_tree(g, lay))
            naive = reconstruct_naive(DistanceOracle(g))
            res = reconstruct(DistanceOracle(g), ReconstructionConfig(ell=ell))
            assert graphs_equal(naive, res.graph)
            assert graphs_equal(naive, g)
