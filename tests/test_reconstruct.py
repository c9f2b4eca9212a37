import random

import pytest

from sprec import (
    BOUNDED_DEGREE_CONNECTED,
    BudgetExceeded,
    CATERPILLAR,
    DistanceOracle,
    FamilySpec,
    Graph,
    KTREE,
    LayeringTree,
    QueryPhase,
    RANDOM_TREE,
    RING_OF_CLIQUES,
    ReconstructionConfig,
    ReconstructionError,
    bfs_distances,
    build_layering,
    build_layering_tree,
    generate,
    graphs_equal,
    max_degree,
    reconstruct,
    tree_length,
)
from sprec.graph import GraphBuilder
from sprec.layering import InvariantViolation
from sprec.reconstruct import _AncestorSearch, _extend_layer, _grow_tree

from .baselines import reconstruct_naive
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

    def test_rejects_negative_max_degree(self):
        with pytest.raises(ValueError, match="^max_degree must be nonnegative when given$"):
            ReconstructionConfig(max_degree=-1).validate()

    @pytest.mark.parametrize("field, value", [("tau", 1.5), ("ell", 2.0), ("max_degree", 3.5)])
    def test_rejects_non_integer_parameters_before_any_query(self, field, value):
        oracle = DistanceOracle(generate(FamilySpec(RANDOM_TREE, 64, 3))[0])
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got {value}$"):
            reconstruct(oracle, ReconstructionConfig(**{field: value}))
        assert oracle.ledger.raw_calls == 0

    def test_accepts_int_like_parameters(self):
        np = pytest.importorskip("numpy")
        g, _ = generate(FamilySpec(RANDOM_TREE, 64, 3))
        for cfg in (
            ReconstructionConfig(tau=np.int64(1), strict_budget=True, max_degree=np.int32(3)),
            ReconstructionConfig(ell=np.int64(3)),
        ):
            assert graphs_equal(reconstruct(DistanceOracle(g), cfg).graph, g)

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
        assert tree.vertices(pid) == [2]
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
                _grow_tree(tree, lay, g, ell)
                search = _AncestorSearch(tree, prefix_graph(g, lay, i))
                for x in lay.layers[i]:
                    pid, _, _ = search.locate(x, o)
                    expect = brute_anc(g, lay.depth, x, k)
                    assert frozenset(tree.vertices(pid)) == expect
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
        splits = 0
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
            # every materialized split leaves components of at most half;
            # node parts are read off the parent pointers, not the counts
            def parts_of(node):
                out = set()
                for p in range(len(tree.layer)):
                    chain_up = [p]
                    while tree.parent[chain_up[-1]] >= 0:
                        chain_up.append(tree.parent[chain_up[-1]])
                    if node.top in chain_up and not set(node.excluded) & set(chain_up):
                        out.add(p)
                return out

            stack = [search._root]
            while stack:
                node = stack.pop()
                inside = parts_of(node)
                assert node.size == len(inside)
                for child in node.kids.values():
                    kid_parts = parts_of(child)
                    assert kid_parts <= inside - {node.pivot}
                    assert len(kid_parts) <= len(inside) // 2
                    stack.append(child)
                    splits += 1
        assert splits > 20


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

    @pytest.mark.parametrize("spec", [
        FamilySpec(KTREE, 120, 8, k=2, seed=2),
        FamilySpec(RANDOM_TREE, 150, 3, seed=4),
    ])
    def test_neighbor_search_asks_each_pair_once(self, spec):
        g, _ = generate(spec)
        lay = build_layering(g, 0)
        ell = self.measured_ell(g)
        o = DistanceOracle(g, log_queries=True)
        asked = {}

        def record(s, targets, phase):
            targets = list(targets)
            if phase is QueryPhase.NEIGHBOR_SEARCH:
                asked[s] = targets
            return DistanceOracle.batch_distances_from(o, s, targets, phase)

        o.batch_distances_from = record
        res = reconstruct(o, ReconstructionConfig(ell=ell))
        assert graphs_equal(res.graph, g)
        logged = {}
        for u, v, _d, phase in o.ledger.log:
            logged.setdefault(frozenset((u, v)), []).append((u, phase))
        shared = 0
        for i in range(ell + 2, lay.num_layers):
            k = i - ell - 2
            part = {x: brute_anc(g, lay.depth, x, k) for x in lay.layers[i - 1] + lay.layers[i]}
            for idx, v in enumerate(lay.layers[i]):
                prev = [u for u in lay.layers[i - 1] if part[u] == part[v]]
                later = [w for w in lay.layers[i][idx + 1 :] if part[w] == part[v]]
                # every previous-layer candidate, then the part's later new vertices
                assert asked[v] == prev + later
                for u in prev:
                    assert len(logged[frozenset((u, v))]) == 1
                for w in later:
                    assert logged[frozenset((v, w))] == [(v, "neighbor-search")]
                shared += len(later)
        assert shared > 0

    def test_window_component_without_a_capped_vertex_raises(self):
        # Path 0-1-2-3-4 with ell = 0: extending layer 3 caps the tree at
        # layer 1 and labels the window of layers 1 and 2. The prefix lacks
        # the edge (1, 2), so vertex 2 is a window component of its own.
        g = path(5)
        lay = build_layering(g, 0)
        prefix = GraphBuilder(g.n)
        prefix.add_edge(0, 1)
        search = _AncestorSearch(LayeringTree(g.n), prefix)
        _grow_tree(search.tree, lay, prefix, 0)
        oracle = DistanceOracle(g)
        with pytest.raises(InvariantViolation, match="disconnected from every capped-layer part"):
            _extend_layer(lay, search, 0, oracle, 2, True)
        assert oracle.ledger.distinct_queries == 0  # raised before any query

    @pytest.mark.parametrize("strict, error, message", [
        (True, BudgetExceeded, "ancestor search for 3 used 6 queries, limit 5"),
        (False, InvariantViolation, "candidate set of size 2 for vertex 3 exceeds the "
                                    "part-growth bound 1"),
    ])
    def test_spider_with_a_too_small_degree_bound_raises(self, strict, error, message):
        # A spider of six legs of three vertices each, with ell = 0 and a
        # degree bound of 1: the tree is capped at layer 1, whose six parts
        # hang from the root part, so locating a layer-3 vertex asks all six
        # neighbours of the root pivot (limit 1 * ceil(log2 19) = 5), and its
        # candidates are its leg's layer-2 vertex and itself (bound 1).
        g = Graph(19, [(0 if v % 3 == 1 else v - 1, v) for v in range(1, 19)])
        lay = build_layering(g, 0)
        prefix = GraphBuilder(g.n)
        for u, v in prefix_graph(g, lay, 3).edges():
            prefix.add_edge(u, v)
        search = _AncestorSearch(LayeringTree(g.n), prefix)
        _grow_tree(search.tree, lay, prefix, 0)
        with pytest.raises(error, match=f"^{message}"):
            _extend_layer(lay, search, 0, DistanceOracle(g), 1, strict)

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


class SkipsDepthTwo(DistanceOracle):
    """Answers every root-scan query past depth 1 one too deep."""

    def query(self, u, v, phase):
        d = super().query(u, v, phase)
        return d + 1 if phase is QueryPhase.ROOT_BFS and d >= 2 else d


class LosesVertexSeven(DistanceOracle):
    """Answers the root scan's query for vertex 7 with -1."""

    def query(self, u, v, phase):
        d = super().query(u, v, phase)
        return -1 if phase is QueryPhase.ROOT_BFS and v == 7 else d


class LeavesOutVertexSeven(DistanceOracle):
    """Charges every root-scan pair but leaves vertex 7 out of the answers."""

    def batch_distances_from(self, s, targets, phase):
        out = super().batch_distances_from(s, targets, phase)
        if phase is QueryPhase.ROOT_BFS:
            del out[7]
        return out


class PutsSevenFarPastN(DistanceOracle):
    """Answers the root scan's query for vertex 7 with 10**6, far past any
    depth of an n=8 graph."""

    def query(self, u, v, phase):
        d = super().query(u, v, phase)
        return 10**6 if phase is QueryPhase.ROOT_BFS and v == 7 else d


class PutsSevenAtAFraction(DistanceOracle):
    """Answers the root scan's query for vertex 7 with 7.5."""

    def query(self, u, v, phase):
        d = super().query(u, v, phase)
        return 7.5 if phase is QueryPhase.ROOT_BFS and v == 7 else d


class PutsThreeAtAFraction(DistanceOracle):
    """Answers the root scan's query for vertex 3 with 3.5, within the
    depths of an n=8 graph."""

    def query(self, u, v, phase):
        d = super().query(u, v, phase)
        return 3.5 if phase is QueryPhase.ROOT_BFS and v == 3 else d


class PutsSevenAtZero(DistanceOracle):
    """Answers the root scan's query for vertex 7 with 0, a second root."""

    def query(self, u, v, phase):
        d = super().query(u, v, phase)
        return 0 if phase is QueryPhase.ROOT_BFS and v == 7 else d


class TestReconstruct:
    @pytest.mark.parametrize("oracle_type, message", [
        (SkipsDepthTwo, "empty layer 2 below the deepest layer"),
        (LosesVertexSeven, "vertex 7 unreachable from root"),
        (LeavesOutVertexSeven, "vertex 7 unreachable from root"),
        (PutsSevenFarPastN, "empty layer 7 below the deepest layer"),
        (PutsSevenAtAFraction, r"vertex 7 at non-integer depth 7\.5"),
        (PutsThreeAtAFraction, r"vertex 3 at non-integer depth 3\.5"),
        (PutsSevenAtZero, "vertices 0 and 7 both at depth 0; a layering has one root"),
    ])
    def test_root_scan_off_the_protocol_raises_before_bootstrap(self, oracle_type, message):
        oracle = oracle_type(path(8))
        with pytest.raises(ValueError, match=f"^{message}$"):
            reconstruct(oracle)
        assert oracle.ledger.per_phase[QueryPhase.BOOTSTRAP] == 0
        assert oracle.ledger.distinct_queries == 7

    @pytest.mark.parametrize("family", [RANDOM_TREE, CATERPILLAR])
    def test_second_root_raises_under_strict_budgets(self, family):
        # A second vertex at depth 0 once gave a random tree back with 62 of
        # its 63 edges, and stopped a caterpillar with a pivot error.
        class PutsLastAtZero(DistanceOracle):
            def query(self, u, v, phase):
                d = super().query(u, v, phase)
                return 0 if phase is QueryPhase.ROOT_BFS and v == 63 else d

        g, _ = generate(FamilySpec(family, 64, 4, seed=0))
        oracle = PutsLastAtZero(g)
        cfg = ReconstructionConfig(tau=1, strict_budget=True, max_degree=max_degree(g))
        with pytest.raises(
            ValueError, match="^vertices 0 and 63 both at depth 0; a layering has one root$"
        ):
            reconstruct(oracle, cfg)
        assert oracle.ledger.per_phase[QueryPhase.BOOTSTRAP] == 0
        assert oracle.ledger.distinct_queries == 63

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

    @pytest.mark.parametrize("seed", [0, 1])
    def test_labels_over_budget_answer_from_rows(self, seed):
        # tau=1 keeps the bootstrap below all-pairs on this family, whose
        # labels outgrow 4 n ceil(log2 n) entries, so single queries read rows
        g, _ = generate(FamilySpec(BOUNDED_DEGREE_CONNECTED, 512, 4, seed=seed))
        o = DistanceOracle(g, log_queries=True)
        assert graphs_equal(reconstruct(o, ReconstructionConfig(tau=1, max_degree=4)).graph, g)
        assert o.stats.label_entries > 4 * g.n * ceil_log2(g.n)
        # the ancestor search asks (w, x) for the x of each descent, whose
        # row is held through it: one row per x (6 at seed 0, 1 at seed 1)
        log = o.ledger.log
        descents = {x for _, x, _, phase in log if phase == "ancestor-search"}
        assert o.stats.fallback_rows == len(descents) == (6, 1)[seed]
        rows = {}
        for u, v, d, _ in log:
            if u not in rows:
                rows[u] = bfs_distances(g, u)
            assert d == rows[u][v]


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

    def test_bootstrap_over_its_limit_raises(self):
        cfg = ReconstructionConfig(tau=1, strict_budget=True, max_degree=1)
        with pytest.raises(BudgetExceeded, match="^bootstrap charged 6 queries, limit 1$"):
            reconstruct(DistanceOracle(path(8)), cfg)

    def test_root_scan_that_charges_nothing_raises(self):
        class Uncharged(DistanceOracle):
            def batch_distances_from(self, s, targets, phase):
                if phase is not QueryPhase.ROOT_BFS:
                    return super().batch_distances_from(s, targets, phase)
                dist = bfs_distances(self.hidden, s)
                return {t: dist[t] for t in targets}

        o = Uncharged(path(8))
        cfg = ReconstructionConfig(tau=1, strict_budget=True, max_degree=2)
        with pytest.raises(BudgetExceeded,
                           match="^root scan charged 0 queries, expected exactly 7$"):
            reconstruct(o, cfg)
        assert o.ledger.distinct_queries == o.ledger.raw_calls == 0

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
