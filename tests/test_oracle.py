import io
import random

import pytest

from sprec import (
    BudgetExceeded,
    DistanceOracle,
    Graph,
    QueryPhase,
    ReconstructionConfig,
    graphs_equal,
    reconstruct,
)

from .conftest import brute_all_pairs, random_graph


def cycle(n):
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def path(n):
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


ANC = QueryPhase.ANCESTOR_SEARCH


class TestQuery:
    def test_self_distance_zero(self):
        o = DistanceOracle(cycle(6), log_queries=True)
        assert o.query(4, 4, ANC) == 0
        # a self-pair is not a pair: counted as a call, never charged or logged
        assert o.ledger.distinct_queries == 0
        assert sum(o.ledger.per_phase.values()) == 0
        assert o.ledger.log == []
        assert o.ledger.raw_calls == 1

    def test_c6_antipodal(self):
        o = DistanceOracle(cycle(6))
        assert o.query(0, 3, ANC) == brute_all_pairs(cycle(6))[0][3] == 3

    def test_repeat_is_free(self):
        o = DistanceOracle(cycle(6))
        assert o.query(0, 3, ANC) == 3
        before = o.ledger.distinct_queries
        assert o.query(0, 3, ANC) == 3
        assert o.query(3, 0, QueryPhase.BASELINE) == 3
        assert o.ledger.distinct_queries == before
        assert o.ledger.raw_calls == 3

    def test_symmetry_consumes_one_credit(self):
        o = DistanceOracle(path(5))
        a = o.query(1, 4, ANC)
        b = o.query(4, 1, ANC)
        assert a == b == 3
        assert o.ledger.distinct_queries == 1

    def test_out_of_range(self):
        o = DistanceOracle(path(3))
        with pytest.raises(ValueError):
            o.query(0, 3, ANC)

    def test_phase_must_be_enum(self):
        o = DistanceOracle(path(3))
        with pytest.raises(TypeError):
            o.query(0, 1, "bootstrap")

    def test_rejects_disconnected_hidden_graph(self):
        with pytest.raises(ValueError, match="connected"):
            DistanceOracle(Graph(3, [(0, 1)]))


class TestBatch:
    def test_path_from_root(self):
        o = DistanceOracle(path(5))
        out = o.batch_distances_from(0, {1, 2, 3, 4}, QueryPhase.ROOT_BFS)
        assert out == {1: 1, 2: 2, 3: 3, 4: 4}
        assert o.ledger.distinct_queries == 4
        assert o.ledger.per_phase[QueryPhase.ROOT_BFS] == 4

    def test_empty_targets(self):
        o = DistanceOracle(path(5))
        assert o.batch_distances_from(0, set(), QueryPhase.ROOT_BFS) == {}
        assert o.ledger.distinct_queries == 0

    def test_c6_subset(self):
        o = DistanceOracle(cycle(6))
        assert o.batch_distances_from(0, {3, 4}, ANC) == {3: 3, 4: 2}


class TestBudget:
    """Strict runs compare the oracle's per-phase ledger with each budget."""

    def test_unlimited(self):
        # without strict_budget no phase total is checked: 6 bootstrap
        # queries pass although max_degree=1 would allow one
        o = DistanceOracle(path(5))
        res = reconstruct(o, ReconstructionConfig(tau=1, max_degree=1))
        assert graphs_equal(res.graph, path(5))
        assert o.ledger.per_phase[QueryPhase.BOOTSTRAP] == 6

    def test_boundary_holds(self):
        # the root scan budget is exactly n - 1
        o = DistanceOracle(path(5))
        cfg = ReconstructionConfig(tau=1, strict_budget=True, max_degree=2)
        reconstruct(o, cfg)
        assert o.ledger.per_phase[QueryPhase.ROOT_BFS] == 4

    def test_exceeded(self):
        o = DistanceOracle(path(6))
        cfg = ReconstructionConfig(tau=1, strict_budget=True, max_degree=1)
        with pytest.raises(BudgetExceeded, match="bootstrap charged 6 queries, limit 1"):
            reconstruct(o, cfg)


class TestAnswerCorrectness:
    def test_matches_independent_table_on_random_graphs(self):
        rng = random.Random(13)
        for _ in range(12):
            n = rng.randint(2, 256)
            g = random_graph(rng, n, rng.randint(0, 2 * n))
            table = brute_all_pairs(g)
            o = DistanceOracle(g)
            for _ in range(400):
                u, v = rng.randrange(n), rng.randrange(n)
                assert o.query(u, v, ANC) == table[u][v]

    def test_matches_table_on_vectorized_path(self):
        # n >= 1024 exercises the numpy BFS
        rng = random.Random(5)
        g = random_graph(rng, 1500, 900)
        o = DistanceOracle(g)
        dist0 = [o.query(0, v, ANC) for v in range(g.n)]
        # independent check: plain BFS from 0
        ref = [-1] * g.n
        ref[0] = 0
        frontier = [0]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for w in g.adj[u]:
                    if ref[w] < 0:
                        ref[w] = d
                        nxt.append(w)
            frontier = nxt
        assert dist0 == ref

    def test_triangle_inequality_sampled(self):
        rng = random.Random(99)
        for gseed in range(3):
            g = random_graph(random.Random(gseed), 60, 40)
            o = DistanceOracle(g)
            for _ in range(10_000):
                a, b, c = (rng.randrange(60) for _ in range(3))
                dab = o.query(a, b, ANC)
                dbc = o.query(b, c, ANC)
                dac = o.query(a, c, ANC)
                assert dac <= dab + dbc


class TestLedger:
    def test_per_phase_sums_to_distinct(self):
        o = DistanceOracle(cycle(8))
        o.batch_distances_from(0, range(1, 8), QueryPhase.ROOT_BFS)
        o.query(2, 5, ANC)
        o.query(2, 5, QueryPhase.NEIGHBOR_SEARCH)  # repeat, other phase: free
        ledger = o.ledger
        assert sum(ledger.per_phase.values()) == ledger.distinct_queries == 8
        assert ledger.raw_calls == 9
        assert ledger.per_phase[QueryPhase.NEIGHBOR_SEARCH] == 0

    def test_snapshot_is_detached(self):
        o = DistanceOracle(path(4))
        snap = o.ledger.snapshot()
        o.query(0, 3, ANC)
        assert snap.distinct_queries == 0
        assert o.ledger.distinct_queries == 1

    def test_query_log_csv(self):
        o = DistanceOracle(path(4), log_queries=True)
        o.query(0, 2, QueryPhase.BOOTSTRAP)
        o.query(0, 2, QueryPhase.BOOTSTRAP)  # cache hit: not logged
        o.query(3, 1, ANC)
        buf = io.StringIO()
        o.write_query_log(buf)
        assert buf.getvalue() == "0,2,2,bootstrap\n3,1,2,ancestor-search\n"

    def test_log_requires_flag(self):
        o = DistanceOracle(path(4))
        with pytest.raises(ValueError):
            o.write_query_log(io.StringIO())
