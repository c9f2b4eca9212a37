import io
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sprec.oracle as oracle_module
from sprec.oracle import OracleStats
from sprec import (
    BudgetExceeded,
    DistanceOracle,
    FamilySpec,
    Graph,
    QueryPhase,
    ReconstructionConfig,
    generate,
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

    @pytest.mark.parametrize("u, v", [(0.25, 1), (1, 2.0), ("1", 2), (None, 0)])
    def test_non_integer_vertex_charges_nothing(self, u, v):
        # with pair keys u * n + v, (0.25, 1) at n=4 would read pair (0, 2)
        o = DistanceOracle(path(4), log_queries=True)
        with pytest.raises(TypeError, match=r"vertices \(.*\) must be integers"):
            o.query(u, v, ANC)
        assert o.ledger.raw_calls == 0 and o.ledger.log == []
        assert o._rows == {} and o._pair_cache == {}
        assert o.query(0, 2, ANC) == 2

    def test_int_like_values_are_vertices(self):
        class Vertex(int):
            pass

        class Index:  # int-like without being an int, as numpy integers are
            def __init__(self, i):
                self.i = i

            def __index__(self):
                return self.i

        o = DistanceOracle(path(4), log_queries=True)
        assert o.query(True, Vertex(3), ANC) == 2
        assert o.query(3, 1, ANC) == 2  # the same pair, already charged
        assert o.batch_distances_from(False, [True, Vertex(2)], ANC) == {1: 1, 2: 2}
        assert o.query(Index(3), Index(0), ANC) == 3
        assert o.batch_distances_from(Index(2), [Index(3), 1, Index(1)], ANC) == {3: 1, 1: 1}
        assert o.ledger.distinct_queries == 6 and o.ledger.raw_calls == 7
        assert all(type(x) is int for u, v, _, _ in o.ledger.log for x in (u, v))

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

    def test_targets_keep_first_seen_order(self):
        o = DistanceOracle(path(6), log_queries=True)
        out = o.batch_distances_from(2, [5, 0, 5, 2, 1], ANC)
        assert list(out.items()) == [(5, 3), (0, 2), (2, 0), (1, 1)]
        assert [(u, v) for u, v, _, _ in o.ledger.log] == [(2, 5), (2, 0), (2, 1)]
        # one call per distinct target, the self-pair included
        assert o.ledger.raw_calls == 4

    def test_overridden_query_sees_every_target(self):
        calls = []

        class Counting(DistanceOracle):
            def query(self, u, v, phase):
                calls.append((u, v))
                return super().query(u, v, phase)

        o = Counting(path(5), log_queries=True)
        o.query(1, 3, ANC)
        assert o.batch_distances_from(1, [3, 4, 1, 4], ANC) == {3: 2, 4: 3, 1: 0}
        assert calls == [(1, 3), (1, 3), (1, 4), (1, 1)]
        assert o.ledger.raw_calls == 4 and o.ledger.distinct_queries == 2
        assert [(u, v) for u, v, _, _ in o.ledger.log] == [(1, 3), (1, 4)]

    @pytest.mark.parametrize("s", [3, 5, -1])
    def test_source_out_of_range(self, s):
        o = DistanceOracle(path(3))
        with pytest.raises(ValueError, match="out of range for n=3"):
            o.batch_distances_from(s, [0, 1], ANC)
        assert o._rows == {} and o.ledger.raw_calls == 0

    def test_target_out_of_range_charges_nothing(self):
        o = DistanceOracle(path(3))
        with pytest.raises(ValueError, match=r"vertex pair \(0,3\) out of range"):
            o.batch_distances_from(0, [1, 3], ANC)
        assert o._rows == {} and o.ledger.raw_calls == 0

    def test_phase_must_be_enum(self):
        o = DistanceOracle(path(3))
        with pytest.raises(TypeError, match="phase must be a QueryPhase"):
            o.batch_distances_from(0, [1, 2], "bootstrap")
        assert o._rows == {} and o.ledger.raw_calls == 0

    @pytest.mark.parametrize("s", [0.5, 1.0, "0"])
    def test_non_integer_source_charges_nothing(self, s):
        o = DistanceOracle(path(3))
        with pytest.raises(TypeError, match=r"vertices \(.*\) must be integers"):
            o.batch_distances_from(s, [0, 2], ANC)
        assert o._rows == {} and o._pair_cache == {} and o.ledger.raw_calls == 0

    @pytest.mark.parametrize("bad", [1.5, 2.0, "2"])
    def test_non_integer_target_charges_nothing(self, bad):
        o = DistanceOracle(path(4))
        with pytest.raises(TypeError, match=r"vertices \(0, .*\) must be integers"):
            o.batch_distances_from(0, [1, bad, 3], ANC)
        assert o._rows == {} and o._pair_cache == {} and o.ledger.raw_calls == 0


class TestTruncatedBalls:
    """A query or a batch grows its source's ball only as far as it must;
    every later answer must still be exact."""

    def test_query_beyond_a_truncated_ball(self):
        o = DistanceOracle(path(40))
        assert o.query(0, 2, ANC) == 2
        assert oracle_module._held(o._rows[0], 30) == -1  # a ball, not a row
        assert o.query(0, 30, ANC) == 30
        assert oracle_module._held(o._rows[0], 31) == -1  # still a ball
        assert o.query(25, 0, ANC) == 25

    def test_query_beyond_a_ball_resumes_it(self):
        o = DistanceOracle(path(200))
        o.query(0, 3, ANC)
        assert type(o._rows[0]) is dict  # 4 vertices, under n/16
        assert o.stats == OracleStats(balls_started=1, visited=4)
        assert o.query(0, 20, ANC) == 20
        # only levels 4 to 20 are new; the row turned dense on the way
        assert type(o._rows[0]) is not dict
        assert o.stats == OracleStats(balls_started=1, balls_resumed=1, visited=21)
        assert o.batch_distances_from(0, [5, 199], ANC) == {5: 5, 199: 199}
        assert o.stats == OracleStats(balls_started=1, balls_resumed=2, visited=200)
        assert len(o._rows[0]) == 200  # complete: no frontier is kept

    def test_part_grown_ball_is_evicted_with_its_frontier(self, monkeypatch):
        o = DistanceOracle(path(40))
        o.query(0, 3, ANC)
        assert list(o._rows[0][40:]) == [3, 4, 3]  # radius, size, frontier
        # room for this row and its frontier, not for a second row
        monkeypatch.setattr(oracle_module, "_ROW_CACHE_BYTES", o._row_bytes)
        o.query(39, 37, ANC)
        assert list(o._rows) == [39] and o.stats.evicted == 1
        assert o.query(0, 6, ANC) == 6  # a fresh ball, not a resumed one
        assert o.stats.balls_started == 3 and o.stats.balls_resumed == 0

    def test_later_batch_beyond_the_ball(self):
        o = DistanceOracle(path(40))
        assert o.batch_distances_from(0, [3], ANC) == {3: 3}
        assert o.batch_distances_from(0, [20, 1, 3], ANC) == {20: 20, 1: 1, 3: 3}
        assert o.batch_distances_from(39, [0, 38], ANC) == {0: 39, 38: 1}

    def test_query_reads_only_the_first_endpoint_ball(self):
        o = DistanceOracle(path(40))
        o.query(10, 12, ANC)  # ball of radius 2 around 10
        assert o.query(12, 10, ANC) == 2  # the pair cache, in either order
        assert o.query(10, 11, ANC) == 1  # 10's ball holds 11
        assert o.stats == OracleStats(balls_started=1, visited=5)
        # reversed: 10's ball holds 9, but 9 is first, so 9's ball grows
        assert o.query(9, 10, ANC) == 1
        assert o.stats == OracleStats(balls_started=2, visited=8)
        assert o.query(30, 10, ANC) == 20
        assert o.stats.balls_started == 3 and sorted(o._rows) == [9, 10, 30]

    def test_forced_eviction(self, monkeypatch):
        monkeypatch.setattr(oracle_module, "_ROW_CACHE_BYTES", 0)
        rng = random.Random(3)
        g = random_graph(rng, 300, 150)
        table = brute_all_pairs(g)
        o = DistanceOracle(g)
        for _ in range(60):
            s = rng.randrange(g.n)
            targets = rng.sample(range(g.n), 5)
            out = o.batch_distances_from(s, targets, ANC)
            assert out == {t: table[s][t] for t in targets}
            u, v = rng.randrange(g.n), rng.randrange(g.n)
            assert o.query(u, v, ANC) == table[u][v]
            assert len(o._rows) == 1  # only the newest row survives


class TestTransientBalls:
    """A batch from a source with no kept row grows a ball that is never
    cached; a batch from a source with a kept row resumes that row."""

    def test_batch_without_a_row_keeps_none(self):
        o = DistanceOracle(path(40))
        assert o.batch_distances_from(5, [9, 1, 9], ANC) == {9: 4, 1: 4}
        assert o._rows == {} and o._row_bytes == 0
        # radius 4 around 5: vertices 1 to 9
        assert o.stats == OracleStats(balls_transient=1, visited=9)
        assert o.batch_distances_from(5, [9, 12], ANC) == {9: 4, 12: 7}
        # a second ball from 5, not a resumed one: radius 7, vertices 0 to 12
        assert o._rows == {}
        assert o.stats == OracleStats(balls_transient=2, visited=9 + 13)

    def test_batch_from_a_kept_row_resumes_it(self):
        o = DistanceOracle(path(40))
        assert o.query(5, 7, ANC) == 2
        row = o._rows[5]
        assert o.batch_distances_from(5, [12, 1], ANC) == {12: 7, 1: 4}
        assert o._rows[5] is row and oracle_module._held(row, 12) == 7
        assert oracle_module._held(row, 13) == -1  # grown only as far as 12
        assert o.stats == OracleStats(balls_started=1, balls_resumed=1, visited=13)

    def test_kept_rows_come_from_ancestor_queries(self):
        # a 2-tree asks most of its queries in neighbour-search batches;
        # none of those may leave a row behind
        n = 1024
        hidden, _ = generate(FamilySpec(family="ktree", n=n, max_degree=8, k=2, seed=0))
        o = DistanceOracle(hidden, log_queries=True)
        reconstruct(o, ReconstructionConfig(tau=1, strict_budget=True, max_degree=8))
        sources = {u for u, _, _, phase in o.ledger.log if phase == ANC.value}
        assert o._rows and set(o._rows) <= sources
        assert o.stats.balls_transient >= n - 1


@st.composite
def interleaved_calls(draw, n_range):
    n = draw(st.integers(*n_range))
    seed = draw(st.integers(0, 2**32 - 1))
    extra = draw(st.integers(0, n // 2))
    graph = random_graph(random.Random(seed), n, extra)
    vertex = st.integers(0, n - 1)

    @st.composite
    def batch(draw):
        # targets may repeat and may include the source itself
        s = draw(vertex)
        targets = draw(st.lists(vertex, max_size=12))
        repeats = draw(st.lists(st.sampled_from(targets), max_size=4)) if targets else []
        itself = [s] * draw(st.integers(0, 2))
        return "batch", s, draw(st.permutations(targets + repeats + itself))

    # "out" marks a call from one hub to its next ring outward, so the hub's
    # ball is resumed after partial growth, level by level, and crosses the
    # n/16 line from dict to array in a resume
    out = st.tuples(st.just("out"), st.sampled_from(["batch", "query"]),
                    st.integers(0, 2), st.integers(0, n))
    call = st.one_of(batch(), st.tuples(st.just("query"), vertex, vertex), out)
    calls = draw(st.lists(call, min_size=1, max_size=40))
    hub = draw(vertex)
    rings = rings_around(graph, hub)
    radius = 0
    for i, c in enumerate(calls):
        if c[0] == "out":
            _, kind, step, pick = c
            radius = min(radius + step, len(rings) - 1)
            ring = rings[radius]
            far = ring[pick % len(ring)]
            if kind == "batch":
                calls[i] = ("batch", hub, [far, *ring[:pick % 3]])
            else:
                calls[i] = ("query", hub, far)
    # the default row budget, none at all, or room for four dense rows; the
    # last two evict balls part-grown
    budget = draw(st.sampled_from([oracle_module._ROW_CACHE_BYTES, 0, 16 * n]))
    return graph, calls, budget


def rings_around(graph, s):
    """Vertices of graph by distance from s, one list per distance."""
    rings = [[s]]
    seen = {s}
    while True:
        ring = []
        for x in rings[-1]:
            for w in graph.adj[x]:
                if w not in seen:
                    seen.add(w)
                    ring.append(w)
        if not ring:
            return rings
        rings.append(ring)


def check_rows(o, table):
    """Every cached row is an exact ball around its source, sparse below
    n/16 vertices, that keeps its last level unless it is complete; the
    cache's byte count adds up."""
    n = o.n
    for s, row in o._rows.items():
        held = {v: oracle_module._held(row, v) for v in range(n)}
        held = {v: d for v, d in held.items() if d >= 0}
        radius = max(held.values())
        assert held == {v: d for v, d in enumerate(table[s]) if d <= radius}
        if type(row) is dict:
            assert 16 * len(held) < n
            assert list(row.values()) == sorted(row.values())  # BFS order
        elif len(held) < n:
            assert 16 * len(held) >= n
            assert list(row[n:n + 2]) == [radius, len(held)]
            assert sorted(row[n + 2:]) == [v for v, d in sorted(held.items()) if d == radius]
        else:
            assert len(row) == n
    assert o._row_bytes == sum(map(oracle_module._row_bytes, o._rows.values()))


def check_interleaved(graph, calls, budget):
    table = brute_all_pairs(graph)
    o = DistanceOracle(graph)
    with mock.patch.object(oracle_module, "_ROW_CACHE_BYTES", budget):
        for kind, a, b in calls:
            if kind == "batch":
                out = o.batch_distances_from(a, b, ANC)
                assert out == {t: table[a][t] for t in b}
            else:
                assert o.query(a, b, ANC) == table[a][b]
                assert o.query(b, a, ANC) == table[b][a]
            check_rows(o, table)


def ledger_state(o):
    ledger = o.ledger
    return ledger.distinct_queries, ledger.raw_calls, ledger.per_phase, ledger.log


def check_batch_matches_queries(graph, calls, budget):
    """A batch's answers and accounting equal one query per distinct target."""
    table = brute_all_pairs(graph)
    batched = DistanceOracle(graph, log_queries=True)
    single = DistanceOracle(graph, log_queries=True)
    with mock.patch.object(oracle_module, "_ROW_CACHE_BYTES", budget):
        for kind, a, b in calls:
            if kind == "batch":
                out = batched.batch_distances_from(a, b, ANC)
                assert out == {t: single.query(a, t, ANC) for t in dict.fromkeys(b)}
                assert list(out) == list(dict.fromkeys(b))
            else:
                assert batched.query(a, b, ANC) == single.query(a, b, ANC)
            assert ledger_state(batched) == ledger_state(single)
        for kind, a, b in calls:
            for t in b if kind == "batch" else [b]:
                for u, v in ((a, t), (t, a)):
                    assert batched.query(u, v, ANC) == single.query(u, v, ANC) == table[u][v]
        assert ledger_state(batched) == ledger_state(single)


class TestBatchMatchesQueries:
    @settings(max_examples=150, deadline=None)
    @given(interleaved_calls((2, 60)))
    def test_small_graphs(self, case):
        check_batch_matches_queries(*case)

    @settings(
        max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(interleaved_calls((1024, 1300)))
    def test_large_graphs(self, case):
        check_batch_matches_queries(*case)


class TestInterleavedProperty:
    @settings(max_examples=150, deadline=None)
    @given(interleaved_calls((2, 200)))
    def test_small_graphs(self, case):
        check_interleaved(*case)

    @settings(
        max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(interleaved_calls((1024, 1300)))
    def test_large_graphs(self, case):
        check_interleaved(*case)


class TestSimulatorWork:
    def test_caterpillar_visits_stay_under_half_n_squared(self):
        # a complete row per pivot neighbour visited 1,046,524 vertices here
        # (about n^2); balls resumed from their frontiers visit 443,414,
        # with 1,008 kept balls and 1,023 throwaway batch balls
        n = 1024
        hidden, _ = generate(FamilySpec(family="caterpillar", n=n, max_degree=4, seed=0))
        o = DistanceOracle(hidden)
        reconstruct(o, ReconstructionConfig(tau=1, strict_budget=True, max_degree=4))
        assert o.stats.visited <= n * n // 2
        assert o.stats.balls_started <= n and o.stats.evicted == 0
        assert o.stats.balls_transient <= n


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

    def test_complete_row_matches_plain_bfs_on_large_graph(self):
        # n >= 1024, the size of the benchmark instances
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
