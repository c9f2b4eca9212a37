import dataclasses
import gc
import io
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

import sprec.oracle as oracle_module
from sprec.graph import bfs_distances
from sprec.oracle import OracleStats
from sprec import (
    BudgetExceeded,
    DistanceOracle,
    FAMILIES,
    FamilySpec,
    Graph,
    InfeasibleSpecError,
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
        # 2.0 == 2 with the same hash, so (1, 2.0) would find pair (1, 2)
        # among the answered pairs: a bad vertex must fail before the ledger
        o = DistanceOracle(path(4), log_queries=True)
        with pytest.raises(TypeError, match=r"vertices \(.*\) must be integers"):
            o.query(u, v, ANC)
        assert o.ledger.raw_calls == 0 and o.ledger.log == []
        assert o.ledger.distinct_queries == 0 and o.stats.fallback_rows == 0
        assert o.query(0, 2, ANC) == 2 and o.ledger.distinct_queries == 1
        assert o.query(1, 2, ANC) == 1 and o.ledger.distinct_queries == 2

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
        assert o.stats.fallback_rows == 0 and o.ledger.raw_calls == 0

    def test_target_out_of_range_charges_nothing(self):
        o = DistanceOracle(path(3))
        with pytest.raises(ValueError, match=r"vertex pair \(0,3\) out of range"):
            o.batch_distances_from(0, [1, 3], ANC)
        assert o.stats.fallback_rows == 0 and o.ledger.raw_calls == 0

    def test_phase_must_be_enum(self):
        o = DistanceOracle(path(3))
        with pytest.raises(TypeError, match="phase must be a QueryPhase"):
            o.batch_distances_from(0, [1, 2], "bootstrap")
        assert o.stats.fallback_rows == 0 and o.ledger.raw_calls == 0

    @pytest.mark.parametrize("s", [0.5, 1.0, "0"])
    def test_non_integer_source_charges_nothing(self, s):
        o = DistanceOracle(path(3))
        with pytest.raises(TypeError, match=r"vertices \(.*\) must be integers"):
            o.batch_distances_from(s, [0, 2], ANC)
        assert o.stats.fallback_rows == 0 and o.ledger.raw_calls == o.ledger.distinct_queries == 0
        assert o.query(1, 2, ANC) == 1 and o.ledger.distinct_queries == 1

    @pytest.mark.parametrize("bad", [1.5, 2.0, "2"])
    def test_non_integer_target_charges_nothing(self, bad):
        o = DistanceOracle(path(4))
        with pytest.raises(TypeError, match=r"vertices \(0, .*\) must be integers"):
            o.batch_distances_from(0, [1, bad, 3], ANC)
        assert o.stats.fallback_rows == 0 and o.ledger.raw_calls == o.ledger.distinct_queries == 0
        # target 1 came before the bad one and still has its pair to charge
        assert o.query(0, 1, ANC) == 1 and o.ledger.distinct_queries == 1


class TestTruncatedBalls:
    """A batch grows its source's ball only as far as it must, and single
    queries past the label budget read complete rows; every later answer
    must still be exact."""

    def test_later_batch_beyond_the_ball(self):
        o = DistanceOracle(path(40))
        assert o.batch_distances_from(0, [3], ANC) == {3: 3}
        assert o.batch_distances_from(0, [20, 1, 3], ANC) == {20: 20, 1: 1, 3: 3}
        assert o.batch_distances_from(39, [0, 38], ANC) == {0: 39, 38: 1}

    def test_held_row_on_a_path(self, monkeypatch):
        monkeypatch.setattr(oracle_module, "_LABEL_BUDGET", 0)
        check_held_row(path(40))


class TestTransientBalls:
    """A batch grows a ball that is never cached and builds no labels,
    unless query is overridden: then it is single queries."""

    def test_batch_without_a_row_keeps_none(self):
        o = DistanceOracle(path(40))
        assert o.batch_distances_from(5, [9, 1, 9], ANC) == {9: 4, 1: 4}
        assert o.stats.fallback_rows == 0 and o._labels is None
        # radius 4 around 5: vertices 1 to 9
        assert o.stats == OracleStats(balls_transient=1, visited=9)
        assert o.batch_distances_from(5, [9, 12], ANC) == {9: 4, 12: 7}
        # a second ball from 5: radius 7, vertices 0 to 12
        assert o.stats.fallback_rows == 0 and o._labels is None
        assert o.stats == OracleStats(balls_transient=2, visited=9 + 13)

    def test_overridden_query_answers_the_batch_as_single_queries(self):
        class Counting(DistanceOracle):
            def query(self, u, v, phase):
                if v == 39:
                    raise KeyError(v)
                return super().query(u, v, phase)

        o = Counting(path(40), log_queries=True)
        single = DistanceOracle(path(40), log_queries=True)
        targets = [9, 1, 5, 9, 12, 1]
        out = o.batch_distances_from(5, targets, ANC)
        assert list(out.items()) == [(t, single.query(5, t, ANC)) for t in dict.fromkeys(targets)]
        assert ledger_state(o) == ledger_state(single) and o.ledger.raw_calls == 4
        # no ball: the first batch builds the labels, as a single query does
        assert o.stats.balls_transient == 0 and o.stats.label_entries > 0
        with pytest.raises(KeyError):
            o.batch_distances_from(5, [20, 39], ANC)
        single.query(5, 20, ANC)  # charged before the error, as one query would be
        assert ledger_state(o) == ledger_state(single)


class TestSharedBalls:
    """All batches grow their balls in one list, each above the marks of the
    balls before it; fallback rows and overriding queries built between or
    during batches must leave every answer exact."""

    @pytest.mark.parametrize(
        "budgets", [{}, {"_LABEL_BUDGET": 0}],
        ids=["default", "fallback-rows"])
    def test_random_batches_between_queries(self, monkeypatch, budgets):
        for name, value in budgets.items():
            monkeypatch.setattr(oracle_module, name, value)
        rng = random.Random(5)
        g = random_graph(rng, 300, 150)
        table = brute_all_pairs(g)
        o = DistanceOracle(g)
        model = set()
        for i in range(200):
            s = rng.randrange(g.n)
            # every other ball stays near its source, below the marks of
            # wider balls before it
            near = g.adj[s] if i % 2 else range(g.n)
            targets = [*rng.choices(near, k=rng.randint(1, 8)), s]
            assert o.batch_distances_from(s, targets, ANC) == {t: table[s][t] for t in targets}
            u, v = rng.randrange(g.n), rng.randrange(g.n)
            assert o.query(u, v, ANC) == table[u][v]
            model |= asked(s, targets) | asked(u, [v])
            assert o.ledger.distinct_queries == len(model)
        assert o.stats.balls_transient == 200
        if budgets:
            assert o.stats.fallback_rows > 1

    def test_wrapped_query_sees_every_target(self, monkeypatch):
        # a wrapper on the class, as perfbench's tracer installs, that asks a
        # single query of its own per target: past the label budget, each
        # one builds a fallback row in the middle of the batch
        monkeypatch.setattr(oracle_module, "_LABEL_BUDGET", 0)
        rng = random.Random(7)
        g = random_graph(rng, 200, 100)
        table = brute_all_pairs(g)
        original = DistanceOracle.query
        seen = []

        def query(self, u, v, phase):
            d = original(self, u, v, phase)
            seen.append((u, v, d))
            if u != v:
                original(self, v, (v + 1) % self.n, phase)
            return d

        monkeypatch.setattr(DistanceOracle, "query", query)
        o = DistanceOracle(g)
        for _ in range(50):
            s = rng.randrange(g.n)
            targets = rng.choices(range(g.n), k=8)
            seen.clear()
            assert o.batch_distances_from(s, targets, ANC) == {t: table[s][t] for t in targets}
            assert seen == [(s, t, table[s][t]) for t in dict.fromkeys(targets)]
        # batches under an overriding query grow no ball
        assert o.stats.balls_transient == 0 and o.stats.fallback_rows > 50


class TestPartnerIdWidth:
    """Partner ids take 16 bits up to n = 65,536 and 32 bits above; the
    largest id at each size must be charged, found and answered again."""

    @pytest.mark.parametrize("n", [1 << 16, (1 << 16) + 1])
    def test_largest_id_on_a_long_path(self, monkeypatch, n):
        monkeypatch.setattr(oracle_module, "_LABEL_BUDGET", 0)
        last = n - 1
        o = DistanceOracle(path(n))
        assert o.batch_distances_from(last, [0, 1], ANC) == {0: last, 1: last - 1}
        assert o.query(0, last, ANC) == last
        assert o.ledger.distinct_queries == 2
        for u, v in [(last, 0), (last, 1)]:
            for a, b in ((u, v), (v, u)):
                assert o.query(a, b, ANC) == abs(a - b)
        assert o.ledger.distinct_queries == 2
        assert list(o._partners[0]) == [last] and list(o._partners[last]) == [0, 1]


def partners_of(o, u):
    """u's charged partners from its row, an id array or a bitmap of n bits;
    a bitmap also holds u's own bit."""
    row = o._partners[u]
    if type(row) is bytearray:
        return {t for t in range(o.n) if row[t >> 3] >> (t & 7) & 1} - {u}
    return set(row)


def check_re_asked(o, pairs):
    """Every pair in pairs, re-asked in both orders by batch and by query, is
    answered as on a path and charges nothing."""
    charged = o.ledger.snapshot()
    for u, v in pairs:
        for a, b in ((u, v), (v, u)):
            assert o.batch_distances_from(a, [b], ANC) == {b: abs(a - b)}
            assert o.query(a, b, ANC) == abs(a - b)
    assert o.ledger.distinct_queries == charged.distinct_queries
    assert o.ledger.per_phase == charged.per_phase and o.ledger.log == charged.log


class TestPartnerRows:
    """A partner row is an array of ids until they would take more bytes than
    a bitmap of n bits, and that bitmap from then on: on a 40-path, 5 bytes,
    so past 2 ids. A row switches in a batch from it, as a batch target or in
    a single query, and every pair stays charged once."""

    def test_rows_switch_in_batches_and_in_a_query(self):
        o = DistanceOracle(path(40), log_queries=True)
        assert o._dense == 2

        def form(u):
            row = o._partners[u]
            return "bitmap" if type(row) is bytearray else "full" if len(row) == 2 else "array"

        def charge(u, v, before, after):
            # a fresh single query: both rows' forms before and after, and
            # each row holds the other end
            assert (form(u), form(v)) == before
            charged = o.ledger.distinct_queries
            assert o.query(u, v, ANC) == abs(u - v)
            assert o.ledger.distinct_queries == charged + 1
            assert (form(u), form(v)) == after
            assert v in partners_of(o, u) and u in partners_of(o, v)

        # the source's row: 3 partners at once
        assert o.batch_distances_from(0, [5, 10, 15, 0], ANC) == {5: 5, 10: 10, 15: 15, 0: 0}
        # a target's row: 2 partners from single queries, then a batch's
        charge(30, 31, ("array", "array"), ("array", "array"))
        charge(32, 30, ("array", "array"), ("array", "full"))
        assert o.batch_distances_from(35, [30, 36], ANC) == {30: 5, 36: 1}
        assert form(30) == "bitmap"
        # a single query's end, full at v and then at u, with an array at
        # the other end
        charge(20, 21, ("array", "array"), ("array", "array"))
        charge(20, 22, ("array", "array"), ("full", "array"))
        charge(23, 20, ("array", "full"), ("array", "bitmap"))
        charge(11, 12, ("array", "array"), ("array", "array"))
        charge(11, 13, ("array", "array"), ("full", "array"))
        charge(11, 14, ("full", "array"), ("bitmap", "array"))
        # single queries at a bitmap end: with a bitmap, a full array and a
        # short array at the other end, the bitmap at u or at v
        charge(0, 20, ("bitmap", "bitmap"), ("bitmap", "bitmap"))
        charge(25, 26, ("array", "array"), ("array", "array"))
        charge(25, 27, ("array", "array"), ("full", "array"))
        charge(0, 25, ("bitmap", "full"), ("bitmap", "bitmap"))
        charge(0, 1, ("bitmap", "array"), ("bitmap", "array"))
        charge(2, 0, ("array", "bitmap"), ("array", "bitmap"))
        bitmaps = [u for u in range(40) if type(o._partners[u]) is bytearray]
        assert bitmaps == [0, 11, 20, 25, 30]
        assert all(len(o._partners[u]) == 5 for u in bitmaps)
        pairs = [(0, 5), (0, 10), (0, 15), (30, 31), (32, 30), (35, 30), (35, 36),
                 (20, 21), (20, 22), (23, 20), (11, 12), (11, 13), (11, 14), (0, 20),
                 (25, 26), (25, 27), (0, 25), (0, 1), (2, 0)]
        assert o.ledger.distinct_queries == len(pairs)
        assert [(u, v) for u, v, _, _ in o.ledger.log] == pairs
        for u in range(40):
            assert partners_of(o, u) == {a + b - u for a, b in pairs if u in (a, b)}
        check_re_asked(o, pairs)
        # a batch from a bitmap row charges only its new pairs: 0 has 7
        assert o.batch_distances_from(0, range(40), ANC) == {t: t for t in range(40)}
        assert o.ledger.distinct_queries == len(pairs) + 39 - 7

    @pytest.mark.parametrize("n,dense", [(1 << 16, 4096), ((1 << 16) + 1, 2048)])
    def test_a_batch_switches_the_largest_id_row(self, monkeypatch, n, dense):
        # complete BFS rows answer single queries, as the labels are over budget
        monkeypatch.setattr(oracle_module, "_LABEL_BUDGET", 0)
        last = n - 1
        o = DistanceOracle(path(n))
        assert o._dense == dense
        targets = range(dense + 1)
        assert o.batch_distances_from(last, targets, ANC) == {t: last - t for t in targets}
        assert type(o._partners[last]) is bytearray and len(o._partners[last]) == (n + 7) // 8
        assert partners_of(o, last) == set(targets)
        assert o.ledger.distinct_queries == dense + 1
        # last's bitmap answers every pair again; a few also from the other end
        charged = o.ledger.snapshot()
        assert o.batch_distances_from(last, targets, ANC) == {t: last - t for t in targets}
        for t in targets:
            assert o.query(last, t, ANC) == last - t
        assert o.ledger.distinct_queries == charged.distinct_queries
        check_re_asked(o, [(0, last), (1, last), (dense, last)])
        assert o.ledger.distinct_queries == dense + 1


class TestDistanceLabels:
    """Single queries read pruned landmark labels of the hidden graph, built
    at the first one in separator order, or a held complete row past the
    budget."""

    def test_labels_are_built_at_the_first_single_query(self):
        o = DistanceOracle(cycle(9))
        o.batch_distances_from(0, range(9), ANC)
        assert o._labels is None and o.stats.label_entries == 0
        assert o.query(2, 6, ANC) == 4
        built = dataclasses.replace(o.stats)
        assert 9 <= built.label_entries <= built.label_visits and built.label_seconds > 0
        assert [o.query(u, v, ANC) for u, v in [(0, 5), (3, 8), (1, 7)]] == [4, 4, 3]
        assert o.stats == built and o.stats.fallback_rows == 0

    def test_separator_order_centres_a_bfs_tree(self):
        # the centroid first, then the centroids of the pieces each centroid
        # leaves, breadth first
        assert oracle_module._separator_order(path(7)) == [3, 5, 1, 6, 4, 2, 0]
        # C6's BFS tree from 0 hangs 3 from 2, its first neighbour one layer
        # up, and 4 from 5: the path 3-2-1-0-5-4, whose centroid is 0
        assert oracle_module._separator_order(cycle(6)) == [0, 2, 5, 3, 1, 4]

    def test_distances_past_255_are_exact(self):
        # a cycle of 600 has labels with a distance of 256 or more and
        # labels without; every vertex of the first kind, and a sample of
        # the second, reads its whole BFS row from the labels
        hidden, _ = generate(FamilySpec(family="cycle", n=600, max_degree=2, seed=0))
        o = DistanceOracle(hidden)
        o._labels = o._build_labels()
        _, dists, ends = o._labels
        wide = [u for u in range(hidden.n) if max(dists[ends[u]:ends[u + 1]]) >= 256]
        narrow = sorted(set(range(hidden.n)) - set(wide))
        assert wide and narrow
        for u in wide + narrow[:: len(narrow) // 10][:10]:
            assert [o._distance(u, v) for v in range(hidden.n)] == bfs_distances(hidden, u)

    def test_three_tree_labels_stay_small(self):
        n = 1024
        hidden, _ = generate(FamilySpec(family="ktree", n=n, max_degree=12, k=3, seed=0))
        o = DistanceOracle(hidden)
        assert o._build_labels() and o.stats.label_entries <= 15 * n

    @pytest.mark.parametrize("label_budget", [0, oracle_module._LABEL_BUDGET],
                             ids=["rows", "labels"])
    def test_held_row_on_a_cycle(self, monkeypatch, label_budget):
        # labels and rows hold an end by one rule; they differ only in how
        # the held end is loaded: a complete row, or its label spread over via
        monkeypatch.setattr(oracle_module, "_LABEL_BUDGET", label_budget)
        rows = label_budget == 0
        g = cycle(64)
        if rows:
            check_held_row(g)
        table = brute_all_pairs(g)
        o = DistanceOracle(g)
        # (pair, the vertex held after it, rows built so far past the budget)
        steps = [
            ((0, 32), 32, 1),  # no end held and no pair before: v
            ((5, 32), 32, 1),  # a held end, second
            ((32, 7), 32, 1),  # a held end, first
            ((7, 9), 7, 2),  # no end held: 7 was in the pair before
            ((9, 7), 7, 2),
            ((3, 9), 9, 3),  # 9 was in the pair before, as its other end
            ((1, 2), 2, 4),  # neither end was in the pair before: v
        ]
        for (u, v), held, built in steps:
            assert o.query(u, v, ANC) == table[u][v]
            assert o._held == held and o.stats.fallback_rows == (built if rows else 0)
            if rows:
                assert o._via == table[held]
            else:
                hubs, dists, ends = o._labels
                spread = [g.n] * g.n
                for i in range(ends[held], ends[held + 1]):
                    spread[hubs[i]] = dists[i]
                assert o._via == spread
        if rows:
            # the build stopped at its first root's n entries and left no labels
            assert o._labels == [] and o.stats.label_entries == g.n

    def test_ancestor_queries_read_labels_and_batches_keep_no_rows(self):
        # a 2-tree asks most of its queries in neighbour-search batches;
        # none of those may leave a row behind
        n = 1024
        hidden, _ = generate(FamilySpec(family="ktree", n=n, max_degree=8, k=2, seed=0))
        o = DistanceOracle(hidden)
        reconstruct(o, ReconstructionConfig(tau=1, strict_budget=True, max_degree=8))
        assert o.ledger.per_phase[ANC] > 0
        assert o._labels and o.stats.fallback_rows == 0
        assert 0 < o.stats.label_entries <= 4 * n * 10
        assert o.stats.balls_transient >= n - 1

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_labels_match_bfs_on_every_family(self, data):
        family = data.draw(st.sampled_from(FAMILIES))
        spec = data.draw(small_spec(family))
        try:
            hidden, _ = generate(spec)
        except InfeasibleSpecError:
            reject()
        check_all_pairs(hidden)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_bounded_degree_labels_overflow_to_exact_rows(self, seed):
        n = 512
        hidden, _ = generate(
            FamilySpec(family="bounded-degree-connected", n=n, max_degree=4, seed=seed))
        o = check_all_pairs(hidden)
        assert o._labels == [] and o.stats.label_entries > 4 * n * 9
        # two held rows per u, v's then u's, but one for u = n - 2, whose
        # loop asks one pair
        assert o.stats.fallback_rows == 2 * n - 3


def check_held_row(graph):
    """Past the label budget, check that a descent (w, x) over many w builds
    one row and a loop over v with u fixed at most two, with exact answers
    and one n-entry row held."""
    table = brute_all_pairs(graph)
    n = graph.n
    o = DistanceOracle(graph)
    x = n // 2
    for w in [x - 1, 1, n - 1, 0, 1, x + 3]:
        assert o.query(w, x, ANC) == table[w][x]
    assert o._labels == [] and o._held == x and o.stats.fallback_rows == 1
    o = DistanceOracle(graph)
    for u in range(n):
        built = o.stats.fallback_rows
        for v in range(u + 1, n):
            assert o.query(u, v, ANC) == table[u][v]
            assert len(o._via) == n and o._via == table[o._held]
        assert o.stats.fallback_rows - built <= 2
    assert o.stats.visited == n * o.stats.fallback_rows


def small_spec(family):
    """FamilySpecs of family with at most 60 vertices. Degree caps leave
    headroom, but a k-tree draw can still be infeasible (the generator finds
    no attachable clique under the cap), so callers reject those."""
    seed = st.integers(0, 2**32 - 1)
    if family == "ktree":
        return st.builds(lambda k, n, s: FamilySpec(family, n, 4 * k, k=k, seed=s),
                         st.integers(1, 3), st.integers(4, 60), seed)
    if family == "ring-of-cliques":
        return st.builds(lambda c, m, s: FamilySpec(family, c * m, c + 1, clique_size=c, seed=s),
                         st.integers(1, 4), st.integers(1, 15), seed)
    return st.builds(lambda n, d, s: FamilySpec(family, n, d, seed=s),
                     st.integers(3, 60), st.integers(2, 5), seed)


def check_all_pairs(hidden):
    """Check that query answers every pair of hidden as BFS does; return the
    oracle."""
    table = brute_all_pairs(hidden)
    o = DistanceOracle(hidden)
    for u in range(hidden.n):
        for v in range(u + 1, hidden.n):
            assert o.query(u, v, ANC) == table[u][v]
    if o._labels:
        assert o.stats.fallback_rows == 0
    return o


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

    # "out" marks a call from one hub to its next ring outward, so the hub is
    # asked again and again at rising distances: its batches grow balls of
    # rising radius, and past the label budget its queries reuse one row
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
    # labels within the default budget or none at all
    budgets = {"_LABEL_BUDGET": draw(st.sampled_from([oracle_module._LABEL_BUDGET, 0]))}
    return graph, calls, budgets


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


def check_rows(o, table, touched):
    """Built labels answer every pair from a touched vertex exactly and
    build no row; past the label budget, the held row is its vertex's
    complete row."""
    n = o.n
    if o._labels:
        assert o.stats.fallback_rows == 0
        for u in touched:
            assert [o._distance(u, v) for v in range(n)] == table[u]
    elif o._labels == []:
        assert len(o._via) == n and o._via == table[o._held]


def asked(a, targets):
    """The unordered pairs (a, t) for t in targets, self-pairs left out."""
    return {(min(a, t), max(a, t)) for t in targets if t != a}


def check_interleaved(graph, calls, budgets):
    table = brute_all_pairs(graph)
    o = DistanceOracle(graph)
    model = set()  # every pair asked so far, each charged once
    with mock.patch.multiple(oracle_module, **budgets):
        for kind, a, b in calls:
            if kind == "batch":
                out = o.batch_distances_from(a, b, ANC)
                assert out == {t: table[a][t] for t in b}
                touched = [a]
                model |= asked(a, b)
            else:
                assert o.query(a, b, ANC) == table[a][b]
                assert o.query(b, a, ANC) == table[b][a]
                touched = [a, b]
                model |= asked(a, [b])
            assert o.ledger.distinct_queries == len(model)
            check_rows(o, table, touched)


def ledger_state(o):
    ledger = o.ledger
    return ledger.distinct_queries, ledger.raw_calls, ledger.per_phase, ledger.log


def check_batch_matches_queries(graph, calls, budgets):
    """A batch's answers and accounting equal one query per distinct target."""
    table = brute_all_pairs(graph)
    batched = DistanceOracle(graph, log_queries=True)
    single = DistanceOracle(graph, log_queries=True)
    # both oracles keep one ledger layout, so the distinct count is also
    # checked against a plain set of the pairs asked
    model = set()
    with mock.patch.multiple(oracle_module, **budgets):
        for kind, a, b in calls:
            if kind == "batch":
                out = batched.batch_distances_from(a, b, ANC)
                assert out == {t: single.query(a, t, ANC) for t in dict.fromkeys(b)}
                assert list(out) == list(dict.fromkeys(b))
                model |= asked(a, b)
            else:
                assert batched.query(a, b, ANC) == single.query(a, b, ANC)
                model |= asked(a, [b])
            assert ledger_state(batched) == ledger_state(single)
            assert batched.ledger.distinct_queries == len(model)
        for kind, a, b in calls:
            for t in b if kind == "batch" else [b]:
                for u, v in ((a, t), (t, a)):
                    assert batched.query(u, v, ANC) == single.query(u, v, ANC) == table[u][v]
                    assert batched.ledger.distinct_queries == len(model)
        assert ledger_state(batched) == ledger_state(single)


class TestReAskedPairs:
    """A pair charged by query or by batch is answered again, by either
    call and in either order, and charges nothing, also after a batch has
    charged pairs at an endpoint of an earlier single query."""

    @pytest.mark.parametrize("label_budget", [oracle_module._LABEL_BUDGET, 0])
    def test_re_asked_pairs_charge_nothing(self, monkeypatch, label_budget):
        monkeypatch.setattr(oracle_module, "_LABEL_BUDGET", label_budget)
        g = Graph(9, [(v, (v + 1) % 9) for v in range(9)] + [(0, 4)])
        table = brute_all_pairs(g)
        o = DistanceOracle(g, log_queries=True)
        assert o.query(2, 6, ANC) == table[2][6]
        assert o.batch_distances_from(2, [0, 6, 7, 2], ANC) == {t: table[2][t] for t in (0, 6, 7, 2)}
        assert o.batch_distances_from(5, [8], ANC) == {8: table[5][8]}
        charged = o.ledger.snapshot()
        assert charged.distinct_queries == 4
        for u, v in [(2, 6), (2, 0), (2, 7), (5, 8)]:
            for a, b in ((u, v), (v, u)):
                assert o.query(a, b, ANC) == table[a][b]
                assert o.batch_distances_from(a, [b, a], ANC) == {b: table[a][b], a: 0}
                assert o.query(a, b, ANC) == table[a][b]
        assert o.ledger.distinct_queries == 4 and o.ledger.log == charged.log
        assert o.ledger.per_phase == charged.per_phase


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
        # a BFS ball per pivot neighbour, grown out to each query, visits
        # about 0.42 n^2 vertices here (443,414); with ancestor queries read
        # from labels, the 1,023 throwaway batch balls visit 14,332 and the
        # label build 9,742
        n = 1024
        hidden, _ = generate(FamilySpec(family="caterpillar", n=n, max_degree=4, seed=0))
        o = DistanceOracle(hidden)
        reconstruct(o, ReconstructionConfig(tau=1, strict_budget=True, max_degree=4))
        assert o.stats.visited + o.stats.label_visits <= 32 * n
        assert o.stats.label_entries <= 16 * n  # a bit over 8 per vertex
        assert o.stats.fallback_rows == 0
        assert o.stats.balls_transient <= n

    def test_answered_pairs_stay_lean(self):
        # bytes the oracle still holds per charged pair once the run is
        # over: a small dict per vertex mapping partners to distances held
        # about 42, 32-bit partner ids at both ends about 11; 16-bit ids read
        # 5.81, and rows past n/16 ids turned into bitmaps of n bits, as
        # 985 of the 1,024 rows here end, 2.17
        hidden, _ = generate(FamilySpec(family="ktree", n=1024, max_degree=8, k=2, seed=0))
        tracemalloc.start()
        try:
            o = DistanceOracle(hidden)
            base = tracemalloc.get_traced_memory()[0]
            reconstruct(o, ReconstructionConfig(tau=1, strict_budget=True, max_degree=8))
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert kept <= 3 * o.ledger.distinct_queries

    @pytest.mark.parametrize("family,n,delta,k,entries,visits", [
        ("random-tree", 2048, 4, None, 14146, 16736),
        ("ktree", 1024, 8, 2, 11080, 14820),
        ("caterpillar", 2048, 4, None, 18805, 21517),
    ])
    def test_labels_stay_lean(self, family, n, delta, k, entries, visits):
        # bytes the labels retain per entry: a hub -> distance dict per
        # vertex held 47 to 54; a hub tuple and a distance tuple per vertex,
        # with the held hub array, 28 to 35; distances as bytes where all
        # are below 256, 20.2 (2-tree) to 26.8 (random tree); three flat
        # arrays (hubs, distances, offsets) with no object per vertex, 5.3
        # to 5.9. The build itself is unchanged: the same entries from the
        # same pruned BFSs
        hidden, _ = generate(FamilySpec(family=family, n=n, max_degree=delta, k=k, seed=0))
        o = DistanceOracle(hidden)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            labels = o._build_labels()
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert labels
        assert (o.stats.label_entries, o.stats.label_visits) == (entries, visits)
        assert kept <= 8 * entries


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
