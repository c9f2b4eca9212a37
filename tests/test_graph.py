import gc
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sprec import (
    EdgeListParseError,
    FamilySpec,
    Graph,
    GraphBuilder,
    bfs_distances,
    generate,
    graphs_equal,
    is_connected,
    max_degree,
    read_edge_list,
    write_edge_list,
)
from sprec.graph import UNREACHABLE, components_masked, neighbors_of_set

from .conftest import brute_all_pairs, brute_components, random_graph


def path(n):
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def cycle(n):
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


C6 = cycle(6)


class TestConstruction:
    def test_adjacency_is_sorted_and_symmetric(self):
        g = Graph(4, [(3, 1), (0, 3), (2, 0)])
        assert g.adj == ((2, 3), (3,), (0,), (0, 1))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(1, 1)])

    def test_rejects_duplicate_edge_either_orientation(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 2)])

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(ValueError, match="^vertex count must be nonnegative$"):
            Graph(-1)

    @pytest.mark.parametrize("edges, pair", [
        ([(4, 2), (0, 1), (1, 2), (3, 4), (2, 4)], "2,4"),
        ([(2, 3), (0, 1), (3, 2), (1, 0)], "0,1"),  # the least repeated pair
    ])
    def test_duplicate_edge_is_named(self, edges, pair):
        with pytest.raises(ValueError, match=rf"^duplicate edge \({pair}\)$"):
            Graph(5, edges)

    def test_builder_round_trip(self):
        b = GraphBuilder(4)
        b.add_edge(2, 0)
        b.add_edge(1, 3)
        assert b.to_graph() == Graph(4, [(0, 2), (1, 3)])

    def test_builder_rejects_an_edge_added_twice(self):
        b = GraphBuilder(3)
        b.add_edge(0, 1)
        b.add_edge(1, 0)
        with pytest.raises(ValueError, match=r"^duplicate edge \(0,1\)$"):
            b.to_graph()

    def test_builder_names_the_same_repeated_pair_as_graph(self):
        # repeats at vertices 1 and 3: both name the least pair
        edges = [(4, 3), (0, 2), (3, 4), (2, 1), (1, 2)]
        b = GraphBuilder(5)
        for u, v in edges:
            b.add_edge(u, v)
        with pytest.raises(ValueError, match=r"^duplicate edge \(1,2\)$"):
            Graph(5, edges)
        with pytest.raises(ValueError, match=r"^duplicate edge \(1,2\)$"):
            b.to_graph()

    def test_random_builders_freeze_to_the_graph_of_their_edges(self):
        rng = random.Random(12)
        for _ in range(50):
            n = rng.randint(0, 30)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = [(v, u) if rng.random() < 0.5 else (u, v)
                     for u, v in rng.sample(pairs, rng.randint(0, len(pairs)))]
            b = GraphBuilder(n)
            for u, v in edges:
                b.add_edge(u, v)
            g = b.to_graph()
            assert g == Graph(n, edges)
            assert all(type(a) is tuple for a in g.adj)
            # the graph keeps the builder's own lists, frozen: no second copy
            assert all(x is y for x, y in zip(g.adj, b.adj))

    @pytest.mark.parametrize("u, v, bad", [(0, 5, 5), (0, -1, -1), (3, 1, 3)])
    def test_builder_rejects_out_of_range_vertex(self, u, v, bad):
        b = GraphBuilder(3)
        b.add_edge(0, 1)
        with pytest.raises(ValueError, match=rf"^vertex {bad} out of range for n=3$"):
            b.add_edge(u, v)
        assert b.adj == [(1,), (0,), ()]
        assert b.to_graph() == Graph(3, [(0, 1)])

    def test_builder_rejects_self_loop(self):
        b = GraphBuilder(3)
        with pytest.raises(ValueError, match="^self-loop at vertex 1$"):
            b.add_edge(1, 1)
        assert b.adj == [(), (), ()]

    @pytest.mark.parametrize("family", ["random-tree", "caterpillar"])
    def test_builder_stays_lean(self, family):
        # Bytes a builder holds per vertex once a tree's n - 1 edges are in.
        # A list per vertex, grown by appends, held 96.9 on both trees; a
        # tuple with no spare slots holds 64.0, as its 40 + 8 * degree bytes
        # average 56 on any tree, plus the builder's pointer to it.
        g, _ = generate(FamilySpec(family=family, n=2048, max_degree=4, seed=0))
        edges = list(g.edges())
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            b = GraphBuilder(g.n)
            for u, v in edges:
                b.add_edge(u, v)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert kept / g.n <= 80
        assert b.to_graph() == g

    def test_edges_lexicographic(self):
        g = Graph(4, [(2, 3), (0, 2), (0, 1)])
        assert list(g.edges()) == [(0, 1), (0, 2), (2, 3)]


class TestBfs:
    def test_path_distances(self):
        assert bfs_distances(path(5), 0) == [0, 1, 2, 3, 4]

    def test_single_vertex(self):
        assert bfs_distances(Graph(1), 0) == [0]

    def test_cycle_c6(self):
        assert bfs_distances(C6, 0) == [0, 1, 2, 3, 2, 1]
        assert bfs_distances(C6, 0) == brute_all_pairs(C6)[0]

    def test_source_out_of_range(self):
        with pytest.raises(ValueError):
            bfs_distances(path(3), 3)

    def test_unreachable_sentinel(self):
        g = Graph(3, [(0, 1)])
        assert bfs_distances(g, 0) == [0, 1, UNREACHABLE]


class TestComponentsMasked:
    def test_c6_minus_root(self):
        labels = components_masked(C6, {1, 2, 3, 4, 5})
        assert labels == {v: 1 for v in (1, 2, 3, 4, 5)}

    def test_c6_arc(self):
        assert components_masked(C6, {2, 3, 4}) == {2: 2, 3: 2, 4: 2}

    def test_empty_mask(self):
        assert components_masked(C6, set()) == {}

    def test_agrees_with_union_find_on_random_masked_graphs(self):
        rng = random.Random(7)
        for _ in range(1000):
            n = rng.randint(1, 28)
            g = random_graph(rng, n, rng.randint(0, n))
            alive = {v for v in range(n) if rng.random() < 0.6}
            assert components_masked(g, alive) == brute_components(g, alive)


class TestNeighborsOfSet:
    def test_path_interior(self):
        assert neighbors_of_set(path(5), {2}) == {1, 3}

    def test_c6_pair(self):
        assert neighbors_of_set(C6, {0, 1}) == {2, 5}

    def test_whole_vertex_set(self):
        assert neighbors_of_set(C6, set(range(6))) == set()


class TestScalars:
    def test_max_degree_c6(self):
        assert max_degree(C6) == 2

    def test_is_connected_false_on_isolated_pair(self):
        assert not is_connected(Graph(2))

    def test_graphs_equal_identity(self):
        assert graphs_equal(C6, C6)
        assert graphs_equal(C6, cycle(6))
        assert not graphs_equal(C6, path(6))


class TestEdgeListFormat:
    def test_parse_path3(self):
        assert read_edge_list("3 2\n0 1\n1 2\n") == path(3)

    def test_round_trip_is_byte_identical(self):
        text = "4 3\n0 1\n0 2\n2 3\n"
        assert write_edge_list(read_edge_list(text)) == text

    def test_comments_and_blank_lines_skipped(self):
        text = "# generated\n3 2\n\n0 1\n# mid comment\n1 2\n"
        assert read_edge_list(text) == path(3)

    def test_self_loop_reports_line(self):
        with pytest.raises(EdgeListParseError, match="self-loop at line 2"):
            read_edge_list("2 1\n0 0\n")

    def test_duplicate_edge_reports_line(self):
        with pytest.raises(EdgeListParseError, match="duplicate edge at line 3"):
            read_edge_list("2 2\n0 1\n1 0\n")

    def test_vertex_out_of_range_reports_line(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            read_edge_list("2 1\n0 5\n")

    def test_malformed_line(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            read_edge_list("2 1\n0 1 9\n")

    @pytest.mark.parametrize("text, message", [
        ("3\n", "expected 'n m' header at line 1"),
        ("a b\n", "non-integer header field at line 1"),
        ("-1 0\n", "negative header value at line 1"),
        ("2 1\n0 x\n", "non-integer vertex at line 2"),
    ])
    def test_bad_field_names_its_line(self, text, message):
        with pytest.raises(EdgeListParseError, match=f"^{message}$"):
            read_edge_list(text)

    def test_missing_header(self):
        with pytest.raises(EdgeListParseError, match="header"):
            read_edge_list("# nothing here\n")

    def test_missing_edges(self):
        with pytest.raises(EdgeListParseError, match="expected 2 edges"):
            read_edge_list("3 2\n0 1\n")

    def test_extra_edges(self):
        with pytest.raises(EdgeListParseError, match="line 3"):
            read_edge_list("3 1\n0 1\n1 2\n")


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=40)) if possible else []
    return Graph(n, edges)


@settings(max_examples=80, deadline=None)
@given(graphs())
def test_bfs_edge_invariant(g):
    dist = bfs_distances(g, 0)
    assert dist[0] == 0
    for u, v in g.edges():
        if dist[u] != UNREACHABLE and dist[v] != UNREACHABLE:
            assert abs(dist[u] - dist[v]) <= 1
        else:
            assert dist[u] == dist[v] == UNREACHABLE


@settings(max_examples=80, deadline=None)
@given(graphs())
def test_edge_list_round_trip(g):
    assert read_edge_list(write_edge_list(g)) == g
