import random

import pytest

from sprec import (
    DistanceOracle,
    FamilySpec,
    Graph,
    LayeringInvariantError,
    LayeringTree,
    PartialTreeError,
    build_layering,
    build_layering_tree,
    generate,
    max_degree,
    tree_length,
)
from sprec.layering import centroid, layering_from_depths
from sprec.reconstruct import _AncestorSearch, _grow_tree

from .conftest import (
    brute_components,
    capped_tree,
    connected_subsets,
    prefix_graph,
    random_graph,
    subtree_form,
    tree_neighbors,
    truncation,
)
from .reference_search import reference_centroid


def path(n):
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def cycle(n):
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def star(leaves):
    return Graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


C6 = cycle(6)
C6_LAY = build_layering(C6, 0)


def random_tree(rng, n):
    return Graph(n, [(rng.randrange(v), v) for v in range(1, n)])


class TestLayering:
    def test_c6(self):
        assert C6_LAY.layers == ((0,), (1, 5), (2, 4), (3,))
        assert C6_LAY.depth == (0, 1, 2, 3, 2, 1)

    def test_star_from_center(self):
        lay = build_layering(star(4), 0)
        assert lay.layers == ((0,), (1, 2, 3, 4))

    def test_path_singletons(self):
        lay = build_layering(path(5), 0)
        assert lay.layers == tuple((v,) for v in range(5))

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            build_layering(Graph(3, [(0, 1)]), 0)

    def test_from_depths_rejects_gap(self):
        with pytest.raises(ValueError, match="empty layer"):
            layering_from_depths(0, [0, 2])


class TestLayeringTree:
    def test_c6_is_a_path_of_four_parts(self):
        tree = build_layering_tree(C6, C6_LAY)
        assert [(p.layer, p.vertices) for p in tree.parts] == [
            (0, (0,)),
            (1, (1, 5)),
            (2, (2, 4)),
            (3, (3,)),
        ]
        assert tree.parent == [-1, 0, 1, 2]

    def test_tree_graph_parts_are_singletons(self):
        rng = random.Random(4)
        for n in (2, 9, 40):
            g = random_tree(rng, n)
            for root in range(0, n, max(1, n // 3)):
                lay = build_layering(g, root)
                tree = build_layering_tree(g, lay)
                assert all(len(p.vertices) == 1 for p in tree.parts)
                assert len(tree.parts) == n

    def test_path_rooted_in_middle_splits_layer(self):
        lay = build_layering(path(5), 2)
        tree = build_layering_tree(path(5), lay)
        layer1 = [p.vertices for p in tree.parts if p.layer == 1]
        assert sorted(layer1) == [(1,), (3,)]

    def test_structural_invariants_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(2, 50)
            g = random_graph(rng, n, rng.randint(0, n))
            lay = build_layering(g, rng.randrange(n))
            tree = build_layering_tree(g, lay)
            # parts partition each layer
            for j, layer in enumerate(lay.layers):
                shards = [p.vertices for p in tree.parts if p.layer == j]
                flat = sorted(v for vs in shards for v in vs)
                assert flat == sorted(layer)
            # connected tree over parts
            assert sum(1 for pid in range(len(tree.parts)) if tree.parent[pid] >= 0) == len(tree.parts) - 1
            # every tree edge spans consecutive layers
            for pid, par in enumerate(tree.parent):
                if par >= 0:
                    assert tree.parts[pid].layer == tree.parts[par].layer + 1
            # every graph edge stays inside a part or joins part and parent
            for u, v in g.edges():
                pu, pv = tree.vertex_to_part[u], tree.vertex_to_part[v]
                if pu != pv:
                    assert tree.parent[pu] == pv or tree.parent[pv] == pu


    @pytest.mark.parametrize("family", ["random-tree", "caterpillar"])
    def test_counts_match_a_recount_after_every_layer(self, family):
        g, _ = generate(FamilySpec(family=family, n=200, max_degree=4, seed=5))
        lay = build_layering(g, 0)
        labels = build_layering_tree(g, lay).vertex_to_part  # component labels
        tree = LayeringTree(g.n)
        for k in range(lay.num_layers):
            tree.append_layer(k, {v: labels[v] for v in lay.layers[k]}, lay, g)
            size = [0] * len(tree.parts)
            caps = [[0, 0] for _ in tree.parts]
            for q, part in enumerate(tree.parts):
                p = q
                while p >= 0:
                    size[p] += 1
                    if part.layer == k:
                        caps[p][0] += 1
                        caps[p][1] += q
                    p = tree.parent[p]
            assert tree.size == size
            assert [list(tree.caps_below(p)) for p in range(len(tree.parts))] == caps


class TestTreeLength:
    def test_tree_graphs_have_zero_length(self):
        rng = random.Random(21)
        for n in (2, 17, 60):
            g = random_tree(rng, n)
            lay = build_layering(g, 0)
            assert tree_length(g, build_layering_tree(g, lay)) == 0

    def test_c6_rooted_at_zero(self):
        assert tree_length(C6, build_layering_tree(C6, C6_LAY)) == 2

    def test_complete_graph(self):
        k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        lay = build_layering(k4, 0)
        assert tree_length(k4, build_layering_tree(k4, lay)) == 1


class TestExtendPartialTree:
    def test_full_prefix_equals_truncation_c6(self):
        full = build_layering_tree(C6, C6_LAY)
        for k in range(2):
            got = capped_tree(C6, C6_LAY, k, 2)
            assert truncation(got, k) == truncation(full, k)

    def test_c6_cap_one(self):
        tree = capped_tree(C6, C6_LAY, 1, 2)
        assert [(p.layer, p.vertices) for p in tree.parts] == [(0, (0,)), (1, (1, 5))]
        assert tree.parent == [-1, 0]

    def test_cap_zero(self):
        tree = capped_tree(C6, C6_LAY, 0, 2)
        assert [(p.layer, p.vertices) for p in tree.parts] == [(0, (0,))]

    def test_precondition_rejected(self):
        # layers join the capped tree one at a time, in order
        tree = capped_tree(C6, C6_LAY, 0, 2)
        with pytest.raises(PartialTreeError):
            _grow_tree(tree, C6_LAY, C6, 2, 2)

    def test_part_without_a_neighbor_one_layer_up_raises(self):
        # the prefix graph lacks the edge (0, 1), so part [1] hangs from nothing
        g = path(8)
        lay = build_layering(g, 0)
        tree = capped_tree(g, lay, 0, 2)
        with pytest.raises(LayeringInvariantError,
                           match=r"^part \[1\] at layer 1 has no neighbor one layer up$"):
            tree.append_layer(1, {1: 1}, lay, Graph(8, [(1, 2)]))

    def test_truncation_equivalence_from_real_prefixes(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(4, 60)
            g = random_graph(rng, n, rng.randint(0, n // 2))
            root = rng.randrange(n)
            lay = build_layering(g, root)
            full = build_layering_tree(g, lay)
            ell = tree_length(g, full)
            for i in range(ell + 2, lay.num_layers + 1):
                k = i - ell - 2
                got = capped_tree(prefix_graph(g, lay, i), lay, k, ell)
                assert truncation(got, k) == truncation(full, k)

    def test_incremental_extension_matches_fresh_build(self):
        rng = random.Random(9)
        g = random_graph(rng, 40, 10)
        lay = build_layering(g, 0)
        full = build_layering_tree(g, lay)
        ell = tree_length(g, full)
        max_k = lay.num_layers - ell - 2
        if max_k < 1:
            pytest.skip("instance too shallow for an incremental walk")
        tree = LayeringTree(g.n)
        for k in range(0, max_k):
            _grow_tree(tree, lay, g, k, ell)
            assert truncation(tree, k) == truncation(full, k)


def split_sizes(tree, subset, pid):
    """Component sizes of the subset's subtree once pid is removed, brute force."""
    rest = set(subset) - {pid}
    sizes = []
    while rest:
        seed = min(rest)
        comp = {seed}
        stack = [seed]
        while stack:
            q = stack.pop()
            for r in tree_neighbors(tree, q):
                if r in rest and r not in comp:
                    comp.add(r)
                    stack.append(r)
        sizes.append(len(comp))
        rest -= comp
    return sizes


def check_walk(tree, subset):
    """The walk from every start of a connected subset returns the reference
    centroid, which halves the subset."""
    top, excluded = subtree_form(tree, subset)
    expect = reference_centroid(tree, subset)
    for start in subset:
        assert centroid(tree, top, excluded, start) == expect
    assert max(split_sizes(tree, subset, expect), default=0) <= len(subset) // 2
    return expect


class TestCentroid:
    def test_path_of_three_parts(self):
        tree = build_layering_tree(C6, C6_LAY)
        assert centroid(tree, 0, (3,), 0) == 1
        assert check_walk(tree, [0, 1, 2]) == 1

    def test_single_part(self):
        tree = build_layering_tree(C6, C6_LAY)
        assert centroid(tree, 2, (3,), 2) == 2
        assert check_walk(tree, [2]) == 2

    def test_equal_halves_tie_to_the_smaller_id(self):
        # C6 gives a path of four parts: parts 1 and 2 both leave a largest
        # component of 2, and the walk must pick 1 from either side
        tree = build_layering_tree(C6, C6_LAY)
        assert tree.parent == [-1, 0, 1, 2]
        for start in range(4):
            assert centroid(tree, 0, (), start) == 1
        assert centroid(tree, 1, (), 3) == 2

    def test_star_center_wins_exhaustively(self):
        g = star(4)
        lay = build_layering(g, 0)
        tree = build_layering_tree(g, lay)
        subset = list(range(len(tree.parts)))
        # exhaustive check: the winner minimizes the worst component size
        scores = {pid: max(split_sizes(tree, subset, pid)) for pid in subset}
        assert check_walk(tree, subset) == 0
        assert scores[0] == min(scores.values()) <= len(subset) // 2

    def test_halving_and_internality_on_random_trees(self):
        rng = random.Random(33)
        for _ in range(50):
            n = rng.randint(3, 60)
            g = random_tree(rng, n)
            lay = build_layering(g, 0)
            tree = build_layering_tree(g, lay)
            subset = list(range(len(tree.parts)))
            pid = check_walk(tree, subset)
            if len(subset) >= 3:
                deg = sum(1 for q in tree_neighbors(tree, pid) if q in subset)
                assert deg >= 2

    def test_matches_reference_on_every_connected_subset(self):
        rng = random.Random(34)
        checked = 0
        for trial in range(40):
            n = rng.randint(2, 11)
            g = random_tree(rng, n) if trial % 2 else random_graph(rng, n, rng.randint(0, 4))
            tree = build_layering_tree(g, build_layering(g, 0))
            for subset in connected_subsets(tree):
                check_walk(tree, subset)
                checked += 1
        assert checked > 1000

    # (top, excluded) cannot name an empty or disconnected subset, so these
    # rejections are properties of the set-based reference only.
    def test_disconnected_subset_rejected(self):
        tree = build_layering_tree(C6, C6_LAY)
        with pytest.raises(ValueError, match="not connected"):
            reference_centroid(tree, [0, 2])

    def test_empty_subset_rejected(self):
        tree = build_layering_tree(C6, C6_LAY)
        with pytest.raises(ValueError):
            reference_centroid(tree, [])


class TestCompAndAnc:
    """Capped-layer ancestors: by window labels above layer i, by search at i."""

    @staticmethod
    def label_anc(tree, labels, u):
        by_label = {labels[tree.parts[pid].vertices[0]]: pid for pid in tree.parts_at(tree.cap)}
        return by_label[labels[u]]

    def test_anc_at_cap_is_own_part(self):
        tree = capped_tree(C6, C6_LAY, 0, 2)
        labels = _grow_tree(tree, C6_LAY, C6, 1, 2)
        assert self.label_anc(tree, labels, 5) == tree.vertex_to_part[5]

    def test_anc_c6_vertex_three(self):
        tree = capped_tree(C6, C6_LAY, 0, 2)
        labels = _grow_tree(tree, C6_LAY, C6, 1, 2)
        assert tree.parts[self.label_anc(tree, labels, 3)].vertices == (1, 5)

    def test_anc_path_chain(self):
        g = path(5)
        lay = build_layering(g, 0)
        tree = capped_tree(g, lay, 2, 0)
        pid, _, _ = _AncestorSearch(tree, g).locate(4, DistanceOracle(g))
        assert tree.parts[pid].vertices == (2,)

    def test_anc_agrees_with_brute_components(self):
        rng = random.Random(8)
        for _ in range(30):
            n = rng.randint(6, 48)
            g = random_graph(rng, n, rng.randint(0, n // 2))
            lay = build_layering(g, 0)
            full = build_layering_tree(g, lay)
            ell = tree_length(g, full)
            tree = LayeringTree(n)
            for k in range(0, max(0, lay.num_layers - ell - 2)):
                labels = _grow_tree(tree, lay, g, k, ell)
                alive = {v for v in range(n) if lay.depth[v] >= k}
                brute = brute_components(g, alive)
                for u in range(n):
                    if k <= lay.depth[u] < k + ell + 2:
                        pid = self.label_anc(tree, labels, u)
                        assert brute[tree.parts[pid].vertices[0]] == brute[u]


class TestStructureBounds:
    def test_part_size_bound(self):
        rng = random.Random(44)
        for _ in range(40):
            n = rng.randint(2, 64)
            g = random_graph(rng, n, rng.randint(0, n))
            lay = build_layering(g, 0)
            tree = build_layering_tree(g, lay)
            ell = tree_length(g, tree)
            cap = max_degree(g) ** (ell + 1)
            assert all(len(p.vertices) <= cap for p in tree.parts)

    def test_window_connectivity(self):
        rng = random.Random(45)
        for _ in range(40):
            n = rng.randint(2, 64)
            g = random_graph(rng, n, rng.randint(0, n))
            lay = build_layering(g, 0)
            tree = build_layering_tree(g, lay)
            ell = tree_length(g, tree)
            for p in tree.parts:
                window = {
                    v
                    for v in range(n)
                    if p.layer <= lay.depth[v] <= p.layer + ell + 1
                }
                labels = brute_components(g, window)
                roots = {labels[v] for v in p.vertices}
                assert len(roots) == 1
