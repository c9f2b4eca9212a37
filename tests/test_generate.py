import hashlib
import inspect
import sys
from dataclasses import replace

import pytest

from sprec import (
    BOUNDED_DEGREE_CONNECTED,
    CATERPILLAR,
    CYCLE,
    DistanceOracle,
    FamilySpec,
    Graph,
    InfeasibleSpecError,
    KTREE,
    RANDOM_TREE,
    RING_OF_CLIQUES,
    ReconstructionConfig,
    build_layering,
    build_layering_tree,
    generate,
    graphs_equal,
    is_connected,
    max_degree,
    reconstruct,
    tree_length,
    write_edge_list,
)
from sprec.generate import SplitMix64, _ktree

from .baselines import (
    is_chordal,
    perfect_elimination_ordering,
    verify_family_invariants,
)


class TestSplitMix64:
    def test_known_answer_seed_zero(self):
        r = SplitMix64(0)
        assert [r.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_same_seed_same_stream(self):
        a, b = SplitMix64(987654321), SplitMix64(987654321)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]

    def test_randrange_in_bounds(self):
        r = SplitMix64(42)
        assert all(0 <= r.randrange(7) < 7 for _ in range(2000))

    def test_randrange_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(0).randrange(0)

    def test_randrange_rejects_a_bound_past_64_bits(self):
        # No 64-bit draw could be accepted for such a bound.
        with pytest.raises(ValueError, match=r"^bound must be at most 2\*\*64$"):
            SplitMix64(0).randrange(2**64 + 1)

    @pytest.mark.parametrize("seed", [0, 1, 987654321])
    @pytest.mark.parametrize("bound", [
        1, 2, 3, 7, 2**31 + 1, 2**63 - 1, 2**63 + 1, 2**64 - 1, 2**64,
    ])
    def test_randrange_matches_a_reference_rejection_sampler(self, seed, bound):
        # Accept a draw below the largest multiple of bound that fits in 64
        # bits; at 2**63 + 1 that rejects about half the draws.
        limit = (1 << 64) // bound * bound
        ref = SplitMix64(seed)

        def reference():
            while (r := ref.next_u64()) >= limit:
                pass
            return r % bound

        rng = SplitMix64(seed)
        assert [rng.randrange(bound) for _ in range(2000)] == [reference() for _ in range(2000)]
        assert rng.next_u64() == ref.next_u64()


class TestDeterminism:
    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec(RANDOM_TREE, 50, 4, seed=9),
            FamilySpec(KTREE, 40, 8, k=2, seed=9),
            FamilySpec(RING_OF_CLIQUES, 24, 5, clique_size=4, seed=9),
            FamilySpec(CYCLE, 12, 2, seed=9),
            FamilySpec(CATERPILLAR, 30, 4, seed=9),
            FamilySpec(BOUNDED_DEGREE_CONNECTED, 50, 4, seed=9),
        ],
    )
    def test_same_spec_same_graph(self, spec):
        g1, b1 = generate(spec)
        g2, b2 = generate(spec)
        assert graphs_equal(g1, g2)
        assert b1 == b2

    # sha256 of write_edge_list for each family at a small size, perfbench's
    # three workload specs at seeds 0 and 7, and the k-tree that takes the
    # first-fit fallback: the same spec must give the same bytes on every
    # build.
    @pytest.mark.parametrize("spec, digest", [
        (FamilySpec(RANDOM_TREE, 50, 4, seed=9),
         "d6d4c23931ea832706f1f07a333b04c1f1b91f50f33d9b36c803eab06350d8dd"),
        (FamilySpec(KTREE, 40, 8, k=2, seed=9),
         "5454c507d28c12623d29c31547581cb08402d4141a9238c6022530e629644d25"),
        (FamilySpec(KTREE, 60, 12, k=3, seed=1),
         "31ccbc74e4ac5277cfe4625cf8e11fd7cae507681dfd91c92067d608d49ed24c"),
        (FamilySpec(RING_OF_CLIQUES, 24, 5, clique_size=4, seed=9),
         "f82370ec22044e68706c8e7d2e2f08b7c4ffe6550f7abe837e846b16b8e1e36a"),
        (FamilySpec(CYCLE, 12, 2, seed=9),
         "cebcf76978fc31868a9ea4152fd7d1180e35d4ee1430855a030f54ba3e7cc696"),
        (FamilySpec(CATERPILLAR, 30, 4, seed=9),
         "7424ae05684f7c8cc5e35df2c87c5e9fe0146acdf065d0bafb0f7cbc278c4251"),
        (FamilySpec(BOUNDED_DEGREE_CONNECTED, 50, 4, seed=9),
         "87e0e0fbcbf691870a4c8c1f542a806c80f74b08a37c83d5d2128471ef80e9a4"),
        (FamilySpec(RANDOM_TREE, 8192, 4, seed=0),
         "d857213bf8685432b8dc8471bcd7795ffc8024e01a41c93a6917a7ba06aa03a3"),
        (FamilySpec(KTREE, 4096, 8, k=2, seed=0),
         "68da335aa9447ef38d04f29cb036444ffd1ed4e9e0b887760746043cd175ba0f"),
        (FamilySpec(CATERPILLAR, 2048, 4, seed=0),
         "1972091845b126a39fe5a32654c7385506b7582c27b7e7518b6a0cb72f966d71"),
        (FamilySpec(RANDOM_TREE, 8192, 4, seed=7),
         "a7de23dcdf3cf7c7f76fc9dcf080a429eef357b05bd8ade73e206456270fc276"),
        (FamilySpec(KTREE, 4096, 8, k=2, seed=7),
         "c450ba2ec0c83a0bb6b811ada1b866b34c6321233ae3b7d2992a92981b3c226b"),
        (FamilySpec(CATERPILLAR, 2048, 4, seed=7),
         "802018351e30a66c2cd8cd01876734faef24d5f68d97492d699642fcbe0037bd"),
        (FamilySpec(KTREE, 100, 2, k=1, seed=0),
         "74dfd846c66adf550268a9688f3d68a80ca9e40be821c7d49aa1ddc6efcec898"),
    ])
    def test_pinned_graph(self, spec, digest):
        text = write_edge_list(generate(spec)[0])
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_different_seed_usually_differs(self):
        a, _ = generate(FamilySpec(RANDOM_TREE, 50, 4, seed=0))
        b, _ = generate(FamilySpec(RANDOM_TREE, 50, 4, seed=1))
        assert not graphs_equal(a, b)


class TestSpecValidation:
    @pytest.mark.parametrize("field", ["n", "max_degree", "seed", "k", "clique_size"])
    def test_float_field_is_rejected_before_any_builder_runs(self, field):
        spec = replace(FamilySpec(RANDOM_TREE, 6, 2), **{field: 2.5})
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got 2.5$"):
            generate(spec)

    def test_int_like_fields_pass(self):
        class IntLike:
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        FamilySpec(KTREE, IntLike(6), IntLike(4), k=IntLike(2), clique_size=IntLike(3),
                   seed=IntLike(0)).validate()

    @pytest.mark.parametrize("n, max_degree, message", [
        (0, 2, "n must be at least 1"),
        (6, -1, "max_degree must be nonnegative"),
    ])
    def test_out_of_range_size_or_cap(self, n, max_degree, message):
        with pytest.raises(InfeasibleSpecError, match=f"^{message}$"):
            generate(FamilySpec(RANDOM_TREE, n, max_degree))


class TestRandomTree:
    def test_degree_two_forces_a_path(self):
        for seed in range(10):
            g, tl_bound = generate(FamilySpec(RANDOM_TREE, 5, 2, seed=seed))
            degs = sorted(map(len, g.adj))
            assert degs == [1, 1, 2, 2, 2]
            assert is_connected(g)
            assert tl_bound == 1

    def test_respects_cap_and_connectivity(self):
        for seed in range(20):
            spec = FamilySpec(RANDOM_TREE, 64, 3, seed=seed)
            g, _ = generate(spec)
            assert verify_family_invariants(g, spec) == []

    def test_infeasible_degree(self):
        with pytest.raises(InfeasibleSpecError):
            generate(FamilySpec(RANDOM_TREE, 3, 1, seed=0))


class TestKTree:
    def test_chordal_with_expected_edges(self):
        for seed in range(12):
            spec = FamilySpec(KTREE, 48, 8, k=2, seed=seed)
            g, tl_bound = generate(spec)
            assert verify_family_invariants(g, spec) == []
            assert perfect_elimination_ordering(g) is not None
            assert tl_bound == 1

    def test_layering_length_at_most_three(self):
        for seed in range(12):
            g, _ = generate(FamilySpec(KTREE, 48, 8, k=2, seed=seed))
            lay = build_layering(g, 0)
            assert tree_length(g, build_layering_tree(g, lay)) <= 3

    def test_needs_headroom(self):
        with pytest.raises(InfeasibleSpecError):
            generate(FamilySpec(KTREE, 10, 2, k=2, seed=0))

    def test_needs_k(self):
        with pytest.raises(InfeasibleSpecError):
            generate(FamilySpec(KTREE, 10, 8, seed=0))

    def test_no_attachable_clique_under_the_cap(self):
        with pytest.raises(InfeasibleSpecError, match="^no attachable clique respects the degree cap$"):
            generate(FamilySpec(KTREE, 50, 3, k=2))

    def test_no_attachable_clique_with_headroom(self):
        # 4k headroom does not make every draw feasible: this one paints
        # itself into a corner.
        with pytest.raises(InfeasibleSpecError, match="^no attachable clique respects the degree cap$"):
            generate(FamilySpec(KTREE, 14, 12, k=3, seed=561859655))

    def test_first_fit_after_failed_draws_builds_a_valid_ktree(self):
        # With a cap of 2 a 1-tree is a path, and only its two ends can take
        # a vertex, so 64 random draws often all miss and the builder takes
        # the first attachable clique instead. Line events of _ktree count
        # the entries into that branch.
        code = _ktree.__code__
        lines, first = inspect.getsourcelines(_ktree)
        branch = first + next(i for i, line in enumerate(lines) if "if chosen is None:" in line)
        taken = 0
        last = None

        def on_line(frame, event, arg):
            nonlocal taken, last
            if event == "line":
                if last == branch and frame.f_lineno == branch + 1:
                    taken += 1
                last = frame.f_lineno
            return on_line

        spec = FamilySpec(KTREE, 100, 2, k=1, seed=0)
        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: on_line if frame.f_code is code else None)
        try:
            g, _ = generate(spec)
        finally:
            sys.settrace(previous)
        assert taken == 13
        assert graphs_equal(generate(spec)[0], g)
        assert verify_family_invariants(g, spec) == []
        cfg = ReconstructionConfig(tau=1, strict_budget=True, max_degree=max_degree(g))
        assert graphs_equal(reconstruct(DistanceOracle(g), cfg).graph, g)


class TestRingOfCliques:
    def test_c6_is_a_plain_cycle(self):
        g, tl_bound = generate(FamilySpec(RING_OF_CLIQUES, 6, 2, clique_size=1, seed=0))
        assert graphs_equal(g, Graph(6, [(v, (v + 1) % 6) for v in range(6)]))
        assert tl_bound is None
        lay = build_layering(g, 0)
        assert tree_length(g, build_layering_tree(g, lay)) == 2

    def test_small_rings_are_chordal(self):
        g1, b1 = generate(FamilySpec(RING_OF_CLIQUES, 4, 4, clique_size=4, seed=0))
        g2, b2 = generate(FamilySpec(RING_OF_CLIQUES, 8, 5, clique_size=4, seed=0))
        assert b1 == 1 and b2 == 1
        assert is_chordal(g1) and is_chordal(g2)

    def test_blocks_and_ports(self):
        spec = FamilySpec(RING_OF_CLIQUES, 20, 5, clique_size=4, seed=0)
        g, tl_bound = generate(spec)
        assert verify_family_invariants(g, spec) == []
        assert tl_bound is None
        assert g.m == 5 * 6 + 5

    def test_indivisible_rejected(self):
        with pytest.raises(InfeasibleSpecError):
            generate(FamilySpec(RING_OF_CLIQUES, 10, 5, clique_size=4, seed=0))


class TestCycleFamily:
    def test_exact_edges(self):
        spec = FamilySpec(CYCLE, 6, 2, seed=0)
        g, _ = generate(spec)
        assert verify_family_invariants(g, spec) == []

    def test_too_small_rejected(self):
        with pytest.raises(InfeasibleSpecError):
            generate(FamilySpec(CYCLE, 2, 2, seed=0))


class TestCaterpillar:
    def test_structure(self):
        for seed in range(10):
            spec = FamilySpec(CATERPILLAR, 30, 4, seed=seed)
            g, tl_bound = generate(spec)
            assert verify_family_invariants(g, spec) == []
            assert tl_bound == 1

    def test_degree_two_degenerates_to_path(self):
        g, _ = generate(FamilySpec(CATERPILLAR, 8, 2, seed=0))
        assert sorted(map(len, g.adj)) == [1, 1, 2, 2, 2, 2, 2, 2]


class TestBoundedDegreeConnected:
    def test_connected_and_capped(self):
        for seed in range(15):
            spec = FamilySpec(BOUNDED_DEGREE_CONNECTED, 60, 4, seed=seed)
            g, tl_bound = generate(spec)
            assert verify_family_invariants(g, spec) == []
            assert tl_bound is None

    def test_has_extra_edges_beyond_a_tree(self):
        g, _ = generate(FamilySpec(BOUNDED_DEGREE_CONNECTED, 60, 5, seed=0))
        assert g.m > 59


class TestChordalityCheck:
    def test_c4_is_not_chordal(self):
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert not is_chordal(c4)

    def test_c4_with_chord_is_chordal(self):
        assert is_chordal(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))

    def test_trees_and_cliques_are_chordal(self):
        assert is_chordal(Graph(5, [(0, 1), (0, 2), (2, 3), (2, 4)]))
        assert is_chordal(Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]))

    def test_c5_is_not_chordal(self):
        assert not is_chordal(Graph(5, [(v, (v + 1) % 5) for v in range(5)]))

    def test_peo_order_is_complete(self):
        g, _ = generate(FamilySpec(KTREE, 30, 8, k=2, seed=1))
        order = perfect_elimination_ordering(g)
        assert sorted(order) == list(range(30))


class TestVerifyFamilyInvariants:
    def test_c4_passed_as_ktree_reports_chordality(self):
        c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        violations = verify_family_invariants(
            c4, FamilySpec(KTREE, 4, 8, k=2, seed=0)
        )
        assert any("chordal" in v for v in violations)

    def test_degree_cap_violation_reported(self):
        star = Graph(6, [(0, v) for v in range(1, 6)])
        violations = verify_family_invariants(
            star, FamilySpec(RANDOM_TREE, 6, 4, seed=0)
        )
        assert any("degree" in v for v in violations)

    def test_disconnected_reported(self):
        g = Graph(4, [(0, 1), (2, 3)])
        violations = verify_family_invariants(
            g, FamilySpec(BOUNDED_DEGREE_CONNECTED, 4, 3, seed=0)
        )
        assert any("connected" in v for v in violations)

    def test_unknown_family_rejected(self):
        with pytest.raises(InfeasibleSpecError):
            generate(FamilySpec("moebius", 8, 3, seed=0))
