"""The package exports exactly the names a caller of the library needs."""

import ast
from pathlib import Path

import sprec

PUBLIC = [
    "BOUNDED_DEGREE_CONNECTED",
    "BudgetExceeded",
    "CATERPILLAR",
    "CYCLE",
    "DistanceOracle",
    "EdgeListParseError",
    "FAMILIES",
    "FamilySpec",
    "Graph",
    "GraphBuilder",
    "InfeasibleSpecError",
    "InvariantViolation",
    "KTREE",
    "LayerTrace",
    "Layering",
    "LayeringInvariantError",
    "LayeringTree",
    "PartialTreeError",
    "QueryLedger",
    "QueryPhase",
    "RANDOM_TREE",
    "RING_OF_CLIQUES",
    "ReconstructionConfig",
    "ReconstructionError",
    "ReconstructionResult",
    "bfs_distances",
    "build_layering",
    "build_layering_tree",
    "generate",
    "graphs_equal",
    "is_connected",
    "max_degree",
    "read_edge_list",
    "reconstruct",
    "tree_length",
    "write_edge_list",
]

# Test-only code lives in tests/baselines.py; the internals stay importable
# from their submodules.
NOT_EXPORTED = [
    "perfect_elimination_ordering",
    "is_chordal",
    "verify_family_invariants",
    "reconstruct_naive",
    "components_masked",
    "neighbors_of_set",
    "layering_from_depths",
    "Part",
    "SplitMix64",
    "UNREACHABLE",
]

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_all_is_pinned():
    assert len(PUBLIC) == 36
    assert sorted(sprec.__all__) == PUBLIC


def test_every_exported_name_resolves():
    for name in sprec.__all__:
        assert hasattr(sprec, name), name


def test_perfbench_imports_only_exported_names():
    imported = set()
    for path in PERFBENCH.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "sprec":
                imported.update(alias.name for alias in node.names)
    assert "reconstruct" in imported
    assert imported <= set(sprec.__all__)


def test_removed_names_are_not_attributes():
    for name in NOT_EXPORTED:
        assert not hasattr(sprec, name), name


def test_one_hierarchy_for_structural_breaches():
    assert issubclass(sprec.LayeringInvariantError, sprec.InvariantViolation)
    assert issubclass(sprec.InvariantViolation, sprec.ReconstructionError)
    assert issubclass(sprec.BudgetExceeded, sprec.ReconstructionError)
    assert not issubclass(sprec.PartialTreeError, sprec.ReconstructionError)
