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
    "SplitMix64",
    "UNREACHABLE",
    "PartialTreeError",
]

REPO = Path(__file__).resolve().parents[1]
PERFBENCH = REPO / "perfbench"
SRC = REPO / "src" / "sprec"


def test_all_is_pinned():
    assert len(PUBLIC) == 35
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


def test_every_public_function_has_a_caller_outside_the_tests():
    """Each public module-level function is read as a name or attribute, and
    each public method as an attribute, in the package or perfbench's
    harness. A read of the name on any object counts, so this catches only
    names that nothing outside the tests reads at all."""
    package = [ast.parse(p.read_text()) for p in SRC.glob("*.py")]
    harness = [ast.parse(p.read_text()) for p in PERFBENCH.glob("*.py")]
    names, attrs = set(), set()
    for node in (node for tree in package + harness for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
    uncalled = []
    for node in (node for tree in package for node in tree.body):
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            if node.name not in names | attrs:
                uncalled.append(node.name)
        elif isinstance(node, ast.ClassDef):
            uncalled += [
                f"{node.name}.{f.name}" for f in node.body
                if isinstance(f, ast.FunctionDef)
                and not f.name.startswith("_") and f.name not in attrs
            ]
    assert uncalled == []
