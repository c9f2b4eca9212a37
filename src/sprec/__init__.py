"""sprec: exact graph reconstruction from shortest-path distance queries."""

from .generate import (
    BOUNDED_DEGREE_CONNECTED,
    CATERPILLAR,
    CYCLE,
    FAMILIES,
    FamilySpec,
    InfeasibleSpecError,
    KTREE,
    RANDOM_TREE,
    RING_OF_CLIQUES,
    generate,
)
from .graph import (
    EdgeListParseError,
    Graph,
    GraphBuilder,
    bfs_distances,
    graphs_equal,
    is_connected,
    max_degree,
    read_edge_list,
    write_edge_list,
)
from .layering import (
    Layering,
    LayeringInvariantError,
    LayeringTree,
    build_layering,
    build_layering_tree,
    tree_length,
)
from .oracle import DistanceOracle, QueryLedger, QueryPhase
from .reconstruct import (
    BudgetExceeded,
    InvariantViolation,
    LayerTrace,
    ReconstructionConfig,
    ReconstructionError,
    ReconstructionResult,
    reconstruct,
)

__version__ = "0.1.0"

__all__ = [
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
    "Layering",
    "LayeringInvariantError",
    "LayeringTree",
    "LayerTrace",
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
