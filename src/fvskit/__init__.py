"""fvskit: exact randomized feedback vertex set solving.

The solver deletes vertices until the rest is a forest, deciding bounded
sub-instances through mod-2^t counting over randomized graph separations.
"""
from .multigraph import MultiGraph, connected_components, induced, is_forest, minus
from .oracle import brute_cut_objects, brute_min_fvs, verify_fvs
from .reductions import ReductionOutcome, reduce_exhaustive
from .separators import (
    Separation,
    ThreeWaySeparation,
    TreeDecomposition,
    three_way_separation,
    tree_decomposition_from_fvs,
    two_way_separation,
    validate_decomposition,
)
from .cutcount import (
    DeciderOutcome,
    count_simple_separation,
    count_three_way,
    draw_weights,
    forest_dp_table,
    reconstruct_witness,
)
from .solver import (
    BudgetExceeded,
    SolveResult,
    SolverConfig,
    fvs_trial,
    iterative_compression,
    solve,
    trial_budget,
)

__version__ = "0.1.0"

__all__ = [
    "MultiGraph", "connected_components", "induced", "is_forest", "minus",
    "brute_cut_objects", "brute_min_fvs", "verify_fvs",
    "ReductionOutcome", "reduce_exhaustive",
    "Separation", "ThreeWaySeparation", "TreeDecomposition",
    "two_way_separation", "three_way_separation",
    "tree_decomposition_from_fvs", "validate_decomposition",
    "DeciderOutcome",
    "count_simple_separation", "count_three_way", "draw_weights",
    "forest_dp_table", "reconstruct_witness",
    "BudgetExceeded", "SolveResult", "SolverConfig",
    "fvs_trial", "iterative_compression", "solve", "trial_budget",
    "__version__",
]
