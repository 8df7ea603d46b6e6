"""Distance-k matchings in sparse random graphs.

A k-matching is an edge set in which every two edges are at endpoint
distance >= k (k=1: ordinary matching, k=2: induced matching).  The package
samples G(n,p), builds maximal k-matchings greedily, generates k-matchings
of a prescribed size by pair-and-repair, solves small instances exactly,
evaluates the closed-form size bounds, and cross-checks everything against
exhaustive tiny-n enumeration and Monte Carlo runs.
"""

from .analytic import (
    AsymptoticParams,
    BoundSet,
    JansonBounds,
    PairProfile,
    RegimeError,
    bounds,
)
from .graph import (
    UNREACHABLE,
    GnpParams,
    Graph,
    complete_graph,
    cycle_graph,
    edge_distance,
    from_edges,
    path_graph,
    read_edge_list,
    sample_gnp,
    vertex_distance,
    write_edge_list,
)
from .matching import (
    GeneratorStalled,
    InstanceTooLargeError,
    InvalidMatchingError,
    KMatching,
    exact_um_k,
    gamma_independence_check,
    generator_algorithm,
    greedy_k_matching,
    is_k_matching,
    is_maximal_k_matching,
)
from .experiments import (
    TrialConfig,
    TrialRecord,
    TrialSummary,
    derive_seed,
    emit,
    run_trials,
    verify_layer_growth,
    verify_theorem_5_1,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticParams",
    "BoundSet",
    "GeneratorStalled",
    "GnpParams",
    "Graph",
    "InstanceTooLargeError",
    "InvalidMatchingError",
    "JansonBounds",
    "KMatching",
    "PairProfile",
    "RegimeError",
    "TrialConfig",
    "TrialRecord",
    "TrialSummary",
    "UNREACHABLE",
    "bounds",
    "complete_graph",
    "cycle_graph",
    "derive_seed",
    "edge_distance",
    "emit",
    "exact_um_k",
    "from_edges",
    "gamma_independence_check",
    "generator_algorithm",
    "greedy_k_matching",
    "is_k_matching",
    "is_maximal_k_matching",
    "path_graph",
    "read_edge_list",
    "run_trials",
    "sample_gnp",
    "vertex_distance",
    "verify_layer_growth",
    "verify_theorem_5_1",
    "write_edge_list",
]
