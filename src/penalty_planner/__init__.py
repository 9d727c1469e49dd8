"""Exact planning toolkit for present-biased agents on task graphs.

Simulates quasi-hyperbolically discounting agents, constructs penalty-based
commitment devices (path fences, a verified factor-2 approximation, exact
infimum search), generates the benchmark graph families and the 3-SAT
hardness instances, and serializes everything bit-exactly.
"""

from .agent import (
    AgentView,
    WalkReport,
    build_view,
    is_motivating,
    min_motivating_reward,
    reachable_by_ties,
    tie_walk,
)
from .devices import (
    ApproxResult,
    InfimumResult,
    SubgraphOptResult,
    brute_subgraph_opt,
    check_path,
    emulate_subgraph,
    exact_infimum,
    fence_required_reward,
    minmax_path,
    minmax_path_approx,
    path_and_fence,
    successor_map,
)
from .errors import (
    BiasOutOfRangeError,
    BudgetExceededError,
    CnfError,
    DisconnectedError,
    EpsilonTooLargeError,
    GraphStructureError,
    IncompleteAssignmentError,
    InstanceSyntaxError,
    InternalVerificationError,
    InvalidPathError,
    NoPathError,
    NoWalkError,
    ParameterOutOfRangeError,
    PlannerError,
    SchemaError,
    UnknownEdgeError,
    ValidationError,
)
from .graph import (
    CostConfiguration,
    Edge,
    TaskGraph,
    Violation,
    as_rational,
    check_bias,
    cheapest_costs,
    preprocess,
    validate,
)
from .instances import Instance, gen_alice, gen_noopt, gen_random, gen_ratio
from .reductions import (
    CnfFormula,
    ReductionMeta,
    assignment_to_config,
    config_to_assignment,
    epsilon_bound,
    meta_from_instance,
    meta_to_annotations,
    normalize_assignment,
    parse_dimacs,
    sat_to_mcc,
)
from .serialization import format_rational, parse, serialize, to_dot

__version__ = "0.1.0"

__all__ = [
    "AgentView", "ApproxResult", "BiasOutOfRangeError", "BudgetExceededError",
    "CnfError", "CnfFormula", "CostConfiguration", "DisconnectedError", "Edge",
    "EpsilonTooLargeError", "GraphStructureError", "IncompleteAssignmentError",
    "InfimumResult", "Instance", "InstanceSyntaxError", "InternalVerificationError",
    "InvalidPathError", "NoPathError", "NoWalkError", "ParameterOutOfRangeError",
    "PlannerError", "ReductionMeta", "SchemaError", "SubgraphOptResult",
    "TaskGraph", "UnknownEdgeError", "ValidationError", "Violation", "WalkReport",
    "as_rational", "assignment_to_config", "brute_subgraph_opt", "build_view",
    "check_bias", "check_path", "cheapest_costs", "config_to_assignment",
    "emulate_subgraph", "epsilon_bound", "exact_infimum", "fence_required_reward",
    "format_rational", "gen_alice", "gen_noopt", "gen_random", "gen_ratio",
    "is_motivating", "meta_from_instance", "meta_to_annotations",
    "min_motivating_reward", "minmax_path", "minmax_path_approx",
    "normalize_assignment", "parse", "parse_dimacs", "path_and_fence", "preprocess",
    "reachable_by_ties", "sat_to_mcc", "serialize", "successor_map", "tie_walk",
    "to_dot", "validate",
]
