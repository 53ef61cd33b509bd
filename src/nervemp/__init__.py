"""Distributed graph-signal optimization via function-valued message passing.

A cover of a graph by subgraphs induces a nerve skeleton; local convex
quadratics are combined by passing whole functions (or sampled surrogates)
up a directed spanning tree, eliminating variables exactly once.  The
package also ships the jet-rank solubility analyzer, Morse regularization,
instance generators, and a CLI.
"""

from .cover import (
    DirectedTree,
    EdgePartition,
    Graph,
    NerveSkeleton,
    SpanningTree,
    SubgraphCover,
    build_nerve,
    direct_tree,
    spanning_tree,
)
from .errors import (
    DimensionMismatch,
    DisconnectedNerve,
    IllDefinedTask,
    InfeasibleStats,
    InnerOptimizationFailed,
    InvalidInstance,
    MissingVariable,
    NerveMPError,
    NonUniqueArgmin,
    SingularFit,
    UnboundedBelow,
    UnknownVariable,
)
from .exactmp import (
    MessagePassingRun,
    back_substitute,
    centralized_solve,
    local_solve,
    regularize,
    run_message_passing,
)
from .instancefile import Instance, load_instance, save_instance
from .quadform import ArgminMap, QuadFunc, subspace_distance_quad
from .solubility import (
    GlobalProblemMap,
    JetProfile,
    TaskSpec,
    analysis_record,
    b_alpha,
    direct_solubility_test,
    global_problem_map,
    insolubility_check,
    jet_profile,
    linear_task,
    objective_task,
    task_welldefined,
)
from .surrogate import (
    ApproxConfig,
    MLPSurrogate,
    QuadSurrogate,
    SampleSet,
    approx_message_passing,
    error_ratio,
    fit_surrogate,
    identifiability_threshold,
    sample_message,
)

__version__ = "0.1.0"

__all__ = [
    "ApproxConfig",
    "ArgminMap",
    "DimensionMismatch",
    "DirectedTree",
    "DisconnectedNerve",
    "EdgePartition",
    "GlobalProblemMap",
    "Graph",
    "IllDefinedTask",
    "InfeasibleStats",
    "InnerOptimizationFailed",
    "Instance",
    "InvalidInstance",
    "JetProfile",
    "MLPSurrogate",
    "MessagePassingRun",
    "MissingVariable",
    "NerveMPError",
    "NerveSkeleton",
    "NonUniqueArgmin",
    "QuadFunc",
    "QuadSurrogate",
    "SampleSet",
    "SingularFit",
    "SpanningTree",
    "SubgraphCover",
    "TaskSpec",
    "UnboundedBelow",
    "UnknownVariable",
    "analysis_record",
    "approx_message_passing",
    "b_alpha",
    "back_substitute",
    "build_nerve",
    "centralized_solve",
    "direct_solubility_test",
    "direct_tree",
    "error_ratio",
    "fit_surrogate",
    "global_problem_map",
    "identifiability_threshold",
    "insolubility_check",
    "jet_profile",
    "linear_task",
    "load_instance",
    "local_solve",
    "objective_task",
    "regularize",
    "run_message_passing",
    "sample_message",
    "save_instance",
    "spanning_tree",
    "subspace_distance_quad",
    "task_welldefined",
]
