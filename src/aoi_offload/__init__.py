"""Age-of-information vs edge-offloading tradeoff toolkit.

A scheduler decides, slot by slot, whether a status update is processed on
a geometric-rate local server or offloaded (at a price) to an edge cloud
that finishes in one slot.  This package evaluates the standard policy
families in closed form, exactly on their induced Markov chains, and by
seeded simulation, and solves for the average-cost optimal policy by
policy iteration on the delivery-age chain together with checks of its
threshold structure.
"""

from .core import ModelParams, State
from .heuristics import (
    EvalResult,
    ServiceMoments,
    local_only,
    mec_only,
    service_moments,
    service_threshold_eval,
)
from .chain import (
    NEVER_OFFLOAD,
    Policy,
    StationarySolveError,
    age_threshold_policy,
    evaluate_exact,
    local_only_policy,
    mec_only_policy,
    service_threshold_policy,
    threshold_table_policy,
)
from .mdp import (
    SolveReport,
    StructureReport,
    brute_force_best_threshold,
    default_a_max,
    discounted_vi,
    rvi_solve,
    sweep_lambdas,
    verify_structure,
)
from .sim import SimConfig, SimResult, batch_stderr, simulate, uniforms

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "State",
    "EvalResult",
    "ServiceMoments",
    "local_only",
    "mec_only",
    "service_moments",
    "service_threshold_eval",
    "NEVER_OFFLOAD",
    "Policy",
    "StationarySolveError",
    "age_threshold_policy",
    "evaluate_exact",
    "local_only_policy",
    "mec_only_policy",
    "service_threshold_policy",
    "threshold_table_policy",
    "SolveReport",
    "StructureReport",
    "brute_force_best_threshold",
    "default_a_max",
    "discounted_vi",
    "rvi_solve",
    "sweep_lambdas",
    "verify_structure",
    "SimConfig",
    "SimResult",
    "batch_stderr",
    "simulate",
    "uniforms",
    "__version__",
]
