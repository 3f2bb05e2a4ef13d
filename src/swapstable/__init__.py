"""Stable matchings under preference-swap perturbations.

Robustness checking (stability across every profile within d swaps),
robust-matching solvers driven by the rotation poset, and near-stability
analysis (repairing or re-stabilizing a matching with few swaps).
"""

from ._kernels import backend
from .classic import PartitionResult, matched_partition, u_optimal, w_optimal
from .errors import (
    Error,
    InvalidInput,
    InvalidMatching,
    NonAdjacentSwap,
    NoSuccessorDefined,
    NotClosed,
    NotNearlyStable,
    TooLarge,
    UnknownAgent,
    ValidationError,
)
from .fileformat import (
    parse_matching,
    parse_profile,
    serialize_matching,
    serialize_profile,
)
from .generators import (
    example2_rotated_matching,
    example2_stable_matching,
    gen_cyclic_latin,
    gen_example1_fixture,
    gen_example2,
    gen_example3,
    gen_random,
)
from .nearstable import (
    NearStabilityReport,
    global_stabilization_cost,
    is_locally_d_nearly_stable,
    local_instability,
    near_stability_report,
    repair_after_swap,
    solve_global_near,
    solve_local_near,
    tradeoff_curve,
    witness_profile_local,
)
from .profile import (
    INFINITE,
    Agent,
    Matching,
    Objective,
    Profile,
    Side,
    SwapOp,
    apply_swap,
    blocking_indices,
    blocking_pairs,
    egalitarian_cost,
    is_perfect,
    is_stable,
    rank,
    swap_distance,
    swap_distance_per_agent,
    validate_matching,
    validate_profile,
)
from .robustness import find_d_robust, find_d_robust_optimal, is_d_robust, max_robustness
from .rotations import (
    Rotation,
    RotationDigraph,
    closed_subsets,
    egalitarian_deltas,
    eliminate,
    enumerate_stable_matchings,
    exposed_rotations,
    matching_of,
    min_weight_closure,
    rotation_digraph,
    stable_pairs,
    successor,
)

__version__ = "0.1.0"
