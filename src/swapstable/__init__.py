"""Stable matchings under preference-swap perturbations.

Robustness checking (stability across every profile within d swaps),
robust-matching solvers driven by the rotation poset, and near-stability
analysis (repairing or re-stabilizing a matching with few swaps).

Importing the package runs none of its modules.  Each exported name is
looked up in its defining module on first use (PEP 562), so a process
loads only the modules it reads names from.
"""

import importlib

__version__ = "0.1.0"

# defining module -> the names the package exports from it
_EXPORTS = {
    "_kernels": "backend",
    "classic": "PartitionResult matched_partition u_optimal w_optimal",
    "errors": (
        "Error InvalidInput InvalidMatching NonAdjacentSwap NoSuccessorDefined NotClosed"
        " NotNearlyStable TooLarge UnknownAgent ValidationError"
    ),
    "fileformat": "parse_matching parse_profile serialize_matching serialize_profile",
    "generators": (
        "example2_rotated_matching example2_stable_matching gen_cyclic_latin"
        " gen_example1_fixture gen_example2 gen_example3 gen_random"
    ),
    "nearstable": (
        "NearStabilityReport global_stabilization_cost is_locally_d_nearly_stable"
        " local_instability near_stability_report repair_after_swap solve_global_near"
        " solve_local_near tradeoff_curve witness_profile_local"
    ),
    "profile": (
        "INFINITE Agent Matching Objective Profile Side SwapOp apply_swap blocking_indices"
        " blocking_pairs egalitarian_cost is_perfect is_stable rank swap_distance"
        " swap_distance_per_agent validate_matching validate_profile"
    ),
    "robustness": "find_d_robust find_d_robust_optimal is_d_robust max_robustness",
    "rotations": (
        "Rotation RotationDigraph closed_subsets egalitarian_deltas eliminate"
        " enumerate_stable_matchings exposed_rotations matching_of min_weight_closure"
        " rotation_digraph stable_pairs successor"
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
