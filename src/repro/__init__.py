"""repro — reproduction of *Efficient Multicast in Heterogeneous Networks of
Workstations* (Libeskind-Hadas & Hartline, ICPP 2000 Workshop on
Network-Based Computing).

The package implements the heterogeneous receive-send communication model,
the paper's ``O(n log n)`` greedy approximation algorithm with its Theorem 1
guarantee, the leaf-reversal refinement, the ``O(n^{2k})`` exact dynamic
program for networks with ``k`` workstation types, exact validation solvers,
the Lemma 3 proof machinery, a discrete-event simulator of the model,
baseline schedulers from the related work, workload generators, and the
experiment harness that regenerates every quantitative artifact of the
paper (see DESIGN.md / EXPERIMENTS.md).

Quickstart
----------
Every solver — the greedy family, the baselines, the exact ``dp`` and
``exact`` oracles — is planned through the unified :mod:`repro.api`
façade:

>>> from repro import MulticastSet, Planner
>>> mset = MulticastSet.from_overheads(
...     source=(2, 3),
...     destinations=[(1, 1), (1, 1), (1, 1), (2, 3)],
...     latency=1,
... )
>>> planner = Planner()
>>> planner.plan(mset, solver="greedy+reversal").value
8.0
>>> planner.plan(mset, solver="dp").exact    # same entry point, no special case
True
>>> planner.plan_batch([mset] * 3).values()
(8.0, 8.0, 8.0)

The direct algorithm functions (``greedy_with_reversal``, ``solve_dp``,
...) remain exported for library use.
"""

from repro.api import (
    BatchResult,
    Planner,
    PlanRequest,
    PlanResult,
    instance_fingerprint,
    plan,
    plan_batch,
)
from repro.core import (
    BoundReport,
    DPSolution,
    ExactSolution,
    GreedyStep,
    GreedyTrace,
    MulticastSet,
    Node,
    OptimalTable,
    Schedule,
    TypeSystem,
    bound_report,
    certified_lower_bound,
    count_layered_schedules,
    enumerate_layered_schedules,
    exchange,
    first_hop_lower_bound,
    greedy_completion,
    greedy_schedule,
    greedy_with_reversal,
    homogeneous_relaxation_lower_bound,
    layer_schedule,
    leaf_slots,
    min_layered_delivery_completion,
    next_power_of_two,
    optimal_completion_dp,
    optimal_completion_exact,
    overhead_key,
    reverse_leaves,
    round_up_instance,
    same_type,
    solve_dp,
    solve_exact,
    swap_same_type,
    theorem1_bound,
    theorem1_factor,
    uniform_ratio,
)
from repro.exceptions import (
    ConformanceError,
    CorrelationError,
    InvalidScheduleError,
    ModelError,
    ReproError,
    SimulationError,
    SolverError,
    TransformError,
    WorkloadError,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # planning façade
    "Planner",
    "PlanRequest",
    "PlanResult",
    "BatchResult",
    "plan",
    "plan_batch",
    "instance_fingerprint",
    # model & schedules
    "Node",
    "MulticastSet",
    "Schedule",
    "overhead_key",
    "same_type",
    # algorithms
    "greedy_schedule",
    "greedy_completion",
    "greedy_with_reversal",
    "reverse_leaves",
    "leaf_slots",
    "GreedyTrace",
    "GreedyStep",
    "solve_dp",
    "optimal_completion_dp",
    "DPSolution",
    "TypeSystem",
    "OptimalTable",
    "solve_exact",
    "optimal_completion_exact",
    "ExactSolution",
    # layered schedules
    "enumerate_layered_schedules",
    "count_layered_schedules",
    "min_layered_delivery_completion",
    # proof machinery
    "uniform_ratio",
    "round_up_instance",
    "next_power_of_two",
    "exchange",
    "swap_same_type",
    "layer_schedule",
    # bounds
    "theorem1_factor",
    "theorem1_bound",
    "first_hop_lower_bound",
    "homogeneous_relaxation_lower_bound",
    "certified_lower_bound",
    "BoundReport",
    "bound_report",
    # exceptions
    "ReproError",
    "ModelError",
    "ConformanceError",
    "CorrelationError",
    "InvalidScheduleError",
    "TransformError",
    "SimulationError",
    "SolverError",
    "WorkloadError",
]
