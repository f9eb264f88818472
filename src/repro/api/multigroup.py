"""Multi-group planning façade: contention strategies over a shared Planner.

:class:`MultiGroupPlanner` is the one entry point for planning a
:class:`~repro.core.contention.MultiGroupInstance`.  It splits the work in
two, mirroring the library's layering:

1. **Inner single-group subproblems** route through an ordinary
   :class:`~repro.api.planner.Planner` via :meth:`Planner.plan_batch`, so
   they get the full amortization stack for free — canonical-key result
   caching (equivalent groups are one solve plus rebinds,
   ``CacheInfo.canonical_hits``), group-solve bucketing, and shared
   :class:`~repro.api.tables.OptimalTableCache` tables for
   ``reusable_table`` solvers.
2. **Cross-group composition** resolves a capability-gated ``mg-*`` entry
   from the unified solver registry
   (``capabilities.multi_group=True``; see
   :func:`available_multi_group_solvers`) and hands it the solved
   schedules; the strategy only chooses per-group start offsets.

The result is a :class:`MultiGroupResult` carrying the validated
:class:`~repro.core.contention.MultiGroupSchedule`, both cross-group
objectives, and the per-group :class:`~repro.api.request.PlanResult`
provenance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.api.planner import Planner
from repro.api.request import PlanRequest, PlanResult
from repro.api.solvers import SolverError, resolve, solver_items
from repro.core.contention import MultiGroupInstance, MultiGroupSchedule

__all__ = [
    "DEFAULT_STRATEGY",
    "MultiGroupPlanner",
    "MultiGroupResult",
    "available_multi_group_solvers",
    "plan_groups",
]

DEFAULT_STRATEGY = "mg-greedy-pack"


def available_multi_group_solvers() -> List[str]:
    """Sorted names of the registered multi-group composition solvers."""
    return [e.name for e in solver_items() if e.capabilities.multi_group]


@dataclass(frozen=True)
class MultiGroupResult:
    """A planned multi-group schedule plus its provenance.

    Attributes
    ----------
    strategy:
        Name of the ``mg-*`` composition solver that placed the groups.
    solver:
        Inner solver spec the per-group subproblems were planned with.
    schedule:
        The validated cross-group schedule (offsets + per-group trees).
    max_makespan / weighted_sum:
        The two cross-group objectives, evaluated on ``schedule``.
    group_results:
        Per-group :class:`PlanResult` in group order — cache flags and
        solver statistics of the inner solves.
    elapsed_s:
        Wall-clock time of the whole plan (inner solves + composition).
    """

    strategy: str
    solver: str
    schedule: MultiGroupSchedule
    max_makespan: float
    weighted_sum: float
    group_results: Tuple[PlanResult, ...]
    elapsed_s: float = 0.0

    @property
    def instance(self) -> MultiGroupInstance:
        """The planned instance (borrowed from the schedule)."""
        return self.schedule.instance

    @property
    def offsets(self) -> Tuple[float, ...]:
        """Per-group start offsets chosen by the strategy."""
        return self.schedule.offsets


class MultiGroupPlanner:
    """Plan multi-group instances by composing single-group plans.

    Parameters
    ----------
    planner:
        The :class:`Planner` answering the inner single-group subproblems.
        Defaults to a fresh planner with table reuse on; share one planner
        across calls (or processes' worth of groups) to amortize canonical
        caching and optimal tables across instances.
    """

    def __init__(self, planner: Optional[Planner] = None) -> None:
        self.planner = planner if planner is not None else Planner()

    def plan_groups(
        self,
        instance: MultiGroupInstance,
        strategy: str = DEFAULT_STRATEGY,
        *,
        solver: Optional[str] = None,
        group_solve: bool = True,
    ) -> MultiGroupResult:
        """Plan every group, then compose them under ``strategy``.

        ``solver`` is the inner single-group spec (defaults to the
        planner's default solver); ``group_solve`` passes through to
        :meth:`Planner.plan_batch` for the inner solves.
        """
        if not isinstance(instance, MultiGroupInstance):
            raise SolverError(
                f"plan_groups needs a MultiGroupInstance, got {type(instance).__name__}"
            )
        entry, options = resolve(strategy)
        if not entry.capabilities.multi_group:
            raise SolverError(
                f"solver {entry.name!r} is not a multi-group strategy; "
                f"available: {available_multi_group_solvers()}"
            )
        inner = solver if solver is not None else self.planner.default_solver
        start = time.perf_counter()
        batch = self.planner.plan_batch(
            [
                PlanRequest(instance=group, solver=inner, tag=f"group-{g}")
                for g, group in enumerate(instance.groups)
            ],
            group_solve=group_solve,
        )
        schedules = [result.schedule for result in batch.results]
        mg_schedule = entry(instance, schedules=schedules, **options)
        return MultiGroupResult(
            strategy=entry.name,
            solver=inner,
            schedule=mg_schedule,
            max_makespan=mg_schedule.max_makespan,
            weighted_sum=mg_schedule.weighted_sum,
            group_results=tuple(batch.results),
            elapsed_s=time.perf_counter() - start,
        )

    def compare_strategies(
        self,
        instance: MultiGroupInstance,
        *,
        solver: Optional[str] = None,
        group_solve: bool = True,
    ) -> Dict[str, MultiGroupResult]:
        """Run every registered ``mg-*`` strategy on ``instance``.

        The inner solves are shared: after the first strategy plans, the
        rest are answered from the planner's cache, so comparing costs one
        batch of single-group solves.  Returns ``{strategy: result}`` in
        sorted strategy order.
        """
        return {
            name: self.plan_groups(
                instance, name, solver=solver, group_solve=group_solve
            )
            for name in available_multi_group_solvers()
        }


def plan_groups(
    instance: MultiGroupInstance,
    strategy: str = DEFAULT_STRATEGY,
    *,
    solver: Optional[str] = None,
    **kwargs: Any,
) -> MultiGroupResult:
    """Module-level convenience: plan on a fresh :class:`MultiGroupPlanner`."""
    return MultiGroupPlanner().plan_groups(instance, strategy, solver=solver, **kwargs)
