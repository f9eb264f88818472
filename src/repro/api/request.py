"""Request/response types of the planning façade.

A :class:`PlanRequest` bundles everything needed to plan one multicast:
the instance, a solver spec string, solver options, and output options.
A :class:`PlanResult` is the full response: the schedule, its completion
times, exactness, an optional Theorem 1 bound report, timing, and
provenance.  :class:`BatchResult` aggregates many results from
:meth:`repro.api.Planner.plan_batch`.

All three round-trip through JSON via :mod:`repro.io.serialization`
(``plan_request_to_dict`` / ``plan_result_to_dict`` and inverses), so plans
can be shipped between services and archived next to experiment outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, Mapping, Optional, Tuple

from repro.core.bounds import BoundReport
from repro.core.multicast import MulticastSet
from repro.core.schedule import Schedule
from repro.exceptions import ReproError

__all__ = ["PlanRequest", "PlanResult", "BatchResult"]

DEFAULT_SOLVER = "greedy+reversal"


@dataclass(frozen=True)
class PlanRequest:
    """One planning job: an instance plus how to solve it.

    Parameters
    ----------
    instance:
        The multicast set to plan.
    solver:
        Solver spec string resolved by :func:`repro.api.resolve` — a name
        from :func:`repro.api.available_solvers`, optionally with options,
        e.g. ``"dp"`` or ``"exact(max_destinations=12)"``.
    options:
        Extra solver keyword options; they override options embedded in the
        spec string.
    include_bounds:
        When ``True`` the planner attaches a Theorem 1
        :class:`~repro.core.bounds.BoundReport` to the result.
    tag:
        Free-form caller label, carried through to the result untouched
        (useful to correlate batch submissions with responses).
    """

    instance: MulticastSet
    solver: str = DEFAULT_SOLVER
    options: Mapping[str, Any] = field(default_factory=dict)
    include_bounds: bool = False
    tag: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.instance, MulticastSet):
            raise ReproError(
                f"PlanRequest.instance must be a MulticastSet, "
                f"got {type(self.instance).__name__}"
            )
        object.__setattr__(self, "options", dict(self.options))

    def with_solver(self, solver: str, **options: Any) -> "PlanRequest":
        """Copy of this request targeting a different solver."""
        return replace(self, solver=solver, options=options)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (see :mod:`repro.io.serialization`)."""
        from repro.io.serialization import plan_request_to_dict

        return plan_request_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlanRequest":
        """Inverse of :meth:`to_dict`."""
        from repro.io.serialization import plan_request_from_dict

        return plan_request_from_dict(data)


@dataclass(frozen=True)
class PlanResult:
    """The planner's full answer for one :class:`PlanRequest`.

    Attributes
    ----------
    solver:
        Canonical name of the solver that ran (spec options stripped).
    schedule:
        The planned multicast tree (carries its instance).
    value:
        Reception completion time ``R_T`` — the paper's objective.
    delivery_completion:
        Delivery completion time ``D_T``.
    exact:
        Whether the solver certifies ``value`` as optimal.
    bounds:
        Theorem 1 report when the request asked for one, else ``None``.
    elapsed_s:
        Wall-clock solve time in seconds (0.0 for cache hits).
    cache_hit:
        Whether the result was served from the planner's cache.
    tag:
        The request's tag, echoed back.
    provenance:
        Solver statistics and identifying metadata: the instance
        fingerprint, resolved options, per-solver counters such as
        ``states_computed`` (DP) or ``nodes_expanded`` (exact search).
    """

    solver: str
    schedule: Schedule
    value: float
    delivery_completion: float
    exact: bool
    bounds: Optional[BoundReport] = None
    elapsed_s: float = 0.0
    cache_hit: bool = False
    tag: Optional[str] = None
    provenance: Mapping[str, Any] = field(default_factory=dict)

    @property
    def instance(self) -> MulticastSet:
        """The instance this plan answers (borrowed from the schedule)."""
        return self.schedule.multicast

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (see :mod:`repro.io.serialization`)."""
        from repro.io.serialization import plan_result_to_dict

        return plan_result_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlanResult":
        """Inverse of :meth:`to_dict`."""
        from repro.io.serialization import plan_result_from_dict

        return plan_result_from_dict(data)


@dataclass(frozen=True)
class BatchResult:
    """Results of a batched plan, in submission order.

    Supports iteration, indexing and ``len``; convenience accessors pick
    winners and summarize cache behaviour.
    """

    results: Tuple[PlanResult, ...]
    elapsed_s: float = 0.0

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[PlanResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> PlanResult:
        return self.results[index]

    @property
    def cache_hits(self) -> int:
        """How many results were served from cache."""
        return sum(1 for r in self.results if r.cache_hit)

    def best(self) -> PlanResult:
        """The result with the smallest reception completion time."""
        if not self.results:
            raise ReproError("empty batch has no best result")
        return min(self.results, key=lambda r: r.value)

    def values(self) -> Tuple[float, ...]:
        """Reception completion times, in submission order."""
        return tuple(r.value for r in self.results)

    def by_solver(self) -> Dict[str, Tuple[PlanResult, ...]]:
        """Group results by canonical solver name."""
        grouped: Dict[str, list] = {}
        for r in self.results:
            grouped.setdefault(r.solver, []).append(r)
        return {k: tuple(v) for k, v in grouped.items()}
