"""Output checks and the plan-quality metric, run after the timed phase.

Every answer is compared with a direct solve of the same request by a
``Planner(cache_size=0)``: same value, same solver and the same
serialized schedule.  A session update is compared with a cold plan of
its post-delta membership.  A mismatch counts as a failed operation.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Sequence, Tuple

from repro.api import Planner, PlanRequest, PlanResult
from repro.core.bounds import certified_lower_bound
from repro.core.repair import apply_delta
from repro.io.serialization import schedule_to_dict

from perfbench.workloads import Workload

#: Distinct served instances (in stream order) that makespan_over_lb averages.
QUALITY_INSTANCES = 1000


def expected_requests(workload: Workload, count: int) -> List[PlanRequest]:
    """The request each of the first ``count`` stream ops resolves to.

    A delta resolves to its session's membership after it was applied.
    """
    memberships: Dict[str, PlanRequest] = {
        op.session: op.request for op in workload.warmup if op.kind == "open"
    }
    requests = []
    for op in workload.stream[:count]:
        if op.kind == "delta":
            previous = memberships[op.session]
            current = PlanRequest(
                instance=apply_delta(previous.instance, op.delta),
                solver=previous.solver,
            )
            memberships[op.session] = current
            requests.append(current)
        else:
            requests.append(op.request)
    return requests


class Checker:
    """Compares served results with direct solves (memoized per request)."""

    def __init__(self) -> None:
        self.planner = Planner(cache_size=0)
        self._direct: Dict[int, Tuple[Any, str, Dict[str, Any]]] = {}
        self.mismatches = 0
        self.checked = 0

    def _fingerprint(self, result: PlanResult) -> Tuple[Any, str, Dict[str, Any]]:
        return result.value, result.solver, schedule_to_dict(result.schedule)

    def check(self, request: PlanRequest, served: PlanResult) -> bool:
        """Whether ``served`` matches a direct solve of ``request``."""
        want = self._direct.get(id(request))
        if want is None:
            want = self._fingerprint(self.planner.plan(request))
            self._direct[id(request)] = want
        self.checked += 1
        ok = self._fingerprint(served) == want
        if not ok:
            self.mismatches += 1
        return ok


def check_answers(
    requests: Sequence[PlanRequest],
    served: Sequence[Tuple[int, Any]],
    checker: Checker,
) -> int:
    """Check every answered op; returns the number of mismatches."""
    before = checker.mismatches
    for index, answer in served:
        if answer is not None:
            checker.check(requests[index], answer.result)
    return checker.mismatches - before


def makespan_over_lb(
    requests: Sequence[PlanRequest], served: Sequence[Tuple[int, Any]]
) -> Tuple[float, int]:
    """Mean served ``R_T`` / certified lower bound over distinct instances.

    Takes the first :data:`QUALITY_INSTANCES` distinct instances (by
    canonical key and solver, in stream order) that were answered, so the
    value depends on the seed only.  Returns ``(mean, instances used)``.
    """
    seen = set()
    ratios: List[float] = []
    for index, answer in served:
        if answer is None:
            continue
        request = requests[index]
        key = (request.instance.canonical_form().key, request.solver)
        if key in seen:
            continue
        seen.add(key)
        ratios.append(answer.result.value / certified_lower_bound(request.instance))
        if len(ratios) == QUALITY_INSTANCES:
            break
    if not ratios:
        raise ValueError("no operation was answered")
    return statistics.fmean(ratios), len(ratios)
