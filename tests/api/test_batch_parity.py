"""Property tests: ``plan_batch`` answers exactly what ``plan`` answers.

The batch API's core contract — results come back in submission order,
each byte-identical to planning its request on its own, and two batch runs
agree — is checked here for *every* registered solver over
Hypothesis-drawn correlated instances, comparing canonical result payloads
(volatile wall-clock and cache-provenance fields neutralized) rather than
just values.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Planner, PlanRequest, available_solvers, capable_solvers
from repro.conformance.invariants import canonical_result_payload

from tests.strategies import multicast_sets


def _requests(msets, solver):
    return [
        PlanRequest(instance=mset, solver=solver, tag=f"job-{i}")
        for i, mset in enumerate(msets)
        if solver in capable_solvers(mset)
    ]


def _payloads(results):
    return [canonical_result_payload(result) for result in results]


def _planned_one_by_one(requests):
    planner = Planner(cache_size=0)
    return [planner.plan(request) for request in requests]


@pytest.mark.parametrize("solver", available_solvers())
@settings(max_examples=15, deadline=None)
@given(msets=st.lists(multicast_sets(max_n=6), min_size=1, max_size=5))
def test_batch_identical_to_per_request_plans(solver, msets):
    requests = _requests(msets, solver)
    if not requests:
        return
    batch = Planner(cache_size=0).plan_batch(requests)
    assert _payloads(batch) == _payloads(_planned_one_by_one(requests))
    # order stability: tags echo back in submission order
    assert [r.tag for r in batch] == [req.tag for req in requests]


@pytest.mark.parametrize("solver", available_solvers())
@settings(max_examples=10, deadline=None)
@given(msets=st.lists(multicast_sets(max_n=5), min_size=2, max_size=4))
def test_batch_runs_are_reproducible(solver, msets):
    """Two independent batches agree bit-for-bit."""
    requests = _requests(msets, solver)
    if not requests:
        return
    first = Planner(cache_size=0).plan_batch(requests)
    second = Planner(cache_size=0).plan_batch(requests)
    assert _payloads(first) == _payloads(second)


@settings(max_examples=10, deadline=None)
@given(msets=st.lists(multicast_sets(max_n=6), min_size=1, max_size=6))
def test_mixed_solver_batch_is_order_stable(msets):
    """One batch mixing every capable solver keeps submission order."""
    requests = [
        PlanRequest(instance=mset, solver=solver, tag=f"{i}:{solver}")
        for i, mset in enumerate(msets)
        for solver in capable_solvers(mset)
    ]
    batch = Planner(cache_size=0).plan_batch(requests)
    assert [r.tag for r in batch] == [req.tag for req in requests]
    assert _payloads(batch) == _payloads(_planned_one_by_one(requests))
