"""Acceptance: group-solve batches are byte-identical to per-instance plans.

Sweeps the full conformance ``quick`` corpus — every cluster family x
source policy x size plus the adversarial catalogue — planning every
``dp``-capable instance twice: once through ``plan_batch(group_solve=True)``
(one table per canonical type-system bucket) and once per-instance through
a table-reuse-free planner.  Every serialized result must match byte for
byte, *including* provenance and ``states_computed``, which is exactly
what the conformance service-parity invariant compares — so group-solve
can never be observed from the outside.
"""

import json

from repro.api import Planner, PlanRequest
from repro.api.solvers import capable_solvers
from repro.api.tables import TableCacheConfig
from repro.conformance import generate_corpus
from repro.core.dp import estimated_states
from repro.io.serialization import plan_result_to_dict

#: Cap mirroring tests/perf/test_reference_identity.py: keep per-spec cost
#: test-sized (the quick corpus tops out far below this).
MAX_IDENTITY_STATES = 200_000


def _payload(result) -> str:
    body = plan_result_to_dict(result)
    body["elapsed_s"] = 0.0
    return json.dumps(body, sort_keys=True)


def test_group_solve_bit_identical_on_quick_corpus():
    instances = []
    for spec in generate_corpus("quick"):
        mset = spec.build()
        if "dp" not in capable_solvers(mset):
            continue
        if estimated_states(mset) > MAX_IDENTITY_STATES:
            continue  # pragma: no cover - quick corpus stays tiny
        instances.append((spec.key, mset))
    assert len(instances) > 100  # the corpus must actually exercise the DP

    requests = [
        PlanRequest(instance=mset, solver="dp", tag=key) for key, mset in instances
    ]
    grouped_planner = Planner(cache_size=0)
    grouped = grouped_planner.plan_batch(requests, group_solve=True)
    per_instance = Planner(cache_size=0, table_config=TableCacheConfig(enabled=False)).plan_batch(
        requests, group_solve=False
    )
    assert len(grouped) == len(per_instance) == len(requests)
    for ours, theirs in zip(grouped, per_instance):
        assert _payload(ours) == _payload(theirs), theirs.tag
    # the sweep really was amortized: far fewer tables than instances
    cache = grouped_planner.table_cache
    assert 0 < cache.builds + cache.extensions < len(instances) / 2
