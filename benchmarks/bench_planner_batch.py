"""Planner benchmark — batch planning throughput, cold and warm.

Plans the same 200-instance suite through :meth:`repro.api.Planner.plan_batch`
and reports instances/second for a cold batch and for the LRU-cache effect
on a repeated batch.
"""

from repro.api import Planner, PlanRequest
from repro.workloads.clusters import bounded_ratio_cluster
from repro.workloads.generator import multicast_from_cluster

SUITE_SIZE = 200
N = 24


def _suite():
    requests = []
    for seed in range(SUITE_SIZE):
        nodes = bounded_ratio_cluster(N + 1, seed)
        mset = multicast_from_cluster(nodes, latency=1 + seed % 3, seed=seed)
        requests.append(PlanRequest(instance=mset, solver="greedy+reversal"))
    return requests


def test_batch_serial(benchmark):
    requests = _suite()
    planner = Planner(cache_size=0)
    batch = benchmark(planner.plan_batch, requests)
    assert len(batch) == SUITE_SIZE
    benchmark.extra_info["instances_per_s"] = round(SUITE_SIZE / batch.elapsed_s)


def test_batch_warm_cache(benchmark):
    requests = _suite()
    planner = Planner(cache_size=SUITE_SIZE)
    planner.plan_batch(requests)  # warm
    batch = benchmark(planner.plan_batch, requests)
    assert batch.cache_hits == SUITE_SIZE
    benchmark.extra_info["instances_per_s"] = round(SUITE_SIZE / batch.elapsed_s)
