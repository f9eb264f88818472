"""E7 benchmark — scheduler shoot-out under the receive-send model.

Times every registered (heuristic) solver on the same two-class instance
through the :mod:`repro.api` façade and attaches its completion relative to
the paper's greedy+reversal; the expected shape (the paper's algorithm wins
or ties) is asserted.
"""

import pytest

from repro.api import Planner, solver_items
from repro.workloads.clusters import two_class_cluster
from repro.workloads.generator import multicast_from_cluster

N = 128

SCHEDULERS = [
    e.name
    for e in solver_items()
    if not (e.capabilities.exact or e.capabilities.multi_group)
]


def _instance():
    n_slow = (N + 1) // 3
    nodes = two_class_cluster(N + 1 - n_slow, n_slow)
    return multicast_from_cluster(nodes, latency=1, source="slowest")


@pytest.mark.parametrize("name", SCHEDULERS)
def test_scheduler(benchmark, planner, name):
    mset = _instance()
    result = benchmark(planner.plan, mset, name)
    reference = planner.plan(mset, "greedy+reversal").value
    rel = result.value / reference
    benchmark.extra_info["completion"] = result.value
    benchmark.extra_info["vs_greedy_reversal"] = round(rel, 4)
    if name == "greedy+ls":
        assert rel <= 1.0 + 1e-9  # local search may only improve
    else:
        assert rel >= 1.0 - 1e-9  # the paper's algorithm wins or ties


def test_expected_ordering():
    """Non-timed: the E7 shape — who wins, and by roughly what class."""
    mset = _instance()
    planner = Planner()
    values = {name: planner.plan(mset, name).value for name in SCHEDULERS}
    best = values["greedy+reversal"]
    assert best == min(v for k, v in values.items() if k != "greedy+ls")
    assert values["greedy+ls"] <= best
    assert values["greedy"] <= values["fnf"] + 1e-9  # receive-awareness helps
    assert values["fnf"] <= values["random"]  # any greedy beats no scheduling
    assert values["binomial"] < values["star"]  # log-depth beats source-only
    assert values["star"] < values["chain"]  # with L=1, depth-n pipeline loses
