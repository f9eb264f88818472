"""Acceptance: multi-group inner solves hit the shared amortization stack.

The tentpole claim of the contention layer's architecture is that
planning many concurrent groups costs *one* single-group solve per
canonical network, not one per group: the inner subproblems route through
``Planner.plan_batch``, so canonical-key caching collapses equivalent
groups and ``dp`` table work lands in the shared
:class:`~repro.api.tables.OptimalTableCache`.  This test pins that wiring
— a regression that silently re-solves per group fails here, not just in
wall-clock time.
"""

from repro.api import MultiGroupPlanner, Planner
from repro.core.contention import MultiGroupInstance
from repro.core.multicast import MulticastSet
from repro.core.node import Node
from repro.workloads import multi_group_workload


def _equivalent_groups(n_groups=4, n=4):
    """Groups over disjoint-name copies of one canonical network."""
    source = Node("hub", 2, 4)
    return MultiGroupInstance(
        [
            MulticastSet(
                source,
                [Node(f"g{g}d{i}", 1, 2) for i in range(n)],
                1,
            )
            for g in range(n_groups)
        ]
    )


def test_equivalent_groups_collapse_to_one_canonical_solve():
    planner = Planner()
    instance = _equivalent_groups()
    result = MultiGroupPlanner(planner).plan_groups(instance, solver="dp")
    info = planner.cache_info()
    # groups 1..3 are canonically equivalent to group 0: one real solve,
    # the rest rebind through the canonical key
    assert info.canonical_hits == instance.n_groups - 1
    assert planner.table_cache.stats()["builds"] == 1
    assert all(r.exact for r in result.group_results)


def test_repeated_networks_share_tables_across_scenarios():
    """Replanning the same workload family keeps hitting the shared cache."""
    planner = Planner()
    mg_planner = MultiGroupPlanner(planner)
    first = multi_group_workload(groups=3, n=4, seed=0, latency=2)
    second = multi_group_workload(groups=3, n=4, seed=0, latency=2)
    mg_planner.plan_groups(first, solver="dp")
    builds_after_first = planner.table_cache.stats()["builds"]
    mg_planner.plan_groups(second, solver="dp")
    info = planner.cache_info()
    # the second instance is identical: every inner solve is a cache hit
    assert info.hits >= second.n_groups
    assert planner.table_cache.stats()["builds"] == builds_after_first


def test_compare_strategies_pays_for_inner_solves_once():
    planner = Planner()
    instance = _equivalent_groups(n_groups=3)
    results = MultiGroupPlanner(planner).compare_strategies(
        instance, solver="dp"
    )
    info = planner.cache_info()
    # 3 strategies x 3 groups = 9 requests; after the first strategy the
    # other two batches are pure cache hits, and within the first batch
    # two of three groups rebind canonically
    assert len(results) == 3
    assert info.canonical_hits >= instance.n_groups - 1
    assert info.hits >= 2 * instance.n_groups
    assert planner.table_cache.stats()["builds"] == 1
