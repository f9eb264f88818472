"""The planner's optimal-table fast path: parity, reuse, guard rails."""

import json

import pytest

from repro.api import OptimalTableCache, Planner, PlanRequest
from repro.api.tables import TableCacheConfig
from repro.core.multicast import MulticastSet
from repro.exceptions import ReproError, SolverError
from repro.io.serialization import plan_result_to_dict


def _canonical(result):
    payload = plan_result_to_dict(result)
    payload["elapsed_s"] = 0.0
    payload["cache_hit"] = False
    payload["tag"] = None
    return json.dumps(payload, sort_keys=True)


def _two_type(fast, slow, latency=1):
    return MulticastSet.from_overheads(
        source=(2, 3),
        destinations=[(1, 1)] * fast + [(2, 3)] * slow,
        latency=latency,
    )


class TestParity:
    @pytest.mark.parametrize("shape", [(3, 1), (5, 2), (2, 6), (1, 1)])
    def test_byte_identical_to_direct_solve(self, shape):
        direct = Planner(cache_size=0, table_config=TableCacheConfig(enabled=False))
        reusing = Planner(cache_size=0)
        mset = _two_type(*shape)
        assert _canonical(direct.plan(mset, "dp")) == _canonical(
            reusing.plan(mset, "dp")
        )

    def test_bounds_requests_also_identical(self):
        direct = Planner(cache_size=0, table_config=TableCacheConfig(enabled=False))
        reusing = Planner(cache_size=0)
        request_for = lambda: PlanRequest(
            instance=_two_type(4, 3), solver="dp", include_bounds=True
        )
        assert _canonical(direct.plan(request_for())) == _canonical(
            reusing.plan(request_for())
        )

    def test_parity_independent_of_cache_history(self):
        # a planner that has served other shapes first must answer the
        # same bytes as a fresh one (service-parity depends on this)
        fresh = Planner(cache_size=0)
        warmed = Planner(cache_size=0)
        for fast, slow in [(6, 6), (2, 1), (5, 3)]:
            warmed.plan(_two_type(fast, slow), "dp")
        mset = _two_type(3, 2)
        assert _canonical(fresh.plan(mset, "dp")) == _canonical(
            warmed.plan(mset, "dp")
        )


class TestReuse:
    def test_repeated_type_system_hits_the_table(self):
        planner = Planner(cache_size=0)
        planner.plan(_two_type(4, 4), "dp")
        cache = planner.table_cache
        assert cache is not None and cache.builds == 1
        planner.plan(_two_type(2, 3), "dp")  # smaller mix, same types
        assert cache.builds == 1 and cache.hits == 1

    def test_growth_extends_incrementally(self):
        planner = Planner(cache_size=0)
        planner.plan(_two_type(2, 2), "dp")
        planner.plan(_two_type(6, 6), "dp")  # outgrows the first table
        cache = planner.table_cache
        assert cache.builds == 1 and cache.extensions == 1
        planner.plan(_two_type(5, 6), "dp")
        assert cache.builds == 1 and cache.extensions == 1 and cache.hits == 1

    def test_equivalent_networks_share_a_table(self):
        # renamed nodes and power-of-two-rescaled overheads canonicalize
        # onto the same table (the planner passes canonical instances)
        planner = Planner(cache_size=0)
        planner.plan(_two_type(4, 4), "dp")
        scaled = MulticastSet.from_overheads(
            source=(4, 6),
            destinations=[(2, 2)] * 3 + [(4, 6)] * 2,
            latency=2,
        )
        planner.plan(scaled, "dp")
        cache = planner.table_cache
        assert cache.builds == 1 and cache.hits == 1

    def test_latency_is_part_of_the_key(self):
        planner = Planner(cache_size=0)
        planner.plan(_two_type(3, 3, latency=1), "dp")
        planner.plan(_two_type(3, 3, latency=2), "dp")
        assert planner.table_cache.builds == 2

    def test_reuse_disabled_has_no_cache(self):
        planner = Planner(cache_size=0, table_config=TableCacheConfig(enabled=False))
        planner.plan(_two_type(3, 3), "dp")
        assert planner.table_cache is None

    def test_non_reusable_solvers_bypass_the_cache(self):
        planner = Planner(cache_size=0)
        planner.plan(_two_type(4, 4), "greedy")
        assert len(planner.table_cache) == 0

    def test_batch_shares_the_table(self):
        planner = Planner(cache_size=0)
        requests = [
            PlanRequest(instance=_two_type(fast, 8 - fast), solver="dp")
            for fast in range(1, 8)
        ] * 2
        batch = planner.plan_batch(requests)
        serial = Planner(cache_size=0, table_config=TableCacheConfig(enabled=False)).plan_batch(
            requests
        )
        assert [_canonical(r) for r in batch] == [_canonical(r) for r in serial]


class TestGuards:
    def test_max_states_still_raises_identically(self):
        planner = Planner(cache_size=0)
        with pytest.raises(SolverError, match="state space too large"):
            planner.plan(_two_type(9, 9), "dp", max_states=10)

    def test_oversized_growth_falls_back_to_direct_solve(self):
        cache = OptimalTableCache(max_states=60)
        small = _two_type(2, 2)  # 2 * 3 * 3 = 18 states
        assert cache.acquire(small) is not None
        big = _two_type(4, 4)  # growth would need 2 * 5 * 5 = 50 <= 60: ok
        assert cache.acquire(big) is not None
        huge = _two_type(9, 9)  # 2 * 10 * 10 = 200 > 60: direct path
        assert cache.acquire(huge) is None
        assert cache.builds == 1 and cache.extensions == 1

    def test_eviction_by_held_states(self):
        # budget of 60 states: the 50-state second table evicts the first
        cache = OptimalTableCache(max_total_states=60)
        cache.acquire(_two_type(2, 2, latency=1))  # 18 states
        cache.acquire(_two_type(2, 2, latency=2))  # 18 more: both fit
        assert len(cache) == 2 and cache.evictions == 0
        cache.acquire(_two_type(4, 4, latency=3))  # 50 states: evict LRU
        assert len(cache) < 3
        assert cache.evictions >= 1
        assert cache.states_held <= cache.max_total_states

    def test_growth_guard_respects_the_budget(self):
        # growing a resident table past the budget evicts colder tables,
        # never exceeds the committed total, and refuses single tables
        # larger than the whole budget
        cache = OptimalTableCache(max_total_states=120)
        cache.acquire(_two_type(2, 2, latency=1))
        cache.acquire(_two_type(2, 2, latency=2))
        grown = cache.acquire(_two_type(6, 6, latency=1))  # 98 states
        assert grown is not None
        assert cache.states_held <= cache.max_total_states
        assert cache.acquire(_two_type(9, 9, latency=1)) is None  # 200 > 120
        assert cache.states_held <= cache.max_total_states

    def test_clear_resets_counters(self):
        cache = OptimalTableCache()
        cache.acquire(_two_type(2, 2))
        cache.acquire(_two_type(2, 1))
        cache.clear()
        assert (len(cache), cache.hits, cache.builds) == (0, 0, 0)
        assert (cache.extensions, cache.evictions) == (0, 0)


class TestPins:
    """Pin-by-session: eviction must never drop a table a repair holds."""

    def test_pinned_table_survives_eviction_pressure(self):
        # budget of 60: the 50-state newcomer would evict the LRU 18-state
        # table — unless that table is pinned by an in-flight session
        cache = OptimalTableCache(max_total_states=60)
        held = cache.acquire(_two_type(2, 2, latency=1), pin=True)  # 18
        assert held is not None
        cache.acquire(_two_type(4, 4, latency=3))  # 50 states of pressure
        assert cache.acquire(_two_type(2, 2, latency=1)) is held
        assert cache.stats()["pins"] == 1

    def test_unpinned_tables_still_evict_under_the_same_pressure(self):
        cache = OptimalTableCache(max_total_states=60)
        cache.acquire(_two_type(2, 2, latency=1))  # same shape, no pin
        cache.acquire(_two_type(4, 4, latency=3))
        assert cache.evictions >= 1

    def test_release_reexposes_the_table_to_eviction(self):
        cache = OptimalTableCache(max_total_states=60)
        mset = _two_type(2, 2, latency=1)
        held = cache.acquire(mset, pin=True)
        cache.acquire(_two_type(4, 4, latency=3))  # over budget, pin holds
        assert cache.acquire(mset) is held  # the pinned table survived
        cache.release_box(mset.type_keys(), mset.latency)
        cache.acquire(_two_type(4, 4, latency=3))
        # once unpinned, the budget applies to it like any other table
        assert cache.states_held <= cache.max_total_states
        assert cache.stats()["pins"] == 0

    def test_pin_survives_incremental_extension(self):
        # extension replaces the table object under the same key, so the
        # pin keeps protecting the grown table
        cache = OptimalTableCache(max_total_states=200)
        cache.acquire(_two_type(2, 2, latency=1), pin=True)
        grown = cache.acquire(_two_type(4, 4, latency=1))  # extends in place
        assert cache.extensions == 1
        cache.acquire(_two_type(6, 6, latency=2))  # 98 states of pressure
        assert cache.acquire(_two_type(4, 4, latency=1)) is grown
        cache.release_box(_two_type(2, 2, latency=1).type_keys(), 1)

    def test_pins_are_counted_per_acquire(self):
        cache = OptimalTableCache()
        mset = _two_type(2, 2)
        cache.acquire(mset, pin=True)
        cache.acquire(mset, pin=True)  # hit path must also register pins
        assert cache.stats()["pins"] == 2
        cache.release_box(mset.type_keys(), mset.latency)
        assert cache.stats()["pins"] == 1
        cache.release_box(mset.type_keys(), mset.latency)
        assert cache.stats()["pins"] == 0

    def test_unbalanced_release_is_rejected(self):
        cache = OptimalTableCache()
        mset = _two_type(2, 2)
        cache.acquire(mset)  # unpinned
        with pytest.raises(ReproError, match="release_box without a matching"):
            cache.release_box(mset.type_keys(), mset.latency)

    def test_failed_acquire_takes_no_pin(self):
        cache = OptimalTableCache(max_total_states=10)
        assert cache.acquire(_two_type(4, 4), pin=True) is None  # 50 > 10
        assert cache.stats()["pins"] == 0

    def test_clear_drops_pins(self):
        cache = OptimalTableCache()
        cache.acquire(_two_type(2, 2), pin=True)
        cache.clear()
        assert cache.stats()["pins"] == 0
