"""Planner engine: caching, batching, determinism, error handling."""

import json
from dataclasses import replace

import pytest

from repro.api import (
    BatchResult,
    Planner,
    PlanRequest,
    canonical_key,
    instance_fingerprint,
    plan,
    plan_batch,
)
from repro.core.multicast import MulticastSet
from repro.exceptions import ReproError, SolverError
from repro.io.serialization import plan_result_to_dict
from repro.workloads.clusters import bounded_ratio_cluster
from repro.workloads.generator import multicast_from_cluster


def _suite(count=12, n=8):
    out = []
    for seed in range(count):
        nodes = bounded_ratio_cluster(n + 1, seed)
        out.append(multicast_from_cluster(nodes, latency=1 + seed % 2, seed=seed))
    return out


def _wire_bytes(result) -> str:
    """A result's serialized form minus the per-call fields."""
    payload = plan_result_to_dict(result)
    for volatile in ("elapsed_s", "cache_hit"):
        payload.pop(volatile)
    return json.dumps(payload, sort_keys=True)


class TestPlan:
    def test_plan_bare_instance_uses_default_solver(self, fig1_mset):
        result = Planner().plan(fig1_mset)
        assert result.solver == "greedy+reversal"
        assert result.value == 8
        assert not result.exact

    def test_plan_request_with_exact_solver(self, fig1_mset):
        result = Planner().plan(PlanRequest(instance=fig1_mset, solver="dp"))
        assert result.exact
        assert result.value == 8
        assert result.provenance["states_computed"] > 0
        # provenance carries the canonical equivalence-class key (shared
        # by renamed / power-of-two-rescaled submissions of this network)
        assert result.provenance["fingerprint"] == canonical_key(fig1_mset)

    def test_spec_options_reach_the_solver(self, fig1_mset):
        with pytest.raises(SolverError, match="node budget"):
            Planner().plan(fig1_mset, solver="exact(node_budget=1)")

    def test_request_options_override_spec_options(self, fig1_mset):
        result = Planner().plan(
            PlanRequest(
                instance=fig1_mset,
                solver="exact(node_budget=1)",
                options={"node_budget": 10_000},
            )
        )
        assert result.value == 8

    def test_include_bounds(self, fig1_mset):
        heur = Planner().plan(
            PlanRequest(instance=fig1_mset, solver="greedy", include_bounds=True)
        )
        assert not heur.bounds.opt_is_exact
        assert heur.bounds.opt_value <= 8
        exact = Planner().plan(
            PlanRequest(instance=fig1_mset, solver="dp", include_bounds=True)
        )
        assert exact.bounds.opt_is_exact and exact.bounds.measured_ratio == 1.0

    def test_tag_round_trips(self, fig1_mset):
        result = Planner().plan(PlanRequest(instance=fig1_mset, tag="job-7"))
        assert result.tag == "job-7"

    def test_unknown_spec_raises_with_alternatives(self, fig1_mset):
        with pytest.raises(SolverError, match="available"):
            Planner().plan(fig1_mset, solver="does-not-exist")

    def test_non_plannable_input_raises(self):
        with pytest.raises(ReproError, match="cannot plan"):
            Planner().plan("not an instance")


class TestCache:
    def test_hit_and_miss_accounting(self, fig1_mset):
        planner = Planner()
        first = planner.plan(fig1_mset, solver="dp")
        assert not first.cache_hit
        second = planner.plan(fig1_mset, solver="dp")
        assert second.cache_hit
        assert second.value == first.value
        assert second.schedule == first.schedule
        info = planner.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_equal_content_shares_cache_entry(self, fig1_mset):
        # a separately-built but identical instance must hit the cache
        clone = MulticastSet.from_overheads(
            (2, 3), [(1, 1), (1, 1), (1, 1), (2, 3)], 1
        )
        planner = Planner()
        planner.plan(fig1_mset, solver="greedy")
        assert planner.plan(clone, solver="greedy").cache_hit

    @pytest.mark.parametrize("solver", ["greedy", "greedy+reversal", "dp"])
    @pytest.mark.parametrize("cached_first", ["int", "float"])
    def test_number_type_twin_hit_is_byte_identical(self, solver, cached_first):
        """``2 == 2.0``, but the two serialize differently: a hit for the
        other number type must answer with the request's own types."""
        ints = MulticastSet.from_overheads((2, 3), [(1, 2), (4, 5), (4, 5)], 1)
        floats = MulticastSet.from_overheads(
            (2.0, 3.0), [(1.0, 2.0), (4.0, 5.0), (4.0, 5.0)], 1.0
        )
        first, second = (ints, floats) if cached_first == "int" else (floats, ints)
        planner = Planner()
        for include_bounds in (False, True):
            request = PlanRequest(
                instance=second, solver=solver, include_bounds=include_bounds
            )
            planner.plan(replace(request, instance=first))
            hit = planner.plan(request)
            assert hit.cache_hit
            direct = Planner(cache_size=0).plan(request)
            assert _wire_bytes(hit) == _wire_bytes(direct)
        assert planner.cache_info().canonical_hits == 2

    def test_different_solver_or_options_miss(self, fig1_mset):
        planner = Planner()
        planner.plan(fig1_mset, solver="greedy")
        assert not planner.plan(fig1_mset, solver="greedy+reversal").cache_hit
        planner.plan(fig1_mset, solver="exact")
        assert not planner.plan(
            fig1_mset, solver="exact(max_destinations=11)"
        ).cache_hit

    def test_lru_eviction(self):
        planner = Planner(cache_size=4)
        for mset in _suite(count=6):
            planner.plan(mset)
        assert planner.cache_info().currsize == 4

    def test_cache_disabled(self, fig1_mset):
        planner = Planner(cache_size=0)
        planner.plan(fig1_mset)
        assert not planner.plan(fig1_mset).cache_hit
        assert planner.cache_info().currsize == 0

    def test_clear_cache(self, fig1_mset):
        planner = Planner()
        planner.plan(fig1_mset)
        planner.clear_cache()
        info = planner.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


class TestBatch:
    def test_batch_preserves_submission_order(self):
        msets = _suite(count=8)
        batch = Planner().plan_batch(msets)
        for mset, result in zip(msets, batch):
            assert result.schedule.multicast == mset

    def test_batch_result_helpers(self, fig1_mset):
        batch = Planner().plan_batch(
            [PlanRequest(instance=fig1_mset, solver=s) for s in ("greedy", "dp")]
        )
        assert isinstance(batch, BatchResult)
        assert len(batch) == 2
        assert batch.best().solver == "dp"
        assert set(batch.by_solver()) == {"greedy", "dp"}

    def test_batch_shares_cache_across_duplicates(self, fig1_mset):
        batch = Planner().plan_batch([fig1_mset] * 5)
        assert batch.cache_hits == 4

    def test_on_error_skip_drops_failures(self, fig1_mset):
        big = MulticastSet.from_overheads((1, 2), [(1, 2)] * 15, 1)
        requests = [
            PlanRequest(instance=fig1_mset, solver="exact"),
            PlanRequest(instance=big, solver="exact"),  # over max_destinations
        ]
        with pytest.raises(SolverError):
            Planner().plan_batch(requests)
        batch = Planner().plan_batch(requests, on_error="skip")
        assert len(batch) == 1 and batch[0].value == 8

    def test_invalid_batch_parameters(self, fig1_mset):
        with pytest.raises(ReproError, match="on_error"):
            Planner().plan_batch([fig1_mset], on_error="retry")


class TestModuleLevelFacade:
    def test_plan_and_plan_batch(self, fig1_mset):
        assert plan(fig1_mset, solver="dp").value == 8
        assert plan_batch([fig1_mset] * 2).values() == (8.0, 8.0)


class TestFingerprint:
    def test_stable_and_content_based(self, fig1_mset):
        from repro.core.node import Node

        # same nodes supplied in a different order canonicalize identically
        clone = MulticastSet(
            Node("p0", 2, 3),
            [Node("d4", 2, 3), Node("d1", 1, 1), Node("d2", 1, 1), Node("d3", 1, 1)],
            1,
        )
        assert instance_fingerprint(fig1_mset) == instance_fingerprint(clone)
        other = fig1_mset.with_latency(2)
        assert instance_fingerprint(fig1_mset) != instance_fingerprint(other)


class TestCacheTiers:
    class DictTier:
        """Minimal CacheTier: a dict with hit/put counters."""

        name = "dict"

        def __init__(self):
            self.data = {}
            self.gets = 0
            self.puts = 0

        def get(self, key):
            self.gets += 1
            return self.data.get(key)

        def put(self, key, result):
            self.puts += 1
            self.data[key] = result

    def test_solves_write_through_to_tiers(self, fig1_mset):
        tier = self.DictTier()
        planner = Planner(cache_tiers=[tier])
        planner.plan(fig1_mset, solver="greedy")
        assert tier.puts == 1 and len(tier.data) == 1

    def test_lru_miss_falls_back_to_tier(self, fig1_mset):
        tier = self.DictTier()
        Planner(cache_tiers=[tier]).plan(fig1_mset, solver="greedy")
        cold = Planner(cache_tiers=[tier])  # empty LRU, shared tier
        hit = cold.plan(fig1_mset, solver="greedy")
        assert hit.cache_hit and hit.elapsed_s == 0.0
        info = cold.cache_info()
        assert (info.hits, info.tier_hits, info.misses) == (0, 1, 0)

    def test_tier_hit_promotes_into_lru(self, fig1_mset):
        tier = self.DictTier()
        Planner(cache_tiers=[tier]).plan(fig1_mset, solver="greedy")
        cold = Planner(cache_tiers=[tier])
        cold.plan(fig1_mset, solver="greedy")  # tier hit, promoted
        gets_before = tier.gets
        cold.plan(fig1_mset, solver="greedy")  # now a memory hit
        assert tier.gets == gets_before
        assert cold.cache_info().hits == 1

    def test_memory_hit_never_consults_tiers(self, fig1_mset):
        tier = self.DictTier()
        planner = Planner(cache_tiers=[tier])
        planner.plan(fig1_mset, solver="greedy")  # one tier miss, then solve
        gets_after_solve = tier.gets
        planner.plan(fig1_mset, solver="greedy")
        assert tier.gets == gets_after_solve  # LRU answered; tier untouched

    def test_cache_lookup_and_store_round_trip(self, fig1_mset):
        planner = Planner()
        request = PlanRequest(instance=fig1_mset, solver="greedy", tag="svc")
        assert planner.cache_lookup(request) is None
        from repro.api.planner import _plan_standalone

        planner.cache_store(request, _plan_standalone(request))
        result, tier = planner.cache_lookup(request)
        assert tier == "memory"
        assert result.cache_hit and result.tag == "svc"

    def test_add_cache_tier_validates_interface(self):
        planner = Planner()
        with pytest.raises(ReproError, match="lacks a callable"):
            planner.add_cache_tier(object())
        tier = self.DictTier()
        planner.add_cache_tier(tier)
        assert planner.cache_tiers == (tier,)
