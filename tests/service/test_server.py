"""PlanningService (embedded): correctness vs direct Planner, tiers, metrics."""

import pytest

from repro.api import Planner, PlanRequest
from repro.exceptions import ServiceError, SolverError
from repro.service import InProcessClient, PlanningService


@pytest.fixture
def service(tmp_path):
    with PlanningService(
        store_path=tmp_path / "planstore", num_shards=2, worker_mode="thread"
    ) as running:
        yield running


class TestServedPlans:
    def test_matches_direct_planner(self, service, fig1_mset):
        client = InProcessClient(service)
        for solver in ("greedy", "greedy+reversal", "dp"):
            served = client.plan(fig1_mset, solver=solver)
            direct = Planner(cache_size=0).plan(fig1_mset, solver=solver)
            assert served.result.value == direct.value
            assert served.result.schedule == direct.schedule
            assert served.result.solver == direct.solver

    def test_tier_progression(self, service, fig1_mset):
        client = InProcessClient(service)
        first = client.plan(fig1_mset, solver="dp")
        second = client.plan(fig1_mset, solver="dp")
        assert (first.tier, second.tier) == ("solve", "memory")
        assert not first.result.cache_hit
        assert second.result.cache_hit

    def test_batch_order_and_tags(self, service, small_random_msets):
        client = InProcessClient(service)
        requests = [
            PlanRequest(instance=mset, tag=f"job-{i}")
            for i, mset in enumerate(small_random_msets)
        ]
        served = client.plan_batch(requests)
        assert [p.result.tag for p in served] == [r.tag for r in requests]
        for request, plan in zip(requests, served):
            assert plan.result.schedule.multicast == request.instance

    def test_solver_errors_propagate(self, service, fig1_mset):
        client = InProcessClient(service)
        with pytest.raises(SolverError, match="unknown solver"):
            client.plan(fig1_mset, solver="does-not-exist")
        # the service survives the error and keeps serving
        assert client.plan(fig1_mset).result.value == 8

    def test_include_bounds_through_service(self, service, fig1_mset):
        client = InProcessClient(service)
        served = client.plan(
            PlanRequest(instance=fig1_mset, solver="greedy", include_bounds=True)
        )
        assert served.result.bounds is not None


class TestPersistence:
    def test_restart_serves_from_store(self, tmp_path, fig1_mset, small_random_msets):
        store = tmp_path / "planstore"
        with PlanningService(store_path=store, num_shards=2) as service:
            client = InProcessClient(service)
            originals = [
                client.plan(mset).result
                for mset in [fig1_mset, *small_random_msets]
            ]
            assert all(
                p.tier == "solve"
                for p in [client.plan(fig1_mset, solver="dp")]
            )

        # fresh process-equivalent: new service, new planner, same store
        with PlanningService(store_path=store, num_shards=2) as service:
            client = InProcessClient(service)
            for mset, original in zip(
                [fig1_mset, *small_random_msets], originals
            ):
                served = client.plan(mset)
                assert served.tier == "store"
                assert served.result.value == original.value
                assert served.result.schedule == original.schedule
            assert service.metrics.get("solves") == 0

    def test_memory_only_service_has_no_store(self, fig1_mset):
        with PlanningService(num_shards=1) as service:
            assert service.store is None
            served = InProcessClient(service).plan(fig1_mset)
            assert served.tier == "solve"


class TestLifecycleAndAdmission:
    def test_not_running_raises(self, fig1_mset):
        service = PlanningService(num_shards=1)
        with pytest.raises(ServiceError, match="not running"):
            InProcessClient(service).plan(PlanRequest(instance=fig1_mset))

    def test_double_start_rejected(self):
        service = PlanningService(num_shards=1)
        service.start_background()
        try:
            with pytest.raises(ServiceError, match="already running"):
                service.start_background()
            with pytest.raises(ServiceError, match="already running"):
                service.run()
        finally:
            service.stop()

    def test_stop_is_idempotent(self):
        service = PlanningService(num_shards=1)
        service.start_background()
        service.stop()
        service.stop()

    def test_admission_rejection_when_queue_full(self, fig1_mset):
        # max_pending=1 and paused shard workers: the second miss while one
        # is queued must be rejected, not buffered without bound
        import asyncio

        service = PlanningService(num_shards=1, max_pending=1, worker_mode="inline")

        async def go():
            await service._startup(None, 0)
            for task in service._dispatchers:  # pause dispatch entirely
                task.cancel()
            await asyncio.gather(*service._dispatchers, return_exceptions=True)
            queued = asyncio.get_running_loop().create_task(
                service.submit(PlanRequest(instance=fig1_mset), "a")
            )
            await asyncio.sleep(0.3)  # let it pass lookup and enqueue
            with pytest.raises(ServiceError, match="admission queue full"):
                await service.submit(PlanRequest(instance=fig1_mset), "b")
            queued.cancel()
            await asyncio.gather(queued, return_exceptions=True)
            return service.metrics.get("rejected")

        assert asyncio.run(go()) == 1

    def test_in_process_timeout_raises_service_error(self, fig1_mset):
        import time
        import uuid

        from repro.api import SolverCapabilities, SolverOutput, register_solver
        from repro.core.greedy import greedy_schedule

        name = f"dawdle-{uuid.uuid4().hex[:8]}"

        @register_solver(name, "slow test solver",
                         capabilities=SolverCapabilities(max_n=0))
        def _dawdle(mset, **options):
            time.sleep(1.0)
            return SolverOutput(schedule=greedy_schedule(mset))

        with PlanningService(num_shards=1) as service:
            with pytest.raises(ServiceError, match="timed out"):
                InProcessClient(service, timeout=0.2).plan(fig1_mset, solver=name)

    def test_stop_detaches_store_tier_from_supplied_planner(
        self, tmp_path, fig1_mset
    ):
        planner = Planner()
        service = PlanningService(planner=planner, store_path=tmp_path / "ps")
        assert planner.cache_tiers == ()  # not attached until running
        with service:
            assert planner.cache_tiers == (service.store,)
            InProcessClient(service).plan(fig1_mset)
        # the caller's planner is handed back unmodified
        assert planner.cache_tiers == ()

    def test_miss_backlog_still_respects_admission_cap(self, fig1_mset):
        """Cache misses queue in the FairQueue (bounded), not in unbounded
        shard buffers: flooding with slow requests triggers rejections."""
        import threading
        import time
        import uuid

        from repro.api import SolverCapabilities, SolverOutput, register_solver
        from repro.core.greedy import greedy_schedule

        name = f"busy-{uuid.uuid4().hex[:8]}"

        @register_solver(name, "slow test solver",
                         capabilities=SolverCapabilities(max_n=0))
        def _busy(mset, **options):
            time.sleep(1.0)
            return SolverOutput(schedule=greedy_schedule(mset))

        with PlanningService(
            num_shards=1, max_pending=2, worker_mode="thread"
        ) as service:
            outcomes = []

            def submit(client_id):
                try:
                    client = InProcessClient(service, client_id=client_id)
                    outcomes.append(client.plan(fig1_mset, solver=name))
                except ServiceError as exc:
                    outcomes.append(exc)

            threads = [
                threading.Thread(target=submit, args=(f"flood-{i}",))
                for i in range(10)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            rejected = [
                o for o in outcomes
                if isinstance(o, ServiceError) and "admission queue full" in str(o)
            ]
            assert rejected, "flooding past max_pending must reject requests"
            assert service.metrics.get("rejected") == len(rejected)
            # the admitted duplicates coalesced onto a single solve
            assert service.metrics.get("solves") == 1


class TestDeduplication:
    def test_identical_concurrent_requests_solve_once(self, fig1_mset):
        """Duplicates share a shard; the worker's cache re-check coalesces
        them so a given (instance, solver) is solved at most once."""
        import threading
        import time
        import uuid

        from repro.api import SolverCapabilities, SolverOutput, register_solver
        from repro.core.greedy import greedy_schedule

        name = f"sleepy-{uuid.uuid4().hex[:8]}"

        # max_n=0 keeps this throwaway solver out of capable_solvers()
        @register_solver(name, "slow test solver",
                         capabilities=SolverCapabilities(max_n=0))
        def _sleepy(mset, **options):
            time.sleep(0.3)
            return SolverOutput(schedule=greedy_schedule(mset))

        with PlanningService(num_shards=2, worker_mode="thread") as service:
            plans, errors = [], []

            def submit(client_id):
                try:
                    client = InProcessClient(service, client_id=client_id)
                    plans.append(client.plan(fig1_mset, solver=name))
                except Exception as exc:  # pragma: no cover - surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=submit, args=(f"client-{i}",))
                for i in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors
            assert service.metrics.get("solves") == 1
            assert service.metrics.get("coalesced") == 2
            assert len({plan.result.value for plan in plans}) == 1

    def test_slow_shard_does_not_block_other_shards(self, fig1_mset):
        """A long solve on one shard must not delay another shard's work."""
        import threading
        import time
        import uuid

        from repro.api import (
            PlanRequest,
            SolverCapabilities,
            SolverOutput,
            register_solver,
        )
        from repro.core.greedy import greedy_schedule
        from repro.workloads.clusters import bounded_ratio_cluster
        from repro.workloads.generator import multicast_from_cluster

        name = f"glacial-{uuid.uuid4().hex[:8]}"
        slow_done = threading.Event()

        @register_solver(name, "very slow test solver",
                         capabilities=SolverCapabilities(max_n=0))
        def _glacial(mset, **options):
            time.sleep(2.0)
            return SolverOutput(schedule=greedy_schedule(mset))

        with PlanningService(num_shards=2, worker_mode="thread") as service:
            # routing is by canonical network key: find an instance whose
            # network lands on the other shard
            slow_shard = service.router.shard_for(PlanRequest(instance=fig1_mset))
            for seed in range(64):
                other = multicast_from_cluster(
                    bounded_ratio_cluster(6, seed), latency=1, seed=seed
                )
                if (
                    service.router.shard_for(PlanRequest(instance=other))
                    != slow_shard
                ):
                    break
            else:  # pragma: no cover - 2^-64 unlucky
                pytest.skip("no instance found on the other shard")

            def run_slow():
                InProcessClient(service, client_id="slow").plan(
                    fig1_mset, solver=name
                )
                slow_done.set()

            slow_thread = threading.Thread(target=run_slow)
            slow_thread.start()
            time.sleep(0.2)  # let the glacial solve occupy its shard
            fast = InProcessClient(service, client_id="fast").plan(other)
            assert not slow_done.is_set(), (
                "fast request should finish while the slow shard is busy"
            )
            assert fast.tier == "solve"
            slow_thread.join(timeout=30)
            assert slow_done.is_set()


class TestMetrics:
    def test_describe_metrics_families(self, service, fig1_mset):
        client = InProcessClient(service)
        client.plan(fig1_mset)
        client.plan(fig1_mset)
        metrics = client.metrics()
        assert metrics["requests"] == 2
        assert metrics["solves"] == 1
        assert metrics["hits_memory"] == 1
        assert metrics["store_live_keys"] == 1
        assert set(metrics) >= {"shard_0", "shard_1", "planner_cache_size"}
