"""Bounded service lifecycle: startup/stop timeouts name the stuck phase.

Stopping never waits for a solve abandoned past its deadline.
"""

import asyncio
import multiprocessing
import signal
import threading
import time
import uuid

import pytest

from repro.api import (
    PlanRequest,
    SolverCapabilities,
    SolverOutput,
    register_solver,
    unregister_solver,
)
from repro.core.greedy import greedy_schedule
from repro.exceptions import DeadlineExceededError, ReproError, ServiceError
from repro.service.client import InProcessClient
from repro.service.server import PlanningService
from repro.service.shard import ShardRouter

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="test solvers reach worker processes via fork inheritance",
)


class TestConfiguration:
    @pytest.mark.parametrize("field", ["startup_timeout_s", "shutdown_timeout_s"])
    @pytest.mark.parametrize("value", [0.0, -5.0])
    def test_rejects_non_positive_timeouts(self, field, value):
        with pytest.raises(ReproError, match=field):
            PlanningService(**{field: value})

    def test_timeouts_are_constructor_surfaced(self):
        service = PlanningService(startup_timeout_s=3.0, shutdown_timeout_s=7.0)
        assert service.startup_timeout_s == 3.0
        assert service.shutdown_timeout_s == 7.0
        # the historical defaults are preserved
        default = PlanningService()
        assert default.startup_timeout_s == 10.0
        assert default.shutdown_timeout_s == 10.0


class TestStuckPhases:
    def test_hung_startup_names_its_phase(self, monkeypatch):
        async def hang(self, host, port):
            await asyncio.sleep(60)

        monkeypatch.setattr(PlanningService, "_startup", hang)
        service = PlanningService(startup_timeout_s=0.2)
        with pytest.raises(
            ServiceError, match="stuck in phase 'listener/dispatcher startup'"
        ):
            service.start_background()
        # the loop survives the failed startup, so cleanup still works
        monkeypatch.undo()
        service.stop()
        assert not service.is_running

    def test_hung_shutdown_names_its_phase_and_keeps_state(self, monkeypatch):
        service = PlanningService(num_shards=1, shutdown_timeout_s=0.2)
        service.start_background()
        real_shutdown = PlanningService._shutdown

        async def hang(self):
            await asyncio.sleep(60)

        monkeypatch.setattr(PlanningService, "_shutdown", hang)
        with pytest.raises(ServiceError, match="stuck in phase 'graceful shutdown'"):
            service.stop()
        # state left intact: a retry with the hang cleared succeeds
        assert service.is_running
        monkeypatch.setattr(PlanningService, "_shutdown", real_shutdown)
        service.stop()
        assert not service.is_running

    def test_stop_is_a_no_op_when_never_started(self):
        PlanningService().stop()  # must not raise


@pytest.fixture()
def blocking_solver():
    """A registered solver that blocks until the test releases it.

    Yields ``(name, entered, release)``: ``entered`` is set once a solve
    has started, and the solve returns once ``release`` is set (or after
    60s, so a broken build cannot hang the suite).
    """
    name = f"blocking-{uuid.uuid4().hex[:8]}"
    entered = threading.Event()
    release = threading.Event()

    @register_solver(name, "test: blocks until released",
                     capabilities=SolverCapabilities(max_n=0))
    def _blocking(mset, **options):
        entered.set()
        release.wait(60)
        return SolverOutput(schedule=greedy_schedule(mset))

    yield name, entered, release
    release.set()
    unregister_solver(name)


class TestWorkerShutdown:
    def test_stop_does_not_wait_for_a_solve_abandoned_past_its_deadline(
        self, fig1_mset, blocking_solver
    ):
        name, _entered, release = blocking_solver
        service = PlanningService(
            num_shards=1, solve_deadline_s=0.05, shutdown_timeout_s=5.0
        )
        service.start_background()
        assert InProcessClient(service).plan(fig1_mset, solver=name).degraded
        errors = []

        def stop():
            try:
                service.stop()
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        stopper = threading.Thread(target=stop, daemon=True)
        stopper.start()
        stopper.join(timeout=30)
        # stop() returned while the abandoned solve is still blocked
        assert not stopper.is_alive()
        assert not release.is_set()
        assert errors == []
        assert not service.is_running

    def test_a_solve_still_running_at_stop_names_the_worker_phase(
        self, fig1_mset, blocking_solver
    ):
        name, entered, release = blocking_solver
        service = PlanningService(num_shards=1, shutdown_timeout_s=0.2)
        service.start_background()
        outcome = []

        def plan():
            try:
                InProcessClient(service).plan(fig1_mset, solver=name)
            except ServiceError as exc:
                outcome.append(exc)

        caller = threading.Thread(target=plan, daemon=True)
        caller.start()
        assert entered.wait(10)
        with pytest.raises(ServiceError, match="stuck in phase 'worker shutdown'"):
            service.stop()
        release.set()
        caller.join(timeout=10)
        assert [str(e) for e in outcome] == ["service shutting down"]

    @fork_only
    def test_router_kills_a_process_worker_running_an_abandoned_solve(
        self, fig1_mset
    ):
        name = f"sleeping-{uuid.uuid4().hex[:8]}"

        @register_solver(name, "test: sleeps far past any deadline",
                         capabilities=SolverCapabilities(max_n=0))
        def _sleeping(mset, **options):
            time.sleep(60)
            return SolverOutput(schedule=greedy_schedule(mset))

        router = ShardRouter(1, mode="process")
        request = PlanRequest(instance=fig1_mset, solver=name)
        try:
            with pytest.raises(DeadlineExceededError):
                router.solve_in_worker(0, request, deadline_s=0.2)
            (worker,) = router._executor(0)._processes.values()
            closer = threading.Thread(target=router.shutdown, daemon=True)
            closer.start()
            closer.join(timeout=30)
            assert not closer.is_alive()
            worker.join(timeout=10)
            assert worker.exitcode == -signal.SIGKILL
        finally:
            router.shutdown()
            unregister_solver(name)
