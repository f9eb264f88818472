"""RetryPolicy + ServiceClient resilience: backoff, reconnect, recovery."""

import time
import uuid

import pytest

from repro import faults
from repro.exceptions import ReproError, ServiceError, ServiceRetryableError
from repro.faults import FaultPlan, FaultSpec
from repro.service.client import RetryPolicy, ServiceClient
from repro.service.server import PlanningService


class TestRetryPolicyValidation:
    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            ({"attempts": 0}, "attempts"),
            ({"base_delay_s": -0.1}, "base_delay_s"),
            ({"multiplier": 0.5}, "multiplier"),
            ({"base_delay_s": 1.0, "max_delay_s": 0.5}, "max_delay_s"),
            ({"jitter": 1.5}, "jitter"),
            ({"deadline_s": 0.0}, "deadline_s"),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs, match):
        with pytest.raises(ReproError, match=match):
            RetryPolicy(**kwargs)


class TestBackoffSchedule:
    def test_exponential_schedule_without_jitter(self):
        policy = RetryPolicy(
            attempts=5, base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5, jitter=0.0
        )
        assert list(policy.delays()) == [0.1, 0.2, 0.4, 0.5]

    def test_jitter_is_seeded_and_bounded(self):
        def schedule(seed):
            policy = RetryPolicy(
                attempts=6, base_delay_s=0.1, max_delay_s=1.0, jitter=0.5, seed=seed
            )
            return list(policy.delays())

        assert schedule(3) == schedule(3)  # deterministic replay
        assert schedule(3) != schedule(4)  # but seed-dependent
        plain = RetryPolicy(
            attempts=6, base_delay_s=0.1, max_delay_s=1.0, jitter=0.0
        )
        for jittered, base in zip(schedule(3), plain.delays()):
            assert base <= jittered <= base * 1.5 + 1e-12

    def test_single_attempt_means_no_delays(self):
        assert list(RetryPolicy(attempts=1).delays()) == []


@pytest.fixture()
def service():
    service = PlanningService(num_shards=1)
    address = service.start_background(tcp=True)
    try:
        yield service, address
    finally:
        service.stop()


class TestTransportRecovery:
    def test_dropped_frame_is_retried_transparently(self, service, fig1_mset):
        _, (host, port) = service
        client = ServiceClient(
            host,
            port,
            timeout=0.3,
            retry=RetryPolicy(attempts=4, base_delay_s=0.02, jitter=0.0),
        )
        plan = FaultPlan([FaultSpec("client.drop_send", count=1)])
        try:
            with faults.inject(plan):
                served = client.plan(fig1_mset, solver="greedy")
            assert served.result.value > 0
            assert plan.fired() == {"client.drop_send": 1}
            assert client.local_metrics.get("timeouts") == 1
            assert client.local_metrics.get("retries") == 1
            assert client.local_metrics.get("reconnects") == 1
        finally:
            client.close()

    def test_partial_frame_is_retried_transparently(self, service, fig1_mset):
        _, (host, port) = service
        client = ServiceClient(
            host,
            port,
            timeout=1.0,
            retry=RetryPolicy(attempts=4, base_delay_s=0.02, jitter=0.0),
        )
        plan = FaultPlan([FaultSpec("client.partial_send", count=1)])
        try:
            with faults.inject(plan):
                served = client.plan(fig1_mset, solver="greedy")
            assert served.result.value > 0
            assert plan.fired() == {"client.partial_send": 1}
            assert client.local_metrics.get("retries") == 1
            assert client.local_metrics.get("reconnects") == 1
        finally:
            client.close()

    def test_non_idempotent_verbs_are_never_replayed(self, service, fig1_mset):
        _, (host, port) = service
        client = ServiceClient(
            host,
            port,
            timeout=0.3,
            retry=RetryPolicy(attempts=5, base_delay_s=0.02, jitter=0.0),
        )
        plan = FaultPlan([FaultSpec("client.drop_send", count=1)])
        try:
            with faults.inject(plan):
                with pytest.raises(ServiceRetryableError):
                    client.open_session(fig1_mset)
            assert plan.fired() == {"client.drop_send": 1}  # exactly one send
            assert client.local_metrics.get("retries") == 0
            # the broken transport still heals on the next idempotent call
            assert client.ping()
            assert client.local_metrics.get("reconnects") == 1
        finally:
            client.close()

    def test_deadline_budget_stops_retrying_early(self, service, fig1_mset):
        _, (host, port) = service
        client = ServiceClient(
            host,
            port,
            timeout=0.2,
            retry=RetryPolicy(
                attempts=10, base_delay_s=0.3, jitter=0.0, deadline_s=0.25
            ),
        )
        try:
            started = time.monotonic()
            with faults.inject(FaultPlan([FaultSpec("client.drop_send")])):
                with pytest.raises(ServiceRetryableError):
                    client.plan(fig1_mset, solver="greedy")
            # one read timeout, then the budget forbids sleeping again
            assert time.monotonic() - started < 1.0
            assert client.local_metrics.get("retries") == 0
        finally:
            client.close()


class TestManualReconnect:
    def test_reconnect_restores_a_broken_client(self, service, fig1_mset):
        _, (host, port) = service
        client = ServiceClient(host, port, timeout=0.3)
        try:
            with faults.inject(FaultPlan([FaultSpec("client.drop_send", count=1)])):
                with pytest.raises(ServiceError, match="connection failed"):
                    client.plan(fig1_mset, solver="greedy")
            with pytest.raises(ServiceError, match="reconnect"):
                client.ping()  # fail-closed until explicitly recovered
            client.reconnect()
            assert client.ping()
            assert client.plan(fig1_mset, solver="greedy").result.value > 0
            assert client.local_metrics.get("reconnects") == 1
        finally:
            client.close()

    def test_close_is_idempotent_and_reconnectable(self, service):
        _, (host, port) = service
        client = ServiceClient(host, port, timeout=1.0)
        client.close()
        client.close()  # second close is a no-op
        client.reconnect()
        try:
            assert client.ping()
        finally:
            client.close()


class TestEndToEndRecovery:
    def test_retry_policy_recovers_from_a_server_side_stall(self, fig1_mset):
        """Acceptance path: a timed-out call heals via retry + reconnect."""
        from repro.api import (
            SolverCapabilities,
            SolverOutput,
            register_solver,
            unregister_solver,
        )
        from repro.core.greedy import greedy_schedule

        name = f"dawdling-{uuid.uuid4().hex[:8]}"
        calls = []

        @register_solver(name, "test: first call slower than the read timeout",
                         capabilities=SolverCapabilities(max_n=0))
        def _dawdling(mset, **options):
            calls.append(time.monotonic())
            if len(calls) == 1:
                time.sleep(0.6)
            return SolverOutput(schedule=greedy_schedule(mset))

        service = PlanningService(num_shards=1)
        host, port = service.start_background(tcp=True)
        client = ServiceClient(
            host,
            port,
            timeout=0.3,
            retry=RetryPolicy(attempts=6, base_delay_s=0.05, jitter=0.0),
        )
        try:
            served = client.plan(fig1_mset, solver=name)
            assert served.result.value > 0
            assert not served.degraded
            assert client.local_metrics.get("timeouts") >= 1
            assert client.local_metrics.get("retries") >= 1
            assert client.local_metrics.get("reconnects") >= 1
        finally:
            client.close()
            service.stop()
            unregister_solver(name)


class TestErrorClassification:
    """Retry decisions follow the error frame's ``retryable`` field, never
    its text: client input echoed into a permanent error cannot make the
    client retry it."""

    def test_permanent_error_naming_retryable_is_not_retried(self, service, fig1_mset):
        _, (host, port) = service
        client = ServiceClient(
            host, port, retry=RetryPolicy(attempts=4, base_delay_s=0.01, jitter=0.0)
        )
        try:
            with pytest.raises(ServiceError, match="unknown solver 'retryable'") as exc:
                client.plan(fig1_mset, solver="retryable")
            assert not isinstance(exc.value, ServiceRetryableError)
            assert client.local_metrics.get("retries") == 0
        finally:
            client.close()

    def test_injected_solver_error_is_retried(self, service, fig1_mset):
        _, (host, port) = service
        client = ServiceClient(
            host, port, retry=RetryPolicy(attempts=4, base_delay_s=0.01, jitter=0.0)
        )
        plan = FaultPlan([FaultSpec("solver.error", count=1)])
        try:
            with faults.inject(plan):
                served = client.plan(fig1_mset, solver="greedy")
            assert served.result.value == 10
            assert client.local_metrics.get("retries") == 1
        finally:
            client.close()

    def test_full_admission_queue_is_retryable(self, fig1_mset):
        import threading

        from repro.api import (
            SolverCapabilities,
            SolverOutput,
            register_solver,
            unregister_solver,
        )
        from repro.core.greedy import greedy_schedule

        name = f"occupy-{uuid.uuid4().hex[:8]}"
        release = threading.Event()

        @register_solver(name, "test: holds the only admission slot",
                         capabilities=SolverCapabilities(max_n=0))
        def _occupy(mset, **options):
            release.wait(10.0)
            return SolverOutput(schedule=greedy_schedule(mset))

        service = PlanningService(num_shards=1, max_pending=1)
        host, port = service.start_background(tcp=True)
        holder = ServiceClient(host, port)
        client = ServiceClient(
            host, port, retry=RetryPolicy(attempts=3, base_delay_s=0.01, jitter=0.0)
        )
        occupying = threading.Thread(target=holder.plan, args=(fig1_mset, name))
        try:
            occupying.start()
            give_up = time.monotonic() + 10.0
            while service.metrics.snapshot().get("gauge_queue_depth") != 1:
                assert time.monotonic() < give_up, "the slot was never taken"
                time.sleep(0.01)
            with pytest.raises(ServiceRetryableError, match="admission queue full"):
                client.plan(fig1_mset, solver="greedy")
            assert client.local_metrics.get("retries") == 2
        finally:
            release.set()
            occupying.join(10.0)
            holder.close()
            client.close()
            service.stop()
            unregister_solver(name)
        assert not occupying.is_alive()
