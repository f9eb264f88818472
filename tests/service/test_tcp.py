"""TCP front-end: wire protocol, ServiceClient, concurrent clients."""

import json
import socket
import threading

import pytest

from repro.api import Planner, PlanRequest
from repro.core.multicast import MulticastSet
from repro.exceptions import ServiceError, ServiceRetryableError
from repro.io.serialization import plan_result_to_dict
from repro.service import PlanningService, RetryPolicy, ServiceClient
from repro.service import protocol
from repro.service.server import MAX_DRAIN_BYTES, MAX_FRAME_BYTES
from repro.workloads.clusters import bounded_ratio_cluster
from repro.workloads.generator import multicast_from_cluster


@pytest.fixture
def tcp_service(tmp_path):
    service = PlanningService(
        store_path=tmp_path / "planstore", num_shards=2, worker_mode="thread"
    )
    address = service.start_background(tcp=True)
    try:
        yield service, address
    finally:
        service.stop()


class TestServiceClient:
    def test_ping(self, tcp_service):
        _, (host, port) = tcp_service
        with ServiceClient(host, port) as client:
            assert client.ping()

    def test_plan_matches_direct(self, tcp_service, fig1_mset):
        _, (host, port) = tcp_service
        direct = Planner(cache_size=0).plan(fig1_mset, solver="dp")
        with ServiceClient(host, port) as client:
            served = client.plan(fig1_mset, solver="dp")
        assert served.tier == "solve"
        assert served.result.value == direct.value
        assert served.result.schedule == direct.schedule

    def test_second_request_hits_memory(self, tcp_service, fig1_mset):
        _, (host, port) = tcp_service
        with ServiceClient(host, port) as client:
            client.plan(fig1_mset)
            assert client.plan(fig1_mset).tier == "memory"

    def test_solver_error_surfaces_as_service_error(self, tcp_service, fig1_mset):
        _, (host, port) = tcp_service
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError, match="unknown solver"):
                client.plan(fig1_mset, solver="nope")
            # connection still usable afterwards
            assert client.plan(fig1_mset).result.value == 8

    def test_metrics_snapshot(self, tcp_service, fig1_mset):
        _, (host, port) = tcp_service
        with ServiceClient(host, port) as client:
            client.plan(fig1_mset)
            metrics = client.metrics()
        assert metrics["requests"] >= 1
        assert "store_live_keys" in metrics

    def test_connect_refused(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(ServiceError, match="cannot connect"):
            ServiceClient("127.0.0.1", free_port, timeout=1)

    def test_concurrent_clients_agree(self, tcp_service, small_random_msets):
        _, (host, port) = tcp_service
        results = {}
        errors = []

        def worker(name):
            try:
                with ServiceClient(host, port, client_id=name) as client:
                    results[name] = [
                        client.plan(mset).result.value
                        for mset in small_random_msets
                    ]
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(f"client-{i}",))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        baseline = results["client-0"]
        assert all(values == baseline for values in results.values())


class TestTimeout:
    def test_timed_out_client_fails_closed(self, fig1_mset):
        """After a timeout the connection is closed, not desynchronized:
        the late response must never be misread as a later request's."""
        import time
        import uuid

        from repro.api import SolverCapabilities, SolverOutput, register_solver
        from repro.core.greedy import greedy_schedule

        name = f"tardy-{uuid.uuid4().hex[:8]}"

        @register_solver(name, "slow test solver",
                         capabilities=SolverCapabilities(max_n=0))
        def _tardy(mset, **options):
            time.sleep(1.0)
            return SolverOutput(schedule=greedy_schedule(mset))

        service = PlanningService(num_shards=1)
        host, port = service.start_background(tcp=True)
        try:
            client = ServiceClient(host, port, timeout=0.2)
            with pytest.raises(ServiceError, match="connection failed"):
                client.plan(fig1_mset, solver=name)
            # every later call errors out cleanly instead of reading the
            # stale response of the abandoned request
            with pytest.raises(ServiceError, match="create a new ServiceClient"):
                client.ping()
            client.close()
            # a fresh client works and gets the (by now cached) result
            with ServiceClient(host, port, timeout=10) as fresh:
                assert fresh.plan(fig1_mset, solver=name).result.value == 10.0
        finally:
            service.stop()


class TestShutdown:
    def test_stop_with_live_idle_connection(self, tmp_path, fig1_mset):
        # a connected-but-idle client must not leave a pending handler
        # task behind when the service stops (regression: destroyed task)
        service = PlanningService(num_shards=1)
        host, port = service.start_background(tcp=True)
        client = ServiceClient(host, port)
        client.plan(fig1_mset)
        service.stop()  # connection still open: handler must be cancelled
        assert not service._conn_tasks
        with pytest.raises(ServiceError):
            client.plan(fig1_mset)  # the server side is gone
        client.close()


class TestRawWire:
    def _raw(self, address, lines):
        with socket.create_connection(address, timeout=10) as sock:
            fh = sock.makefile("rb")
            out = []
            for line in lines:
                sock.sendall(line)
                out.append(json.loads(fh.readline()))
            return out

    def test_malformed_line_gets_error_not_disconnect(self, tcp_service):
        _, address = tcp_service
        [first, second] = self._raw(
            address, [b"this is not json\n", protocol.encode(protocol.ping_message(id=1))]
        )
        assert first["type"] == "error"
        assert "malformed" in first["error"]
        assert second == {"type": "pong", "id": 1}

    def test_unknown_type_reports_error(self, tcp_service):
        _, address = tcp_service
        [response] = self._raw(
            address, [protocol.encode({"type": "teleport", "id": 9})]
        )
        assert response["type"] == "error" and response["id"] == 9

    def test_plan_without_payload_reports_error(self, tcp_service):
        _, address = tcp_service
        [response] = self._raw(
            address, [protocol.encode({"type": "plan", "id": 3})]
        )
        assert response["type"] == "error" and response["id"] == 3

    def test_wire_result_round_trips_repro_io(self, tcp_service, fig1_mset):
        _, address = tcp_service
        message = protocol.plan_message(
            PlanRequest(instance=fig1_mset, solver="greedy"), id=42
        )
        [response] = self._raw(address, [protocol.encode(message)])
        assert response["type"] == "result" and response["id"] == 42
        assert response["result"]["format"] == "repro/plan-result-v1"
        result = protocol.parse_plan_result(response)
        assert result.value == 10.0


class TestFrameLimit:
    """Frames up to ``MAX_FRAME_BYTES`` are served; a longer one gets a
    permanent error, a ``protocol_errors`` count and a closed connection,
    and the service keeps answering fresh connections."""

    def test_n2000_greedy_request_is_served(self, tcp_service):
        _, (host, port) = tcp_service
        mset = multicast_from_cluster(bounded_ratio_cluster(2001, 3))
        request = PlanRequest(instance=mset, solver="greedy")
        frame = protocol.encode(protocol.plan_message(request, id=1))
        # past asyncio's default 64 KiB stream limit, within ours
        assert 64 * 1024 < len(frame) < MAX_FRAME_BYTES
        direct = Planner(cache_size=0).plan(request)
        with ServiceClient(host, port) as client:
            served = client.plan(request)
        assert served.tier == "solve"
        assert served.result.value == direct.value
        assert served.result.schedule == direct.schedule

    def test_over_limit_frame_is_a_permanent_error(self, tcp_service, fig1_mset):
        _, (host, port) = tcp_service
        request = PlanRequest(
            instance=fig1_mset, solver="greedy", tag="x" * MAX_FRAME_BYTES
        )
        client = ServiceClient(
            host, port, retry=RetryPolicy(attempts=3, base_delay_s=0.0)
        )
        try:
            with pytest.raises(ServiceError, match="byte limit") as info:
                client.plan(request)
            assert not isinstance(info.value, ServiceRetryableError)
            assert client.local_metrics.get("retries") == 0
        finally:
            client.close()
        with ServiceClient(host, port) as fresh:
            assert fresh.ping()
            assert fresh.metrics()["protocol_errors"] == 1

    def test_over_limit_frame_closes_the_connection(self, tcp_service):
        _, address = tcp_service
        line = b'{"type": "ping", "pad": "' + b"x" * MAX_FRAME_BYTES + b'"}\n'
        with socket.create_connection(address, timeout=10) as sock:
            fh = sock.makefile("rb")
            sock.sendall(line)
            reply = json.loads(fh.readline())
            assert reply["type"] == "error" and reply["id"] is None
            assert "byte limit" in reply["error"]
            assert fh.readline() == b""  # the server hung up

    def test_unending_over_limit_frame_is_cut_off(self, tcp_service):
        """A line that never ends is drained only up to MAX_DRAIN_BYTES:
        the server hangs up without a reply and counts a protocol error."""
        _, address = tcp_service
        chunk = b"x" * (1 << 16)
        chunks = (MAX_FRAME_BYTES + MAX_DRAIN_BYTES) // len(chunk) + 2
        with socket.create_connection(address, timeout=10) as sock:
            try:
                for _ in range(chunks):
                    sock.sendall(chunk)
            except OSError:
                pass  # the server hung up mid-stream
            try:
                reply = sock.recv(1)
            except ConnectionResetError:
                reply = b""
            assert reply == b""  # closed with no reply, not left hanging
        with ServiceClient(*address) as fresh:
            assert fresh.ping()
            assert fresh.metrics()["protocol_errors"] == 1


def _wire_bytes(result) -> str:
    payload = plan_result_to_dict(result)
    for volatile in ("elapsed_s", "cache_hit"):
        payload.pop(volatile)
    return json.dumps(payload, sort_keys=True)


class TestNumberTypeParity:
    def test_float_request_hitting_an_int_plan_serves_float_bytes(
        self, tcp_service
    ):
        """A float-overhead twin of a cached int instance is answered with
        its own number types, byte-identical to a direct solve."""
        _, (host, port) = tcp_service
        ints = MulticastSet.from_overheads((2, 3), [(1, 2), (4, 5), (4, 5)], 1)
        floats = MulticastSet.from_overheads(
            (2.0, 3.0), [(1.0, 2.0), (4.0, 5.0), (4.0, 5.0)], 1.0
        )
        with ServiceClient(host, port) as client:
            client.plan(ints, solver="greedy")
            served = client.plan(floats, solver="greedy")
        assert served.tier == "memory"
        direct = Planner(cache_size=0).plan(floats, solver="greedy")
        assert _wire_bytes(served.result) == _wire_bytes(direct)
