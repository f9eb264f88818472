"""Closed-loop TCP load from one process over one connection.

The :class:`ServiceClient` has no retry policy, so a failure cannot be
hidden by a retry.  It sends the next op of the stream only after the
previous one was answered.  A client whose connection broke is
reconnected before its next op (counted in the client's
``local_metrics``); the op that broke it stays failed.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ServiceError, ServiceRetryableError
from repro.service import ServiceClient

from perfbench.calibrate import SpeedProbe
from perfbench.workloads import Op

#: Seconds one operation may take before the client gives up on it.
OP_TIMEOUT_S = 60.0


@dataclass
class LoadResult:
    """What a phase observed.

    ``records`` holds ``(stream index, answer, start, latency, cpu
    latency)`` per attempted op in stream order (``start`` in
    ``perf_counter`` seconds); the last four are ``None`` for a failed op.  A failed reconnect counts against the op it preceded.
    ``cpu_s`` is the CPU time client and server spent in the phase, not
    counting the speed probe's samples.
    """

    records: List[Tuple[int, Any, Optional[float], Optional[float], Optional[float]]] = (
        field(default_factory=list)
    )
    failures: Counter = field(default_factory=Counter)
    elapsed_s: float = 0.0
    cpu_s: float = 0.0
    client_counters: Counter = field(default_factory=Counter)

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def served(self) -> List[Tuple[int, Any]]:
        """``(stream index, answer or None)`` per attempted op."""
        return [(index, answer) for index, answer, *_latencies in self.records]

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def latencies_s(self) -> List[float]:
        """Wall-clock latencies of the completed ops."""
        return [record[3] for record in self.records if record[3] is not None]

    @property
    def cpu_latencies_s(self) -> List[Tuple[float, float]]:
        """``(start, CPU latency)`` of the completed ops (see :func:`run_ops`)."""
        return [(record[2], record[4]) for record in self.records if record[4] is not None]


def call(client: ServiceClient, op: Op) -> Any:
    """Send one op and return the client's answer."""
    if op.kind == "plan":
        return client.plan(op.request)
    if op.kind == "delta":
        return client.send_delta(op.session, op.delta)
    if op.kind == "open":
        return client.open_session(op.request, session_id=op.session)
    raise ValueError(f"unknown op kind {op.kind!r}")


def run_ops(
    address: Tuple[str, int],
    ops: Sequence[Op],
    *,
    seconds: Optional[float],
    server_cpu: Callable[[], float],
    probe: SpeedProbe,
) -> LoadResult:
    """Serve ``ops`` in order, closed loop, over one connection.

    With ``seconds`` the client stops taking new ops once that much time
    has passed (the op in flight finishes); without, every op is sent.

    Each op's CPU latency is the CPU time this process and the server
    process (whose clock ``server_cpu`` reads) spent while it was in
    flight.  In a closed loop nothing else of theirs runs meanwhile, so it
    is the op's wall-clock latency less the time neither process was
    running: waiting for a CPU, including time the hypervisor gave the
    virtual CPU to another guest (steal).  Linux does not charge steal to
    a process, so the CPU latency does not grow with the load of the host.

    Between ops, ``probe`` samples the CPU's speed (at most every
    :data:`perfbench.calibrate.SAMPLE_EVERY_S`), outside any op's timing.
    """

    def cpu_now() -> float:
        return time.process_time() + server_cpu()

    result = LoadResult()
    started, cpu_started, probe_started = time.perf_counter(), cpu_now(), probe.spent_s
    deadline = None if seconds is None else started + seconds
    reconnect = False
    with ServiceClient(*address, client_id="c0", timeout=OP_TIMEOUT_S) as client:
        for index, op in enumerate(ops):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            probe.sample_due()
            answer = None
            try:
                if reconnect:
                    reconnect = False
                    client.reconnect()
                begin, cpu_begin = time.perf_counter(), cpu_now()
                answer = call(client, op)
            except ServiceRetryableError as exc:
                # possibly a broken transport: start the next op afresh
                reconnect = True
                result.failures[type(exc).__name__] += 1
            except ServiceError as exc:
                result.failures[type(exc).__name__] += 1
            if answer is None:
                result.records.append((index, None, None, None, None))
            else:
                latency = time.perf_counter() - begin
                result.records.append(
                    (index, answer, begin, latency, cpu_now() - cpu_begin)
                )
        result.client_counters.update(client.local_metrics.snapshot())
    result.elapsed_s = time.perf_counter() - started
    result.cpu_s = cpu_now() - cpu_started - (probe.spent_s - probe_started)
    return result


def server_metrics(address: Tuple[str, int]) -> Dict[str, Any]:
    """The server's counters snapshot (the ``metrics`` verb)."""
    with ServiceClient(*address, timeout=OP_TIMEOUT_S) as client:
        return client.metrics()
