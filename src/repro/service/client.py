"""Clients of the planning service: TCP wire client and in-process client.

Both expose the same surface — ``plan`` / ``plan_batch`` / ``ping`` /
``metrics`` plus the group-session verbs ``open_session`` /
``send_delta`` / ``resume_session`` / ``close_session`` — so tests and
examples can swap transports freely and assert the service path returns
exactly what the direct :class:`repro.api.Planner` path returns.

:class:`ServiceClient` speaks the JSON-lines protocol of
:mod:`repro.service.protocol` over a blocking socket (one connection,
pipelined ids, responses matched by ``id``).  :class:`InProcessClient`
skips the socket and calls straight into a background
:class:`~repro.service.server.PlanningService` — same admission queue,
shards and cache tiers, no serialization of the instance beyond the
fingerprint.

Failure handling
----------------
A request abandoned mid-flight (read timeout, transport error,
out-of-order response) poisons the stream: its stale response may still
arrive, so the connection fails closed.  So does a request whose frame
the server could not read (an ``error`` with id ``null``: an over-limit
or malformed line), which is raised as a permanent
:class:`~repro.exceptions.ServiceError`, never retried.  Recovery is
explicit — :meth:`ServiceClient.reconnect` drops the old socket and
opens a fresh one with a fresh id counter (drain-safe: stale responses can never match
a new id on a new connection) — or automatic, by constructing the client
with a :class:`RetryPolicy`: idempotent verbs (``plan``, ``ping``,
``metrics``, ``session-resume``) are then retried with exponential
backoff and seeded jitter under a per-call deadline budget, reconnecting
as needed.  Non-idempotent verbs (``session-open``/``delta``/``close``)
are never replayed automatically; after a delta timeout, callers resume
the session (exact duplicates are idempotent server-side) instead.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import random
import socket
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from repro import faults
from repro.api.request import PlanRequest, PlanResult
from repro.core.multicast import MulticastSet
from repro.core.repair import MembershipDelta
from repro.exceptions import ReproError, ServiceError, ServiceRetryableError
from repro.service import protocol
from repro.service.metrics import MetricsRegistry
from repro.service.server import PlanningService
from repro.service.sessions import SessionUpdate

__all__ = ["RetryPolicy", "ServiceClient", "InProcessClient", "ServedPlan"]

Plannable = Union[PlanRequest, MulticastSet]


class RetryPolicy:
    """Bounded retry with exponential backoff and seeded jitter.

    Parameters
    ----------
    attempts:
        Total tries per call (first attempt included); ``1`` disables
        retrying while keeping automatic reconnects.
    base_delay_s / multiplier / max_delay_s:
        Backoff schedule: attempt ``i`` (0-based) sleeps
        ``min(max_delay_s, base_delay_s * multiplier**i)`` before retrying.
    jitter:
        Fraction of extra randomized delay (``0.5`` adds up to +50%),
        drawn from a ``random.Random(seed)`` so schedules replay
        deterministically in tests and fault sweeps.
    deadline_s:
        Per-call budget: a retry is abandoned (the last error re-raised)
        once sleeping again would overrun this many seconds since the
        call started.  ``None`` bounds the call by ``attempts`` alone.
    """

    def __init__(
        self,
        *,
        attempts: int = 3,
        base_delay_s: float = 0.05,
        multiplier: float = 2.0,
        max_delay_s: float = 2.0,
        jitter: float = 0.5,
        deadline_s: Optional[float] = None,
        seed: int = 0,
    ) -> None:
        if attempts < 1:
            raise ReproError(f"retry attempts must be >= 1, got {attempts}")
        if base_delay_s < 0:
            raise ReproError(f"base_delay_s must be >= 0, got {base_delay_s}")
        if multiplier < 1.0:
            raise ReproError(f"multiplier must be >= 1, got {multiplier}")
        if max_delay_s < base_delay_s:
            raise ReproError(
                f"max_delay_s ({max_delay_s}) must be >= base_delay_s "
                f"({base_delay_s})"
            )
        if not 0.0 <= jitter <= 1.0:
            raise ReproError(f"jitter must be in [0, 1], got {jitter}")
        if deadline_s is not None and deadline_s <= 0:
            raise ReproError(f"deadline_s must be positive, got {deadline_s}")
        self.attempts = attempts
        self.base_delay_s = base_delay_s
        self.multiplier = multiplier
        self.max_delay_s = max_delay_s
        self.jitter = jitter
        self.deadline_s = deadline_s
        self.seed = seed
        self._rng = random.Random(seed)

    def delays(self) -> Iterator[float]:
        """The backoff sleeps between attempts (``attempts - 1`` values)."""
        for attempt in range(self.attempts - 1):
            delay = min(
                self.max_delay_s, self.base_delay_s * self.multiplier**attempt
            )
            if self.jitter:
                delay *= 1.0 + self.jitter * self._rng.random()
            yield delay


class ServedPlan:
    """A service response: the :class:`PlanResult` plus the serving tier.

    ``degraded`` is ``True`` when the service answered past its solve
    deadline with the fast-fallback plan (greedy + bounds sandwich)
    instead of the requested solver — see SERVICE.md, "Resilience &
    operations".
    """

    def __init__(self, result: PlanResult, tier: str, degraded: bool = False) -> None:
        self.result = result
        self.tier = tier
        self.degraded = degraded

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", degraded=True" if self.degraded else ""
        return f"ServedPlan(value={self.result.value:g}, tier={self.tier!r}{flag})"


def _as_request(job: Plannable, solver: Optional[str], options: Dict[str, Any]) -> PlanRequest:
    if isinstance(job, PlanRequest):
        if solver is not None or options:
            raise ServiceError(
                "pass solver/options inside the PlanRequest, not alongside it"
            )
        return job
    if isinstance(job, MulticastSet):
        kwargs: Dict[str, Any] = {"instance": job, "options": options}
        if solver is not None:
            kwargs["solver"] = solver
        return PlanRequest(**kwargs)
    raise ServiceError(
        f"cannot plan a {type(job).__name__}; expected PlanRequest or MulticastSet"
    )


class ServiceClient:
    """Blocking JSON-lines client of a TCP planning service.

    Examples
    --------
    >>> with ServiceClient("127.0.0.1", 7421) as client:      # doctest: +SKIP
    ...     served = client.plan(mset, solver="dp")           # doctest: +SKIP
    ...     served.result.value, served.tier                  # doctest: +SKIP

    Pass ``retry=RetryPolicy(...)`` to retry idempotent verbs through
    transport failures (with automatic reconnects) instead of failing
    closed on the first abandoned request.  Client-side resilience
    counters (``retries`` / ``reconnects`` / ``timeouts``) accumulate in
    :attr:`local_metrics`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7421,
        *,
        client_id: Optional[str] = None,
        timeout: Optional[float] = 60.0,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout
        self.retry = retry
        self.local_metrics = MetricsRegistry()
        self._ids = itertools.count(1)
        self._broken = False
        self._sock: Optional[socket.socket] = None
        self._file: Optional[Any] = None
        self._connect()

    # -- transport ------------------------------------------------------
    def _connect(self) -> None:
        try:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        except OSError as exc:
            raise ServiceRetryableError(
                f"cannot connect to planning service at {self.host}:{self.port}: {exc}"
            ) from None
        self._file = self._sock.makefile("rb")
        self._broken = False

    def reconnect(self) -> None:
        """Drop the connection and open a fresh one (drain-safe recovery).

        The old socket is closed (any stale in-flight response dies with
        it) and the id counter restarts, so a response to an abandoned
        request can never be matched against a new request's id.  Raises
        :class:`ServiceRetryableError` when the service is unreachable.
        """
        self.close()
        self._ids = itertools.count(1)
        self._connect()
        self.local_metrics.inc("reconnects")

    def _abandon(self) -> None:
        # once a request is abandoned mid-flight (timeout, transport
        # error) the stream may hold its stale response; fail closed
        # instead of misreading it as the answer to a later request
        self._broken = True
        self.close()

    def _roundtrip(self, message: Dict[str, Any]) -> Dict[str, Any]:
        if self._broken:
            raise ServiceRetryableError(
                "connection closed after an earlier timeout or transport "
                "error; call reconnect() or create a new ServiceClient"
            )
        message_id = message.get("id")
        try:
            payload = protocol.encode(message)
            if faults.ACTIVE is not None:
                if faults.ACTIVE.fire("client.partial_send"):
                    # a write that dies mid-frame: the server sees a torn
                    # line (a protocol error at worst), the client a
                    # failed socket — recovery must reconnect
                    assert self._sock is not None
                    self._sock.sendall(payload[: max(1, len(payload) // 2)])
                    raise OSError("fault injected: connection lost mid-frame")
                if faults.ACTIVE.fire("client.drop_send"):
                    payload = b""  # swallowed frame: the read below times out
            assert self._sock is not None and self._file is not None
            if payload:
                self._sock.sendall(payload)
            while True:
                line = self._file.readline()
                if not line:
                    self._abandon()
                    raise ServiceRetryableError("service closed the connection")
                response = protocol.decode(line)
                reply_id = response.get("id")
                if response.get("type") == "error" and reply_id is None:
                    # the server could not read this request's frame (too
                    # long or malformed), so it could not echo the id; the
                    # stream is no longer in step (the server closes it
                    # after an over-limit frame): fail closed
                    self._abandon()
                    reply_id = message_id
                if reply_id == message_id:
                    if response.get("type") == "error":
                        text = response.get("error", "unknown service error")
                        if response.get("retryable") is True:
                            raise ServiceRetryableError(text)
                        raise ServiceError(text)
                    return response
                # a response to a request this client never sent: protocol bug
                self._abandon()
                raise ServiceRetryableError(
                    f"out-of-order response id {response.get('id')!r} "
                    f"(expected {message_id!r})"
                )
        except OSError as exc:
            if isinstance(exc, socket.timeout):
                self.local_metrics.inc("timeouts")
            self._abandon()
            raise ServiceRetryableError(f"service connection failed: {exc}") from None

    def _request(
        self, build: Callable[[int], Dict[str, Any]], *, idempotent: bool
    ) -> Dict[str, Any]:
        """One logical request, with retry/reconnect when policy allows.

        Without a :class:`RetryPolicy` this is exactly one round trip
        (fail-closed, the historical behaviour).  With one, transient
        failures (:class:`ServiceRetryableError`) on *idempotent* verbs
        are retried under the policy's backoff schedule and deadline
        budget, reconnecting a broken transport before each attempt;
        non-idempotent verbs still get the automatic reconnect (the
        previous request is dead either way) but never a replay.
        """
        policy = self.retry
        if policy is None:
            return self._roundtrip(build(next(self._ids)))
        started = time.monotonic()
        delays = policy.delays()
        attempt = 0
        while True:
            attempt += 1
            try:
                if self._broken:
                    self.reconnect()
                return self._roundtrip(build(next(self._ids)))
            except ServiceRetryableError:
                if not idempotent or attempt >= policy.attempts:
                    raise
                pause = next(delays)
                if (
                    policy.deadline_s is not None
                    and time.monotonic() + pause - started > policy.deadline_s
                ):
                    raise
                self.local_metrics.inc("retries")
                time.sleep(pause)

    # -- surface --------------------------------------------------------
    def plan(
        self, job: Plannable, solver: Optional[str] = None, **options: Any
    ) -> ServedPlan:
        """Plan one multicast through the service; returns result + tier."""
        request = _as_request(job, solver, options)
        response = self._request(
            lambda message_id: protocol.plan_message(
                request, id=message_id, client=self.client_id
            ),
            idempotent=True,
        )
        result = protocol.parse_plan_result(response)
        return ServedPlan(
            result,
            response.get("tier", "unknown"),
            degraded=bool(response.get("degraded", False)),
        )

    def plan_batch(self, jobs: List[Plannable]) -> List[ServedPlan]:
        """Plan many jobs over this connection (submission order kept)."""
        return [self.plan(job) for job in jobs]

    # -- group sessions -------------------------------------------------
    @staticmethod
    def _session_update(response: Dict[str, Any]) -> SessionUpdate:
        return protocol.parse_session_update(response)

    def open_session(
        self,
        job: Plannable,
        solver: Optional[str] = None,
        *,
        session_id: Optional[str] = None,
        **options: Any,
    ) -> SessionUpdate:
        """Open a group session; returns the opening update (seq 0)."""
        request = _as_request(job, solver, options)
        response = self._request(
            lambda message_id: protocol.session_open_message(
                request, id=message_id, client=self.client_id, session=session_id
            ),
            idempotent=False,
        )
        return self._session_update(response)

    def send_delta(self, session_id: str, delta: MembershipDelta) -> SessionUpdate:
        """Stream one membership delta; returns the repaired update."""
        response = self._request(
            lambda message_id: protocol.session_delta_message(
                session_id, delta, id=message_id, client=self.client_id
            ),
            idempotent=False,
        )
        return self._session_update(response)

    def resume_session(self, session_id: str) -> SessionUpdate:
        """Reconnect: the session's last acknowledged update."""
        response = self._request(
            lambda message_id: protocol.session_resume_message(
                session_id, id=message_id
            ),
            idempotent=True,
        )
        return self._session_update(response)

    def close_session(self, session_id: str) -> None:
        """Close an open session."""
        response = self._request(
            lambda message_id: protocol.session_close_message(
                session_id, id=message_id
            ),
            idempotent=False,
        )
        if response.get("type") != "session-closed":
            raise ServiceError(f"unexpected response {response.get('type')!r}")

    def ping(self) -> bool:
        """Liveness probe; ``True`` when the service answers ``pong``."""
        response = self._request(
            lambda message_id: protocol.ping_message(id=message_id),
            idempotent=True,
        )
        return response.get("type") == "pong"

    def metrics(self) -> Dict[str, Any]:
        """The service's counters snapshot (see SERVICE.md)."""
        response = self._request(
            lambda message_id: protocol.metrics_message(id=message_id),
            idempotent=True,
        )
        if response.get("type") != "metrics":
            raise ServiceError(f"unexpected response {response.get('type')!r}")
        return response.get("metrics", {})

    def close(self) -> None:
        """Close the connection (idempotent; safe on a half-built client)."""
        for attribute in ("_file", "_sock"):
            handle = getattr(self, attribute, None)
            if handle is not None:
                try:
                    handle.close()
                except OSError:  # pragma: no cover - best-effort teardown
                    pass
                setattr(self, attribute, None)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class InProcessClient:
    """Client of an embedded (background-thread) :class:`PlanningService`.

    The service must already be running (``start_background()``); the
    client neither starts nor stops it, so many clients can share one
    service with distinct ``client_id``s — that is what the fair admission
    queue arbitrates between.
    """

    def __init__(
        self,
        service: PlanningService,
        *,
        client_id: str = "in-process",
        timeout: Optional[float] = 60.0,
    ) -> None:
        self.service = service
        self.client_id = client_id
        self.timeout = timeout

    def _run(self, make_coro: Callable[[], Any]) -> Any:
        """Run one service coroutine on the service's loop and wait for it.

        A timeout raises :class:`ServiceError`, the same surface as
        :class:`ServiceClient`.
        """
        loop = self.service._loop
        if loop is None:
            raise ServiceError("service is not running; call start_background() first")
        future = asyncio.run_coroutine_threadsafe(make_coro(), loop)
        try:
            return future.result(timeout=self.timeout)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise ServiceError(
                f"request timed out after {self.timeout}s (still running "
                f"server-side unless cancellation won the race)"
            ) from None

    def plan(
        self, job: Plannable, solver: Optional[str] = None, **options: Any
    ) -> ServedPlan:
        """Plan one multicast through the embedded service."""
        request = _as_request(job, solver, options)
        result, tier = self._run(lambda: self.service.submit(request, self.client_id))
        return ServedPlan(result, tier, degraded=tier == "degraded")

    def plan_batch(self, jobs: List[Plannable]) -> List[ServedPlan]:
        """Plan many jobs (submission order kept)."""
        return [self.plan(job) for job in jobs]

    def open_session(
        self,
        job: Plannable,
        solver: Optional[str] = None,
        *,
        session_id: Optional[str] = None,
        **options: Any,
    ) -> SessionUpdate:
        """Open a group session; returns the opening update (seq 0)."""
        request = _as_request(job, solver, options)
        return self._run(lambda: self.service.open_session(request, self.client_id, session_id))

    def send_delta(self, session_id: str, delta: MembershipDelta) -> SessionUpdate:
        """Stream one membership delta; returns the repaired update."""
        return self._run(
            lambda: self.service.apply_session_delta(session_id, delta, self.client_id)
        )

    def resume_session(self, session_id: str) -> SessionUpdate:
        """The session's last acknowledged update (no state change)."""
        return self._run(lambda: self.service.resume_session(session_id, self.client_id))

    def close_session(self, session_id: str) -> None:
        """Close an open session."""
        self._run(lambda: self.service.close_session(session_id, self.client_id))

    def ping(self) -> bool:
        """``True`` while the embedded service is running."""
        return self.service.is_running

    def metrics(self) -> Dict[str, Any]:
        """The service's counters snapshot."""
        return self.service.describe_metrics()
