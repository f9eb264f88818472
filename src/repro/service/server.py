"""The asyncio planning service: admission, dispatch, TCP front-end.

Request life cycle::

    client ──plan──▶ submit: Planner.cache_lookup ──hit──▶ response
                        │ miss
                        ▼ admission cap (global _admitted counter)
                  per-shard FairQueues (by canonical network key;
                        │        per-client round-robin within a shard)
                        ▼
                  shard workers ──▶ re-check cache (dedup) ──▶ solve
                  (one per shard,        │
                   own thread)           ▼
                              Planner.cache_store ──▶ response
                              (LRU + persistent store)

``submit`` answers cache hits inline — they are never queued and never
rejected.  Misses pass a global admission cap (``max_pending`` spans
queued *and* in-service requests, so buffered futures are bounded) and
land on their shard's :class:`FairQueue`: one FIFO per client id served
round-robin, so a client submitting thousands of requests delays a
one-request client by at most one in-flight item on that shard.  One
worker task per shard drains its own queue on the shard's dedicated
serving thread, so a slow solve on one shard never blocks another
shard's backlog or any cache hit.  Identical concurrent requests —
which always share a shard — are deduplicated by a cache re-check right
before solving (the first solves, the rest become cache hits; counted
as ``coalesced``; with canonical cache keys this also coalesces requests
that are merely *equivalent* — renamed nodes, power-of-two-rescaled
overheads).  Cache-tier I/O and solves all run off the event
loop.

Group sessions (``session-open`` / ``session-delta`` / ``session-resume``
/ ``session-close``) ride the same admission cap and fair queues: every
operation for a session is dispatched to the shard chosen at open (by
canonical network key), so a session's delta stream is applied serially,
in order, on the serving thread that holds its pinned optimal table —
see :mod:`repro.service.sessions` for the repair engine itself.

:class:`PlanningService` runs either embedded (``start_background()`` +
:class:`~repro.service.client.InProcessClient`, used by tests and
examples) or as a TCP JSON-lines server (``repro serve``); both paths go
through the same ``submit`` coroutine, so wire clients and in-process
clients observe identical semantics.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import contextlib
import functools
import threading
from collections import deque
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, Union

from repro.api.planner import CacheKey, Planner, _plan_standalone
from repro.api.tables import TableCacheConfig
from repro.api.request import PlanRequest, PlanResult
from repro.core.repair import MembershipDelta
from repro.exceptions import (
    DeadlineExceededError,
    ReproError,
    ServiceError,
    ServiceRetryableError,
)
from repro.service.metrics import MetricsRegistry
from repro.service.protocol import (
    decode,
    encode,
    error_message,
    parse_plan_request,
    parse_session_delta,
    parse_session_open,
    parse_session_ref,
    result_message,
    session_closed_message,
    session_result_message,
)
from repro.service.sessions import SessionManager, SessionUpdate
from repro.service.shard import ShardRouter
from repro.service.store import PlanStore

__all__ = ["FairQueue", "PlanningService"]

#: Tier label for responses that required a real solve.
TIER_SOLVE = "solve"

#: Tier label for deadline-degraded responses (greedy fallback + bounds).
TIER_DEGRADED = "degraded"

#: Largest request frame (one wire line) the TCP front-end accepts, in
#: bytes.  A greedy request at n = 2000 is about 87 KB, so 1 MiB leaves
#: ample room; a longer line is discarded, answered with a permanent
#: ``error`` and its connection closed (see SERVICE.md, "Wire protocol").
MAX_FRAME_BYTES = 1 << 20

#: How much of an over-limit line is read and dropped while looking for
#: its end.  A peer still streaming past this is cut off without a reply.
MAX_DRAIN_BYTES = 4 * MAX_FRAME_BYTES


async def _read_frame(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next wire line (``b""`` at end of stream), ``None`` if too long."""
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial
    except asyncio.LimitOverrunError:
        return None


async def _drain_line(reader: asyncio.StreamReader) -> bool:
    """Drop the rest of an over-limit line; whether it ended in time.

    ``True`` when its newline (or the end of the stream) came within
    :data:`MAX_DRAIN_BYTES`, so the peer's write has completed and it
    can read an error reply instead of meeting a connection reset.
    """
    drained = 0
    while drained < MAX_DRAIN_BYTES:
        chunk = await reader.read(MAX_FRAME_BYTES)
        if not chunk or b"\n" in chunk:
            return True
        drained += len(chunk)
    return False


class FairQueue:
    """Round-robin admission queue with a global pending cap.

    Each client id owns a FIFO sub-queue; :meth:`get` serves the clients
    in round-robin rotation, so a client submitting thousands of requests
    delays a one-request client by at most one in-flight item.  When the
    total backlog reaches ``max_pending``, :meth:`put` raises
    :class:`ServiceRetryableError` (admission control) instead of
    buffering without bound.  Single-event-loop use only (no internal
    thread-safety).
    """

    def __init__(self, max_pending: int = 1024) -> None:
        if max_pending < 1:
            raise ReproError(f"max_pending must be >= 1, got {max_pending}")
        self.max_pending = max_pending
        self._queues: Dict[str, Deque[Any]] = {}
        self._rotation: Deque[str] = deque()
        self._pending = 0
        self._item_ready = asyncio.Event()

    @property
    def pending(self) -> int:
        """Total queued items across all clients."""
        return self._pending

    def clients(self) -> List[str]:
        """Client ids currently holding queued items, in rotation order."""
        return list(self._rotation)

    async def put(self, client_id: str, item: Any) -> None:
        """Enqueue ``item`` for ``client_id`` or reject when full."""
        if self._pending >= self.max_pending:
            raise ServiceRetryableError(
                f"admission queue full ({self._pending} pending); retry later"
            )
        queue = self._queues.get(client_id)
        if queue is None:
            queue = self._queues[client_id] = deque()
            self._rotation.append(client_id)
        queue.append(item)
        self._pending += 1
        self._item_ready.set()

    async def get(self) -> Tuple[str, Any]:
        """Dequeue the next ``(client_id, item)`` in round-robin order."""
        while self._pending == 0:
            self._item_ready.clear()
            await self._item_ready.wait()
        client_id = self._rotation.popleft()
        queue = self._queues[client_id]
        item = queue.popleft()
        self._pending -= 1
        if queue:
            self._rotation.append(client_id)  # back of the rotation: fairness
        else:
            del self._queues[client_id]
        return client_id, item

    def drain(self) -> List[Tuple[str, Any]]:
        """Remove and return everything queued (shutdown path)."""
        drained = []
        while self._rotation:
            client_id = self._rotation.popleft()
            for item in self._queues.pop(client_id, ()):  # pragma: no branch
                drained.append((client_id, item))
        self._pending = 0
        return drained


class PlanningService:
    """Long-running multicast planning service over a :class:`Planner`.

    Parameters
    ----------
    planner:
        The engine to serve from; a fresh ``Planner(cache_size=cache_size)``
        is built when omitted.
    store_path:
        Directory for the persistent :class:`PlanStore`; when given, the
        store is opened (warm-starting from existing segments) and attached
        to the planner as a cache tier.  ``None`` runs memory-only.
    num_shards:
        Solver worker shards (each with its own queue and serving thread).
    worker_mode:
        ``"thread"`` (default), ``"process"`` or ``"inline"`` — see
        :class:`~repro.service.shard.ShardRouter`.
    max_pending:
        Admission cap on miss-path requests in flight (queued plus
        solving, across all shards); cache hits are never capped.
    cache_size / segment_max_records:
        Forwarded to the built planner / store when those are not supplied.
    table_config:
        Optimal-table policy (:class:`~repro.api.tables.TableCacheConfig`)
        applied to the built planner *and* to the worker shards.  With a
        ``snapshot_dir`` set, tables warm-start from mmap-backed snapshot
        files at startup the same way plans warm-start from the store, and
        process-mode shards attach the same resident snapshots instead of
        rebuilding private copies.  A caller-supplied ``planner`` keeps its
        own table policy; the config then only governs the shards.
    solve_deadline_s:
        Per-request solve budget.  A miss whose solve exceeds it is
        answered with a fast greedy plan plus the Theorem 1 bounds
        sandwich, explicitly marked ``degraded`` on the wire — never a
        silent timeout, never cached.  ``None`` (default) never degrades.
    startup_timeout_s / shutdown_timeout_s:
        How long :meth:`start_background` / :meth:`stop` wait for each
        lifecycle phase before raising a :class:`ServiceError` that names
        the stuck phase.
    """

    def __init__(
        self,
        *,
        planner: Optional[Planner] = None,
        store_path: Optional[Union[str, Path]] = None,
        num_shards: int = 4,
        worker_mode: str = "thread",
        max_pending: int = 1024,
        cache_size: int = 1024,
        segment_max_records: int = 512,
        table_config: Optional[TableCacheConfig] = None,
        solve_deadline_s: Optional[float] = None,
        startup_timeout_s: float = 10.0,
        shutdown_timeout_s: float = 10.0,
    ) -> None:
        if solve_deadline_s is not None and solve_deadline_s <= 0:
            raise ReproError(
                f"solve_deadline_s must be positive, got {solve_deadline_s}"
            )
        if startup_timeout_s <= 0:
            raise ReproError(
                f"startup_timeout_s must be positive, got {startup_timeout_s}"
            )
        if shutdown_timeout_s <= 0:
            raise ReproError(
                f"shutdown_timeout_s must be positive, got {shutdown_timeout_s}"
            )
        self.solve_deadline_s = solve_deadline_s
        self.startup_timeout_s = startup_timeout_s
        self.shutdown_timeout_s = shutdown_timeout_s
        if planner is not None:
            self.planner = planner
        elif table_config is not None:
            self.planner = Planner(cache_size=cache_size, table_config=table_config)
        else:
            self.planner = Planner(cache_size=cache_size)
        self.store: Optional[PlanStore] = None
        if store_path is not None:
            # attached as a cache tier while the service runs (_startup),
            # detached on shutdown so a caller-supplied planner is handed
            # back unmodified
            self.store = PlanStore(store_path, segment_max_records=segment_max_records)
        self.metrics = MetricsRegistry()
        # the router shares the service registry so worker supervision
        # (worker_restarts) surfaces in the metrics wire verb
        self.router = ShardRouter(
            num_shards,
            mode=worker_mode,
            table_config=table_config,
            metrics=self.metrics,
        )
        # group sessions repair against the *service* planner (its table
        # cache + tiers), sharing the service's metrics registry
        self.sessions = SessionManager(self.planner, metrics=self.metrics)
        self.max_pending = max_pending
        self._shard_queues: List[FairQueue] = []  # created on the service loop
        self._admitted = 0  # miss-path requests in flight (queued + solving)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._dispatchers: List["asyncio.Task[None]"] = []
        self._conn_tasks: "set[asyncio.Task[None]]" = set()
        self._address: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------------
    # core request path (runs on the service event loop)
    # ------------------------------------------------------------------
    async def submit(
        self, request: PlanRequest, client_id: str = "local"
    ) -> Tuple[PlanResult, str]:
        """Admit one request and await ``(result, tier)``.

        ``tier`` names what served it: ``"memory"`` (planner LRU),
        ``"store"`` (persistent tier) or ``"solve"`` (a worker shard ran
        the solver).  Raises :class:`ServiceRetryableError` on admission
        rejection and re-raises solver errors.
        """
        queues = self._shard_queues
        if not queues:
            raise ServiceError("service is not running")
        self.metrics.inc("requests")
        loop = asyncio.get_running_loop()
        try:
            # one off-loop hop: the key is computed once per request
            # (lookup, routing and the eventual store all reuse it — the
            # fingerprint is O(n)) and the tier get, which may deserialize
            # a plan from the store index, runs in the same hop
            key, hit = await loop.run_in_executor(
                None, self._key_and_lookup, request
            )
        except (asyncio.CancelledError, ServiceError):
            raise
        except Exception:
            self.metrics.inc_error()
            raise
        if hit is not None:
            result, tier = hit
            self.metrics.inc(f"hits_{tier}")
            return result, tier
        if queues is not self._shard_queues:  # stopped during the lookup
            raise ServiceError("service shutting down")
        # miss path: global admission control, then the shard's fair queue.
        # _admitted spans queued AND solving requests, so the cap bounds
        # buffered futures no matter which queue they sit in; cache hits
        # never queue and are never rejected.
        if self._admitted >= self.max_pending:
            self.metrics.inc("rejected")
            raise ServiceRetryableError(
                f"admission queue full ({self._admitted} pending); retry later"
            )
        self._admitted += 1
        self.metrics.set_gauge("queue_depth", self._admitted)
        future: "asyncio.Future[Tuple[PlanResult, str]]" = loop.create_future()
        try:
            # canonical-network routing: same-network traffic lands on
            # the shard whose worker already holds that network's table
            shard = self.router.shard_for(request)
            work = functools.partial(self._serve_miss, shard, request, key)
            await queues[shard].put(client_id, ("plan", work, future))
            return await future
        finally:
            self._admitted -= 1
            self.metrics.set_gauge("queue_depth", self._admitted)

    def _key_and_lookup(self, request: PlanRequest):
        """Off-loop helper: compute the cache key and walk the tiers."""
        key = self.planner.request_key(request)
        return key, self.planner.cache_lookup(request, key)

    async def _shard_loop(self, shard: int) -> None:
        """Drain one shard's fair queue of misses; solve off the event loop.

        The whole miss path runs on the shard's own serving thread
        (:meth:`~repro.service.shard.ShardRouter.serving_executor`), never
        on the shared default executor — long solves cannot starve cache
        lookups, and a busy shard never delays another shard's queue.
        """
        queue = self._shard_queues[shard]
        loop = asyncio.get_running_loop()
        serving = self.router.serving_executor(shard)  # None in inline mode
        while True:
            # items are (kind, work, future): "plan" work returns
            # (result, tier), "session" work returns the operation's value
            _client_id, (kind, work, future) = await queue.get()
            try:
                payload = await loop.run_in_executor(serving, work)
            except asyncio.CancelledError:
                if not future.done():
                    future.set_exception(ServiceError("service shutting down"))
                raise
            except Exception as exc:  # noqa: BLE001 - the worker must survive
                self.metrics.inc_error()
                if not future.done():
                    future.set_exception(exc)
                continue
            if kind == "plan":
                _result, tier = payload
                if tier == TIER_SOLVE:
                    self.metrics.inc("solves")
                elif tier == TIER_DEGRADED:
                    pass  # counted at the degradation site (degraded_served)
                else:
                    # an identical request solved while this one queued: dedup
                    self.metrics.inc("coalesced")
                    self.metrics.inc(f"hits_{tier}")
            if not future.done():
                future.set_result(payload)

    def _serve_miss(
        self, shard: int, request: PlanRequest, key: CacheKey
    ) -> Tuple[PlanResult, str]:
        """Serving-thread body: re-check the cache, then really solve.

        Identical concurrent requests always route to the same shard and
        are processed serially here, so this re-check guarantees a given
        (instance, solver, options) is solved at most once per cold start.
        """
        hit = self.planner.cache_lookup(request, key)
        if hit is not None:
            return hit
        try:
            result = self.router.solve_in_worker(
                shard, request, deadline_s=self.solve_deadline_s
            )
        except DeadlineExceededError:
            # graceful degradation: answer with a fast greedy plan plus
            # the bounds sandwich, explicitly marked — never cached, so a
            # retry after the storm gets the real solver's answer
            self.metrics.inc("timeouts")
            self.metrics.inc("degraded_served")
            return self._degraded_result(request), TIER_DEGRADED
        self.planner.cache_store(request, result, key)
        return result, TIER_SOLVE

    def _degraded_result(self, request: PlanRequest) -> PlanResult:
        """The deadline-degraded answer: greedy/FNF plan + bounds sandwich.

        Greedy is O(n log n) and capable on every valid instance (the
        correlation assumption is enforced at construction), so this path
        is effectively instant relative to any deadline worth setting.
        """
        fallback = replace(
            request.with_solver("greedy+reversal"), include_bounds=True
        )
        result = _plan_standalone(fallback)
        provenance = dict(result.provenance)
        provenance["degraded"] = True
        provenance["deadline_s"] = self.solve_deadline_s
        provenance["requested_solver"] = request.solver
        return replace(result, provenance=provenance)

    # ------------------------------------------------------------------
    # group sessions (runs on the service event loop)
    # ------------------------------------------------------------------
    async def _run_session_op(
        self, shard: int, client_id: str, work: Callable[[], Any]
    ) -> Any:
        """Admit one session operation onto a shard's serving thread.

        Session operations ride the same admission cap and fair queues as
        plan misses, and every operation for one session runs on that
        session's shard — so deltas are applied serially, in order, by
        the thread that holds the session's pinned table warm.
        """
        queues = self._shard_queues
        if not queues:
            raise ServiceError("service is not running")
        self.metrics.inc("requests")
        if self._admitted >= self.max_pending:
            self.metrics.inc("rejected")
            raise ServiceRetryableError(
                f"admission queue full ({self._admitted} pending); retry later"
            )
        self._admitted += 1
        self.metrics.set_gauge("queue_depth", self._admitted)
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Any]" = loop.create_future()
        try:
            await queues[shard].put(client_id, ("session", work, future))
            return await future
        finally:
            self._admitted -= 1
            self.metrics.set_gauge("queue_depth", self._admitted)

    async def open_session(
        self,
        request: PlanRequest,
        client_id: str = "local",
        session_id: Optional[str] = None,
    ) -> SessionUpdate:
        """Open a group session; returns the opening update (seq 0)."""
        if not self._shard_queues:
            raise ServiceError("service is not running")
        loop = asyncio.get_running_loop()
        # canonical-network routing, computed off-loop like submit's lookup
        shard = await loop.run_in_executor(None, self.router.shard_for, request)

        def work() -> SessionUpdate:
            update = self.sessions.open(
                request, session_id=session_id, client_id=client_id
            )
            # later deltas route here, serializing the session's stream
            self.sessions.session(update.session_id).shard = shard
            return update

        return await self._run_session_op(shard, client_id, work)

    async def apply_session_delta(
        self, session_id: str, delta: MembershipDelta, client_id: str = "local"
    ) -> SessionUpdate:
        """Apply one membership delta; returns the repaired update."""
        session = self.sessions.session(session_id)
        shard = session.shard if session.shard is not None else 0
        work = functools.partial(self.sessions.apply, session_id, delta)
        return await self._run_session_op(shard, client_id, work)

    async def resume_session(
        self, session_id: str, client_id: str = "local"
    ) -> SessionUpdate:
        """Replay the last acknowledged update (reconnect path)."""
        session = self.sessions.session(session_id)
        shard = session.shard if session.shard is not None else 0
        work = functools.partial(self.sessions.resume, session_id)
        return await self._run_session_op(shard, client_id, work)

    async def close_session(
        self, session_id: str, client_id: str = "local"
    ) -> None:
        """Close a session (releases its pinned table)."""
        session = self.sessions.session(session_id)
        shard = session.shard if session.shard is not None else 0
        work = functools.partial(self.sessions.close, session_id)
        return await self._run_session_op(shard, client_id, work)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def is_running(self) -> bool:
        """Whether the service loop is up (background or foreground)."""
        return self._loop is not None

    @property
    def address(self) -> Optional[Tuple[str, int]]:
        """``(host, port)`` of the TCP listener, or ``None``."""
        return self._address

    async def _startup(
        self, host: Optional[str], port: int
    ) -> Optional[Tuple[str, int]]:
        loop = asyncio.get_running_loop()
        if self.store is not None and self.store not in self.planner.cache_tiers:
            self.planner.add_cache_tier(self.store)
        # one fair queue per shard: clients round-robin within a shard,
        # shards never contend; the global _admitted counter (submit)
        # bounds the total backlog at max_pending
        self._admitted = 0
        self._shard_queues = [
            FairQueue(self.max_pending) for _ in range(self.router.num_shards)
        ]
        self._dispatchers = [
            loop.create_task(self._shard_loop(shard))
            for shard in range(self.router.num_shards)
        ]
        if host is None:
            return None
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=MAX_FRAME_BYTES
        )
        sockname = self._server.sockets[0].getsockname()
        self._address = (sockname[0], sockname[1])
        return self._address

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        for task in self._dispatchers:
            task.cancel()
        await asyncio.gather(
            *self._dispatchers, *self._conn_tasks, return_exceptions=True
        )
        self._dispatchers = []
        self._conn_tasks.clear()
        for shard_queue in self._shard_queues:
            for _client, (_kind, _work, future) in shard_queue.drain():
                if not future.done():
                    future.set_exception(ServiceError("service shutting down"))
        self._shard_queues = []
        self._address = None
        # release every session's pinned table so a caller-supplied
        # planner (and its table cache) is handed back unencumbered
        self.sessions.close_all()
        if self.store is not None:
            self.planner.remove_cache_tier(self.store)

    def start_background(
        self, host: str = "127.0.0.1", port: int = 0, *, tcp: bool = False
    ) -> Optional[Tuple[str, int]]:
        """Run the service on a daemon thread; returns the TCP address.

        With ``tcp=False`` (the default) no socket is opened — requests
        come in through :class:`~repro.service.client.InProcessClient`.
        With ``tcp=True`` a JSON-lines listener is bound (``port=0`` picks
        a free port) and the bound ``(host, port)`` is returned.
        """
        if self._loop is not None:
            raise ServiceError("service is already running")
        loop = asyncio.new_event_loop()
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(loop)
            loop.call_soon(started.set)
            loop.run_forever()

        self._loop = loop
        self._thread = threading.Thread(
            target=run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout=self.startup_timeout_s):
            raise ServiceError(
                f"service startup stuck in phase 'event-loop startup' "
                f"after {self.startup_timeout_s:g}s"
            )
        future = asyncio.run_coroutine_threadsafe(
            self._startup(host if tcp else None, port), loop
        )
        try:
            return future.result(timeout=self.startup_timeout_s)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise ServiceError(
                f"service startup stuck in phase 'listener/dispatcher "
                f"startup' after {self.startup_timeout_s:g}s"
            ) from None

    def stop(self) -> None:
        """Stop the background service and release every worker.

        Each phase is bounded by ``shutdown_timeout_s``; a phase that
        overruns raises a :class:`ServiceError` naming it, with the
        service state left intact so a retry (e.g. with a longer timeout)
        still has a loop to shut down.
        """
        loop = self._loop
        if loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(self._shutdown(), loop)
        try:
            future.result(timeout=self.shutdown_timeout_s)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise ServiceError(
                f"service stop stuck in phase 'graceful shutdown' after "
                f"{self.shutdown_timeout_s:g}s (loop left running; call "
                f"stop() again or raise shutdown_timeout_s)"
            ) from None
        self._loop = None
        loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=self.shutdown_timeout_s)
            if self._thread.is_alive():
                raise ServiceError(
                    f"service stop stuck in phase 'event-loop join' after "
                    f"{self.shutdown_timeout_s:g}s (daemon thread abandoned)"
                )
            self._thread = None
        loop.close()
        # the shards may still be finishing a solve whose caller was
        # already answered "shutting down": bound the wait like the rest
        closer = threading.Thread(
            target=self.router.shutdown, name="repro-service-stop", daemon=True
        )
        closer.start()
        closer.join(timeout=self.shutdown_timeout_s)
        if closer.is_alive():
            raise ServiceError(
                f"service stop stuck in phase 'worker shutdown' after "
                f"{self.shutdown_timeout_s:g}s (workers left to finish)"
            )

    def __enter__(self) -> "PlanningService":
        """Start embedded (no TCP) on entry."""
        self.start_background(tcp=False)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def run(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        ready: Optional[Callable[[Tuple[str, int]], None]] = None,
    ) -> None:
        """Run the TCP server in the foreground until interrupted.

        ``ready`` is invoked with the bound address once the listener is
        up (``repro serve`` prints it).  This is the blocking entry point
        the CLI uses; embedded consumers use :meth:`start_background`.
        """
        if self._loop is not None or self._shard_queues:
            raise ServiceError("service is already running")

        async def main() -> None:
            address = await self._startup(host, port)
            self._loop = asyncio.get_running_loop()
            if ready is not None and address is not None:
                ready(address)
            try:
                assert self._server is not None
                await self._server.serve_forever()
            except asyncio.CancelledError:
                pass
            finally:
                self._loop = None
                await self._shutdown()

        try:
            asyncio.run(main())
        finally:
            self.router.shutdown()

    # ------------------------------------------------------------------
    # TCP front-end
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # register so _shutdown can cancel handlers blocked on a read
        # (server.close() stops listening but leaves live connections)
        this_task = asyncio.current_task()
        if this_task is not None:
            self._conn_tasks.add(this_task)
        self.metrics.inc("connections")
        peer = writer.get_extra_info("peername")
        default_client = f"{peer[0]}:{peer[1]}" if peer else "tcp"
        write_lock = asyncio.Lock()

        async def send(message: Dict[str, Any]) -> None:
            async with write_lock:
                writer.write(encode(message))
                await writer.drain()

        plan_tasks: "set[asyncio.Task[None]]" = set()
        try:
            while True:
                line = await _read_frame(reader)
                if line is None:
                    # the rest of the stream cannot be trusted to be in
                    # step: answer if the line ends soon, then close
                    self.metrics.inc_error("protocol_errors")
                    if await _drain_line(reader):
                        await send(
                            error_message(
                                f"wire frame exceeds the {MAX_FRAME_BYTES}-byte limit"
                            )
                        )
                    break
                if not line:
                    break
                try:
                    message = decode(line)
                except ServiceError as exc:
                    self.metrics.inc_error("protocol_errors")
                    await send(error_message(str(exc)))
                    continue
                kind = message["type"]
                message_id = message.get("id")
                if kind == "ping":
                    await send({"type": "pong", "id": message_id})
                elif kind == "metrics":
                    await send(
                        {
                            "type": "metrics",
                            "id": message_id,
                            "metrics": self.describe_metrics(),
                        }
                    )
                elif kind == "plan":
                    task = asyncio.get_running_loop().create_task(
                        self._handle_plan(message, default_client, send)
                    )
                    plan_tasks.add(task)
                    self._conn_tasks.add(task)
                    task.add_done_callback(plan_tasks.discard)
                    task.add_done_callback(self._conn_tasks.discard)
                elif kind in (
                    "session-open",
                    "session-delta",
                    "session-resume",
                    "session-close",
                ):
                    task = asyncio.get_running_loop().create_task(
                        self._handle_session(message, default_client, send)
                    )
                    plan_tasks.add(task)
                    self._conn_tasks.add(task)
                    task.add_done_callback(plan_tasks.discard)
                    task.add_done_callback(self._conn_tasks.discard)
                else:
                    self.metrics.inc_error("protocol_errors")
                    await send(
                        error_message(
                            f"unknown message type {kind!r}", id=message_id
                        )
                    )
        except (asyncio.CancelledError, ConnectionResetError):
            pass
        finally:
            if this_task is not None:
                self._conn_tasks.discard(this_task)
            for task in plan_tasks:
                task.cancel()
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _handle_plan(
        self,
        message: Dict[str, Any],
        default_client: str,
        send: Callable[[Dict[str, Any]], Any],
    ) -> None:
        message_id = message.get("id")
        try:
            request = parse_plan_request(message)
            client_id = str(message.get("client") or default_client)
            result, tier = await self.submit(request, client_id=client_id)
            await send(
                result_message(
                    result, tier, id=message_id, degraded=(tier == TIER_DEGRADED)
                )
            )
        except asyncio.CancelledError:
            raise
        except ReproError as exc:
            with contextlib.suppress(Exception):  # peer may already be gone
                await send(
                    error_message(
                        str(exc),
                        id=message_id,
                        retryable=isinstance(exc, ServiceRetryableError),
                    )
                )
        except Exception as exc:  # noqa: BLE001 - report, don't drop the line
            with contextlib.suppress(Exception):
                await send(error_message(f"internal error: {exc}", id=message_id))

    async def _handle_session(
        self,
        message: Dict[str, Any],
        default_client: str,
        send: Callable[[Dict[str, Any]], Any],
    ) -> None:
        message_id = message.get("id")
        try:
            kind = message["type"]
            client_id = str(message.get("client") or default_client)
            if kind == "session-open":
                request, chosen = parse_session_open(message)
                update = await self.open_session(
                    request, client_id=client_id, session_id=chosen
                )
                await send(session_result_message(update, id=message_id))
            elif kind == "session-delta":
                session_id, delta = parse_session_delta(message)
                update = await self.apply_session_delta(
                    session_id, delta, client_id=client_id
                )
                await send(session_result_message(update, id=message_id))
            elif kind == "session-resume":
                update = await self.resume_session(
                    parse_session_ref(message), client_id=client_id
                )
                await send(session_result_message(update, id=message_id))
            else:  # session-close (the dispatch table admits nothing else)
                session_id = parse_session_ref(message)
                await self.close_session(session_id, client_id=client_id)
                await send(session_closed_message(session_id, id=message_id))
        except asyncio.CancelledError:
            raise
        except ReproError as exc:
            with contextlib.suppress(Exception):  # peer may already be gone
                await send(
                    error_message(
                        str(exc),
                        id=message_id,
                        retryable=isinstance(exc, ServiceRetryableError),
                    )
                )
        except Exception as exc:  # noqa: BLE001 - report, don't drop the line
            with contextlib.suppress(Exception):
                await send(error_message(f"internal error: {exc}", id=message_id))

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def describe_metrics(self) -> Dict[str, Any]:
        """Service counters + shard balance + planner cache + store stats."""
        data: Dict[str, Any] = self.metrics.snapshot()
        data.update(self.router.stats())
        info = self.planner.cache_info()
        data.update(
            {
                "planner_cache_hits": info.hits,
                "planner_cache_size": info.currsize,
                "planner_tier_hits": info.tier_hits,
            }
        )
        if self.store is not None:
            stats = self.store.stats()
            data.update(
                {
                    "store_live_keys": stats.live_keys,
                    "store_records": stats.total_records,
                    "store_segments": stats.segments,
                }
            )
        return data
