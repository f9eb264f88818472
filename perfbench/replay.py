"""The traced replay: per-layer numbers for one workload.

The real run measures the service from outside.  This module replays the
same seeded stream in one process through the public functions the
client and the server call, in the same order and with the same
configuration (planner LRU size, plan store, four shards routed by
canonical network key, the module's standalone table cache, a session
manager on the service planner).  Every layer call is wrapped in a span
``(name, start, end, parent, request)``; spans stay in memory and are
written to ``.bench_work/`` when the run ends.  Server and client
counters come from the real run.

Every traced run covers all three paths - hit, miss and session.  A
layer the workload's own timed stream does not reach is measured on its
untimed phases (the ``hot_hits`` populate pass, the session openings) or,
failing that, on a short replay of the sibling workload that reaches it;
the source of each metric is printed next to it.
"""

from __future__ import annotations

import json
import shutil
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api import Planner, PlanRequest
from repro.api import planner as planner_module
from repro.service import PlanStore, SessionManager, ShardRouter, protocol

from perfbench import stats
from perfbench.workloads import Op, Workload, build

#: Sample ranks: the workload's timed stream, its untimed phases, a sibling.
TIMED, UNTIMED, PROBE = 0, 1, 2
RANK_NAMES = {TIMED: "timed stream", UNTIMED: "untimed phases", PROBE: "sibling probe"}

#: Timed ops replayed (the first ones the real run served).
REPLAY_OPS = 1500

#: Timed ops in each sibling probe.
PROBE_OPS = 400

#: Shards of the served configuration (the ``serve`` default).
SHARDS = 4

#: The per-layer metrics in report order: unit, which way is better, and
#: the end-to-end metric (on which workload) a change in it should move.
METRICS = {
    "protocol.encode_request_us": ("us", "lower", "latency_p50_ms on hot_hits"),
    "protocol.decode_request_us": ("us", "lower", "latency_p50_ms on hot_hits"),
    "protocol.encode_result_us": ("us", "lower", "latency_p50_ms on hot_hits"),
    "protocol.decode_result_us": ("us", "lower", "latency_p50_ms on hot_hits"),
    "protocol.request_bytes": ("bytes", "lower", "latency_p50_ms on hot_hits"),
    "protocol.result_bytes": ("bytes", "lower", "latency_p50_ms on hot_hits"),
    "planner.request_key_us": ("us", "lower", "latency_p50_ms on hot_hits"),
    "planner.lookup_us": ("us", "lower", "latency_p50_ms on hot_hits"),
    "planner.memory_hit_ratio": ("ratio", "higher", "latency_p50_ms on hot_hits"),
    "planner.cache_store_us": ("us", "lower", "throughput_rps on cold_misses"),
    "store.get_us": ("us", "lower", "latency_p99_ms on hot_hits"),
    "store.hit_ratio": ("ratio", "higher", "latency_p99_ms on hot_hits"),
    "store.put_us": ("us", "lower", "throughput_rps on cold_misses"),
    "store.open_s": ("s", "lower", "setup_s on hot_hits"),
    "solve.greedy_us": ("us", "lower", "throughput_rps and latency_p50_ms on cold_misses"),
    "solve.dp_us": ("us", "lower", "throughput_rps and latency_p50_ms on cold_misses"),
    "shard.balance": ("ratio", "lower", "throughput_rps on cold_misses"),
    "tables.hits": ("count", "higher", "latency_p99_ms and throughput_rps on cold_misses"),
    "tables.extensions": ("count", "lower", "latency_p99_ms on cold_misses"),
    "tables.builds": ("count", "lower", "latency_p99_ms and throughput_rps on cold_misses"),
    "tables.reuse_ratio": ("ratio", "higher", "latency_p99_ms and throughput_rps on cold_misses"),
    "tables.build_us": ("us", "lower", "latency_p99_ms and throughput_rps on cold_misses"),
    "sessions.apply_us": ("us", "lower", "latency_p50_ms and latency_p99_ms on session_churn"),
    "sessions.repair_ratio": ("ratio", "higher", "latency_p50_ms on session_churn"),
    "sessions.tier_hit_ratio": ("ratio", "higher", "latency_p50_ms on session_churn"),
    "server.residual_us": ("us", "lower", "latency_p50_ms on hot_hits"),
    "server.coalesced": ("count", "higher", "throughput_rps on cold_misses"),
    "server.rejected": ("count", "lower", "success_ratio on all workloads"),
    "server.errors_total": ("count", "lower", "success_ratio on all workloads"),
    "overhead_ratio": ("ratio", "lower", "latency_p50_ms on hot_hits"),
    "client.retries": ("count", "lower", "success_ratio on all workloads"),
    "client.reconnects": ("count", "lower", "success_ratio on all workloads"),
    "client.timeouts": ("count", "lower", "success_ratio on all workloads"),
    "trace.overhead_pct": ("%", "lower", "none: it must stay small"),
}


class Tracer:
    """In-memory spans and notes, tagged with the current request id.

    Disabled, :meth:`call` is a plain call and nothing is recorded; that
    is the untraced replay the tracing overhead is measured against.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.request = ""
        #: ``[name, start, end, parent index, request]`` per span.
        self.spans: List[list] = []
        #: ``(name, value, request)`` per observation that is not a span.
        self.notes: List[Tuple[str, Any, str]] = []
        self._stack: List[int] = []

    def open(self, name: str) -> Optional[list]:
        if not self.enabled:
            return None
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def close(self, span: Optional[list], name: Optional[str] = None) -> float:
        """End ``span`` (optionally renaming it); returns its duration."""
        if span is None:
            return 0.0
        span[2] = time.perf_counter()
        self._stack.pop()
        if name is not None:
            span[0] = name
        return span[2] - span[1]

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        if not self.enabled:
            return fn(*args, **kwargs)
        span = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(span)

    def note(self, name: str, value: Any) -> None:
        if self.enabled:
            self.notes.append((name, value, self.request))


class TracedPlanner(Planner):
    """The service planner with a span around each public call it serves."""

    def __init__(self, tracer: Tracer, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.tracer = tracer

    def request_key(self, request):
        return self.tracer.call("planner.request_key", super().request_key, request)

    def cache_lookup(self, request, key=None):
        hit = self.tracer.call("planner.lookup", super().cache_lookup, request, key)
        self.tracer.note("planner.memory_hit", hit is not None and hit[1] == "memory")
        return hit

    def recheck(self, request, key):
        """The shard's cache re-check before a solve (not a client lookup)."""
        return self.tracer.call("planner.recheck", super().cache_lookup, request, key)

    def cache_store(self, request, result, key=None):
        return self.tracer.call(
            "planner.cache_store", super().cache_store, request, result, key
        )

    def solve_from_table(self, request, table, canonical_mset):
        return self.tracer.call(
            "solve.repair", super().solve_from_table, request, table, canonical_mset
        )

    def solve_uncached(self, request):
        return self.tracer.call(_solve_span(request), super().solve_uncached, request)


class TracedTier:
    """The plan store as a cache tier, with spans around ``get``/``put``."""

    name = "store"

    def __init__(self, store: PlanStore, tracer: Tracer) -> None:
        self.store = store
        self.tracer = tracer

    def get(self, key):
        span = self.tracer.open("store.get")
        found = self.store.get(key)
        self.tracer.close(span, None if found is not None else "store.get_miss")
        self.tracer.note("store.hit", found is not None)
        return found

    def put(self, key, result):
        return self.tracer.call("store.put", self.store.put, key, result)


def _solve_span(request: PlanRequest) -> str:
    return "solve.dp" if request.solver.startswith("dp") else "solve.greedy"


def _table_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {k: after[k] - before[k] for k in ("hits", "builds", "extensions")}


class ReplayServer:
    """One served configuration, rebuilt from scratch for every replay."""

    def __init__(self, workload: Workload, store_dir: Optional[Path], tracer: Tracer) -> None:
        self.tracer = tracer
        self.planner = TracedPlanner(tracer, cache_size=workload.cache_size)
        if store_dir is not None:
            store = tracer.call("store.open", PlanStore, store_dir)
            self.planner.add_cache_tier(TracedTier(store, tracer))
        self.router = ShardRouter(SHARDS, mode="inline")
        self.sessions = SessionManager(self.planner)

    def _tables(self, tables, span_name: str, fn: Callable, *args: Any) -> Any:
        """Run ``fn`` in a span and note the table activity it caused."""
        before = tables.stats() if tables is not None else None
        span = self.tracer.open(span_name)
        value = fn(*args)
        duration = self.tracer.close(span)
        if before is not None:
            delta = _table_delta(before, tables.stats())
            for name, count in delta.items():
                self.tracer.note(f"tables.{name}", count)
            if delta["builds"] or delta["extensions"]:
                self.tracer.note("tables.build_us", duration * 1e6)
        return value

    def plan(self, index: int, request: PlanRequest) -> None:
        t, planner = self.tracer, self.planner
        line = t.call(
            "protocol.encode_request",
            lambda: protocol.encode(protocol.plan_message(request, id=index, client="c0")),
        )
        t.note("protocol.request_bytes", len(line))
        request = t.call(
            "protocol.decode_request",
            lambda: protocol.parse_plan_request(protocol.decode(line)),
        )
        key = planner.request_key(request)
        hit = planner.cache_lookup(request, key) or planner.recheck(request, key)
        if hit is not None:
            result, tier = hit
        else:
            result = self._tables(
                planner_module._STANDALONE_TABLES,
                _solve_span(request),
                self.router.solve_sync,
                request,
            )
            planner.cache_store(request, result, key)
            tier = "solve"
        self._answer(
            lambda: protocol.result_message(result, tier, id=index), protocol.parse_plan_result
        )

    def open_session(self, index: int, op: Op) -> None:
        t = self.tracer
        line = t.call(
            "protocol.encode_request",
            lambda: protocol.encode(protocol.session_open_message(
                op.request, id=index, client="c0", session=op.session
            )),
        )
        t.note("protocol.request_bytes", len(line))
        request, chosen = t.call(
            "protocol.decode_request",
            lambda: protocol.parse_session_open(protocol.decode(line)),
        )
        shard = t.call("shard.route", self.router.shard_for, request)
        update = self._tables(
            self.planner.table_cache, "sessions.open",
            lambda: self.sessions.open(request, session_id=chosen, client_id="c0"),
        )
        self.sessions.session(update.session_id).shard = shard
        self._answer(
            lambda: protocol.session_result_message(update, id=index),
            protocol.parse_session_update,
        )

    def apply_delta(self, index: int, op: Op) -> None:
        t = self.tracer
        line = t.call(
            "protocol.encode_request",
            lambda: protocol.encode(protocol.session_delta_message(
                op.session, op.delta, id=index, client="c0"
            )),
        )
        t.note("protocol.request_bytes", len(line))
        session, delta = t.call(
            "protocol.decode_request",
            lambda: protocol.parse_session_delta(protocol.decode(line)),
        )
        update = self._tables(
            self.planner.table_cache, "sessions.apply", self.sessions.apply, session, delta
        )
        t.note("sessions.repaired", update.repaired)
        t.note("sessions.tier_hit", update.tier != "solve")
        self._answer(
            lambda: protocol.session_result_message(update, id=index),
            protocol.parse_session_update,
        )

    def _answer(self, message: Callable[[], Dict[str, Any]], parse: Callable) -> None:
        """Encode the server's answer (envelope and payload) and decode it."""
        t = self.tracer
        out = t.call("protocol.encode_result", lambda: protocol.encode(message()))
        t.note("protocol.result_bytes", len(out))
        t.call("protocol.decode_result", lambda: parse(protocol.decode(out)))

    def serve(self, index: int, op: Op) -> None:
        if op.kind == "plan":
            self.plan(index, op.request)
        elif op.kind == "open":
            self.open_session(index, op)
        else:
            self.apply_delta(index, op)


def replay(
    workload: Workload,
    indices: List[int],
    tracer: Tracer,
    workdir: Path,
    *,
    probe: bool = False,
) -> ShardRouter:
    """Replay populate, warm-up and the ``indices`` of the timed stream.

    Starts from fresh state: a new planner, store directory and router,
    and an emptied standalone table cache.  Returns the router, whose
    dispatch counters give the shard balance.
    """
    planner_module._STANDALONE_TABLES.clear()
    store_dir = workdir / f"replay-{workload.name}" if workload.use_store else None
    if store_dir is not None:
        shutil.rmtree(store_dir, ignore_errors=True)
    prefix = "probe-" if probe else ""
    tracer.request = f"{prefix}setup"
    server = ReplayServer(workload, store_dir, tracer)
    router = server.router
    if workload.populate:
        for i, request in enumerate(workload.populate):
            tracer.request = f"{prefix}populate:{i}"
            server.plan(i, request)
        # the timed server restarts on the populated store
        tracer.request = f"{prefix}setup"
        server = ReplayServer(workload, store_dir, tracer)
        server.router = router
    for i, op in enumerate(workload.warmup):
        tracer.request = f"{prefix}warmup:{i}"
        server.serve(i, op)
    for i in indices:
        tracer.request = f"{prefix}timed:{i}"
        server.serve(i, workload.stream[i])
    server.sessions.close_all()
    return router


def _rank(request: str) -> int:
    if request.startswith("probe-"):
        return PROBE
    return TIMED if request.startswith("timed:") else UNTIMED


class Samples:
    """Span durations and notes by name, each tagged with its rank."""

    def __init__(self, tracer: Tracer) -> None:
        self.by_name: Dict[str, List[Tuple[int, Any]]] = defaultdict(list)
        for name, start, end, _parent, request in tracer.spans:
            self.by_name[name].append((_rank(request), end - start))
        for name, value, request in tracer.notes:
            self.by_name[name].append((_rank(request), value))

    def best(
        self, *names: str, useful: Callable[[List[Any]], bool] = bool
    ) -> Tuple[Optional[int], List[Any]]:
        """Values of ``names`` at the best rank where ``useful`` holds."""
        ranked: Dict[int, List[Any]] = defaultdict(list)
        for name in names:
            for rank, value in self.by_name.get(name, ()):
                ranked[rank].append(value)
        for rank in sorted(ranked):
            if useful(ranked[rank]):
                return rank, ranked[rank]
        return None, []


def stage_sums(tracer: Tracer) -> List[float]:
    """Per timed op, the summed duration of its top-level spans."""
    sums: Dict[str, float] = defaultdict(float)
    for _name, start, end, parent, request in tracer.spans:
        if parent is None and request.startswith("timed:"):
            sums[request] += end - start
    return list(sums.values())


def _timed_replay(workload: Workload, indices: List[int], workdir: Path, enabled: bool):
    tracer = Tracer(enabled)
    started = time.perf_counter()
    router = replay(workload, indices, tracer, workdir)
    return tracer, router, time.perf_counter() - started


def per_layer_metrics(
    workload: Workload,
    load,
    counters: Dict[str, Any],
    workdir: Path,
    seed: int,
    spans_path: Path,
) -> Dict[str, Dict[str, Any]]:
    """Replay ``workload`` traced and untraced; return the per-layer metrics."""
    replayed = load.records[:REPLAY_OPS]
    indices = [index for index, *_rest in replayed]
    # the latency the end-to-end metrics report: CPU latency (see loadgen)
    end_to_end = [cpu for *_rest, cpu in replayed if cpu is not None]
    # untraced, traced, traced, untraced: the overhead compares the two
    # traced replays with the two untraced ones around them
    _, _, plain_a = _timed_replay(workload, indices, workdir, False)
    tracer, router, traced_a = _timed_replay(workload, indices, workdir, True)
    _, _, traced_b = _timed_replay(workload, indices, workdir, True)
    _, _, plain_b = _timed_replay(workload, indices, workdir, False)
    routers = [(UNTIMED, router)]
    for name in ("hot_hits", "cold_misses", "session_churn"):
        if name != workload.name:
            sibling = build(name, seed, PROBE_OPS)
            routers.append(
                (PROBE, replay(sibling, list(range(PROBE_OPS)), tracer, workdir, probe=True))
            )
    samples = Samples(tracer)
    values: Dict[str, Tuple[Optional[int], Optional[float]]] = {}

    def median_us(metric: str, *names: str) -> None:
        rank, durations = samples.best(*names)
        values[metric] = (rank, statistics.median(durations) * 1e6 if durations else None)

    def mean_of(metric: str, name: str) -> None:
        rank, flags = samples.best(name)
        values[metric] = (rank, statistics.fmean(flags) if flags else None)

    for stage in ("encode_request", "decode_request", "encode_result", "decode_result"):
        median_us(f"protocol.{stage}_us", f"protocol.{stage}")
    for size in ("request_bytes", "result_bytes"):
        rank, sizes = samples.best(f"protocol.{size}")
        values[f"protocol.{size}"] = (rank, statistics.median(sizes))
    median_us("planner.request_key_us", "planner.request_key")
    median_us("planner.lookup_us", "planner.lookup")
    mean_of("planner.memory_hit_ratio", "planner.memory_hit")
    median_us("planner.cache_store_us", "planner.cache_store")
    median_us("store.get_us", "store.get")
    mean_of("store.hit_ratio", "store.hit")
    median_us("store.put_us", "store.put")
    rank, opens = samples.best("store.open")
    values["store.open_s"] = (rank, statistics.median(opens) if opens else None)
    median_us("solve.greedy_us", "solve.greedy")
    median_us("solve.dp_us", "solve.dp")
    # the served run's dispatch counters first, then the replays' routers,
    # which route exactly as the server does
    dispatches = [(TIMED, counters)] + [(rank, r.stats()) for rank, r in routers]
    busy = [(rank, shards) for rank, shards in dispatches if stats.dispatched(shards)]
    values["shard.balance"] = (
        (busy[0][0], stats.shard_balance(busy[0][1])) if busy else (None, None)
    )

    def active(counts: List[int]) -> bool:
        return any(counts)

    table_rank, _ = samples.best("tables.hits", "tables.builds", "tables.extensions", useful=active)
    table_counts = {}
    for name in ("hits", "extensions", "builds"):
        counts = [v for r, v in samples.by_name.get(f"tables.{name}", ()) if r == table_rank]
        table_counts[name] = sum(counts)
        values[f"tables.{name}"] = (table_rank, sum(counts))
    acquired = sum(table_counts.values())
    values["tables.reuse_ratio"] = (
        table_rank, stats.ratio(table_counts["hits"], acquired)
    )
    rank, build_us = samples.best("tables.build_us")
    values["tables.build_us"] = (rank, statistics.median(build_us) if build_us else None)
    median_us("sessions.apply_us", "sessions.apply")
    mean_of("sessions.repair_ratio", "sessions.repaired")
    mean_of("sessions.tier_hit_ratio", "sessions.tier_hit")

    sums = stage_sums(tracer)
    residual = stats.residual_us(end_to_end, sums)
    values["server.residual_us"] = (TIMED, residual)
    for name in ("coalesced", "rejected", "errors_total"):
        values[f"server.{name}"] = (TIMED, counters.get(name, 0))
    rank, solves = samples.best("solve.greedy", "solve.dp", "solve.repair")
    values["overhead_ratio"] = (
        rank,
        statistics.median(end_to_end) / statistics.median(solves) if solves else None,
    )
    for name in ("retries", "reconnects", "timeouts"):
        values[f"client.{name}"] = (TIMED, load.client_counters.get(name, 0))
    overhead = (traced_a + traced_b) / (plain_a + plain_b) - 1.0
    values["trace.overhead_pct"] = (TIMED, overhead * 100.0)

    print(f"replay: {len(indices)} timed ops, traced {traced_a:.3f}s / "
          f"{traced_b:.3f}s, untraced {plain_a:.3f}s / {plain_b:.3f}s, "
          f"{len(tracer.spans)} spans")
    print(f"replay: median stage sum {statistics.median(sums) * 1e6:.1f} us, "
          f"median end-to-end {statistics.median(end_to_end) * 1e6:.1f} us")
    if residual < 0:
        print(f"warning: server.residual_us is negative ({residual:.1f} us): "
              f"the replayed stages outlast the real round trip")
    _check_coverage(workload, samples)
    _write_spans(tracer, spans_path)

    metrics = {}
    for name, (unit, _better, moves) in METRICS.items():
        rank, value = values[name]
        source = RANK_NAMES.get(rank, "no samples")
        print(f"layer {name}: from {source}; should move {moves}")
        metrics[name] = {"value": float(value) if value is not None else 0.0, "unit": unit}
    return metrics


#: Spans each path's timed ops must contain for the replay to cover it.
PATH_SPANS = {
    "plan-hit": {"protocol.encode_request", "protocol.decode_request",
                 "planner.request_key", "planner.lookup",
                 "protocol.encode_result", "protocol.decode_result"},
    "plan-miss": {"solve.greedy", "solve.dp", "planner.cache_store", "store.put"},
    "session": {"sessions.apply"},
}


def _check_coverage(workload: Workload, samples: Samples) -> None:
    """Fail the run when the replay misses a stage of the workload's path."""
    need = set(PATH_SPANS["plan-hit"])
    if workload.name == "cold_misses":
        need |= PATH_SPANS["plan-miss"]
    if workload.name == "session_churn":
        need |= PATH_SPANS["session"]
    timed = {name for name, values in samples.by_name.items()
             if any(rank == TIMED for rank, _v in values)}
    missing = need - timed
    if missing:
        raise RuntimeError(
            f"the traced replay of {workload.name} lacks stages {sorted(missing)}"
        )
    print(f"replay covers {workload.name}: {sorted(need)}")


def _write_spans(tracer: Tracer, path: Path) -> None:
    """Write the spans as JSON lines (name, start, end, parent, request)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as out:
        for index, (name, start, end, parent, request) in enumerate(tracer.spans):
            out.write(json.dumps({
                "id": index, "name": name, "start": start, "end": end,
                "parent": parent, "request": request,
            }) + "\n")
    print(f"spans written to {path}")
