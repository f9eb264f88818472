"""The planning engine: ``plan()`` one instance, ``plan_batch()`` many.

:class:`Planner` is the façade's workhorse.  It resolves solver specs
through the capability-aware registry (:mod:`repro.api.solvers`), times
each solve, assembles :class:`~repro.api.request.PlanResult` responses,
and memoizes them in a thread-safe LRU cache keyed by the instance's
*canonical key* (:mod:`repro.core.canonical`) plus the resolved solver
configuration — repeated requests are served without re-solving even when
they are merely *equivalent* (renamed nodes, power-of-two-rescaled
overheads) rather than byte-equal: a cached result is re-bound onto the
requesting instance bit-identically to a direct solve.

``plan_batch`` plans a sequence of requests serially and returns results
in submission order.  With ``group_solve`` (the default) requests whose
solver declares ``reusable_table`` are first *bucketed by canonical type
system*: one optimal table per bucket is built (or incrementally extended)
for the bucket's element-wise maximum destination counts, and every request
in the bucket is answered by an ``O(n)`` table materialization — the
Theorem 2 closing note amortized across the whole batch.  Process-parallel
solving lives in the planning service's process shards
(``serve --workers process``), not here.

Beyond the in-memory LRU the planner accepts *external cache tiers*
(:class:`CacheTier`): objects with ``get``/``put`` keyed by the planner's
cache key, consulted on LRU misses and populated after every solve.  The
planning service's persistent on-disk plan store
(:class:`repro.service.store.PlanStore`) plugs in through this hook, giving
``memory -> store -> solve`` lookup without the planner knowing anything
about disks or services.
"""

from __future__ import annotations

import hashlib
import json
import operator
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.api.request import DEFAULT_SOLVER, BatchResult, PlanRequest, PlanResult
from repro.api.solvers import SolverEntry, SolverOutput, resolve
from repro.api.tables import OptimalTableCache, TableCacheConfig
from repro.core.bounds import bound_report, certified_lower_bound
from repro.core.canonical import map_schedule
from repro.core.dp import DEFAULT_MAX_STATES, box_states, estimated_states
from repro.core.dp_table import OptimalTable
from repro.core.dp_vector import resolve_backend
from repro.core.multicast import MulticastSet
from repro.core.schedule import Schedule
from repro.exceptions import ReproError

__all__ = [
    "Planner",
    "CacheInfo",
    "CacheTier",
    "CacheKey",
    "instance_fingerprint",
    "plan",
    "plan_batch",
]

Plannable = Union[PlanRequest, MulticastSet]

#: The planner's cache key: (canonical key, solver name, options key, bounds?).
CacheKey = Tuple[str, str, str, bool]


class CacheTier:
    """Interface of an external planner cache tier (duck-typed).

    A tier maps planner :data:`CacheKey` tuples to
    :class:`~repro.api.request.PlanResult` values.  The planner consults its
    tiers in registration order after an in-memory LRU miss and writes every
    freshly solved result through to all of them.  Implementations must be
    thread-safe; ``get`` returns ``None`` on a miss.  The persistent plan
    store (:class:`repro.service.store.PlanStore`) is the canonical
    implementation.
    """

    #: Short label used in hit provenance/metrics (e.g. ``"store"``).
    name: str = "tier"

    def get(self, key: CacheKey) -> Optional[PlanResult]:
        """Return the cached result for ``key``, or ``None``."""
        raise NotImplementedError

    def put(self, key: CacheKey, result: PlanResult) -> None:
        """Store ``result`` under ``key``."""
        raise NotImplementedError


def instance_fingerprint(mset: MulticastSet) -> str:
    """Raw content hash of an instance (hex sha256 prefix).

    Computed over the sorted-key JSON of the canonical serialization, so
    two instances with identical nodes (in any input order — the model
    canonicalizes destination order) and latency share a fingerprint.
    Node names and absolute scale *are* part of this hash; the planner's
    cache keys use the broader
    :func:`repro.core.canonical.canonical_key` instead, which also folds
    away renaming and power-of-two rescaling.
    """
    from repro.io.serialization import multicast_to_dict

    payload = json.dumps(multicast_to_dict(mset), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


@dataclass(frozen=True)
class CacheInfo:
    """Snapshot of a planner cache: hits, misses, occupancy, capacity.

    ``tier_hits`` counts lookups that missed the in-memory LRU but were
    served by an external :class:`CacheTier` (they are not included in
    ``hits``; ``misses`` counts real solves only).  ``canonical_hits``
    counts the subset of hits (memory or tier) that were served across
    instances — the cached result was planned for an *equivalent* instance
    (renamed / power-of-two-rescaled) and re-bound onto the request.
    """

    hits: int
    misses: int
    currsize: int
    maxsize: int
    tier_hits: int = 0
    canonical_hits: int = 0


_node_name = operator.attrgetter("name")


def _same_instance(a: MulticastSet, b: MulticastSet) -> bool:
    """Whether two instances serialize identically.

    Same names, same overheads and latency, *and* the same number types:
    ``MulticastSet`` equality treats ``2 == 2.0``, but the two serialize
    differently, so a cached result is reused verbatim only on a match
    here.
    """
    if a is b:
        return True
    return (
        a._sends == b._sends
        and a._receives == b._receives
        and a.latency == b.latency
        and type(a.latency) is type(b.latency)
        and all(map(operator.is_, map(type, a._sends), map(type, b._sends)))
        and all(map(operator.is_, map(type, a._receives), map(type, b._receives)))
        and all(map(operator.eq, map(_node_name, a.nodes), map(_node_name, b.nodes)))
    )


def _options_key(options: Dict[str, Any]) -> str:
    return json.dumps(options, sort_keys=True, default=repr)


def _execute(
    entry: SolverEntry,
    request: PlanRequest,
    options: Dict[str, Any],
    fingerprint: Optional[str] = None,
    solver_fn: Optional[Any] = None,
) -> PlanResult:
    """Run one solver and assemble the result (no caching at this layer).

    ``solver_fn`` substitutes the solve itself (the planner's shared
    optimal-table fast path) while keeping the result assembly — bounds,
    provenance, capabilities — identical to a direct run of ``entry``.
    """
    mset = request.instance
    if fingerprint is None:
        fingerprint = mset.canonical_form().key
    start = time.perf_counter()
    output = solver_fn(mset) if solver_fn is not None else entry(mset, **options)
    elapsed = time.perf_counter() - start
    schedule = output.schedule
    value = schedule.reception_completion
    bounds = None
    if request.include_bounds:
        if entry.capabilities.exact:
            opt_value, opt_is_exact = value, True
        else:
            opt_value, opt_is_exact = certified_lower_bound(mset), False
        bounds = bound_report(mset, value, opt_value, opt_is_exact=opt_is_exact)
    provenance: Dict[str, Any] = {
        "fingerprint": fingerprint,
        "spec": request.solver,
        "options": dict(options),
        "complexity": entry.capabilities.complexity,
    }
    provenance.update(output.stats)
    return PlanResult(
        solver=entry.name,
        schedule=schedule,
        value=value,
        delivery_completion=schedule.delivery_completion,
        exact=entry.capabilities.exact,
        bounds=bounds,
        elapsed_s=elapsed,
        cache_hit=False,
        tag=request.tag,
        provenance=provenance,
    )


#: Solver options a table materialization honors: ``max_states`` bounds
#: the acquire, ``backend`` only picks the build engine (both engines are
#: bit-identical, so a table answer is valid for either).
_TABLE_SAFE_OPTIONS = frozenset({"max_states", "backend"})


def _table_solver_fn(
    tables: OptimalTableCache,
    entry: SolverEntry,
    options: Dict[str, Any],
    mset: MulticastSet,
) -> Optional[Callable[[MulticastSet], SolverOutput]]:
    """The optimal-table fast path for one solve, or ``None`` to go direct.

    Applies when the solver declares ``reusable_table`` and its options
    are ones the table honors (``max_states`` and ``backend``).  Tables
    live in *canonical* space (:mod:`repro.core.canonical`), so renamed
    and power-of-two-rescaled networks share them; the materialized
    schedule is mapped back onto the request's own instance
    bit-identically.
    """
    if not entry.capabilities.reusable_table or (set(options) - _TABLE_SAFE_OPTIONS):
        return None
    if "backend" in options:
        # Validate eagerly: a table answer satisfies any backend, but an
        # unknown name must raise the same error as the direct path.
        resolve_backend(str(options["backend"]))
    canon = mset.canonical_form()
    table = tables.acquire(canon.mset, options.get("max_states"))
    if table is None:
        return None
    return _from_table(table, canon.mset)


def _from_table(
    table: OptimalTable, canonical_mset: MulticastSet
) -> Callable[[MulticastSet], SolverOutput]:
    def solver_fn(mset: MulticastSet) -> SolverOutput:
        return SolverOutput(
            schedule=map_schedule(table.schedule_for(canonical_mset), mset),
            # the instance's own table size: deterministic per instance,
            # matching a direct solve_dp exactly
            stats={"states_computed": estimated_states(mset)},
        )

    return solver_fn


#: Shared table cache for planner-less solves: the planning service's shard
#: workers (:func:`_plan_standalone`) amortize repeated same-network
#: traffic here.  Results stay bit-identical to direct solves, so callers
#: cannot observe which path ran.
_STANDALONE_TABLES: Optional[OptimalTableCache] = OptimalTableCache()


def configure_standalone_tables(config: Optional[TableCacheConfig]) -> None:
    """Re-point the standalone table cache (worker-process initializer).

    The planning service passes its :class:`TableCacheConfig` here when it
    spawns shard *processes*: with a ``snapshot_dir`` configured, every
    worker's first miss attaches the same mmap'ed snapshot instead of
    rebuilding a private table, and write-through saves keep the file
    warm for restarts.  ``None`` (or a default config) restores the plain
    in-memory cache; a config with ``enabled=False`` turns the standalone
    fast path off entirely.
    """
    global _STANDALONE_TABLES
    if config is None:
        _STANDALONE_TABLES = OptimalTableCache()
    else:
        _STANDALONE_TABLES = config.build_cache()


def _plan_standalone_with(
    tables: Optional[OptimalTableCache], request: PlanRequest
) -> PlanResult:
    """One planner-less solve against an explicit (or no) table cache."""
    entry, spec_options = resolve(request.solver)
    options = {**spec_options, **request.options}
    solver_fn = (
        _table_solver_fn(tables, entry, options, request.instance)
        if tables is not None
        else None
    )
    return _execute(entry, request, options, solver_fn=solver_fn)


def _plan_standalone(request: PlanRequest) -> PlanResult:
    """Service-shard entry point: no shared planner state.

    Reuses the module-level :data:`_STANDALONE_TABLES` so a worker that
    keeps seeing the same network answers from its resident table.
    """
    return _plan_standalone_with(_STANDALONE_TABLES, request)


class Planner:
    """Unified planning engine with an LRU result cache.

    Parameters
    ----------
    cache_size:
        Maximum cached results; ``0`` disables caching entirely (useful
        for benchmarks that must measure real solves).
    default_solver:
        Spec used when a bare :class:`~repro.core.multicast.MulticastSet`
        is planned without naming a solver.
    cache_tiers:
        External :class:`CacheTier` instances consulted (in order) after
        an LRU miss and populated after every solve.  More can be added
        later with :meth:`add_cache_tier`.
    table_config:
        One :class:`~repro.api.tables.TableCacheConfig` value holding
        every table-cache knob: whether solvers that declare
        ``reusable_table`` (the Section 4 ``dp``) are served through a
        shared per-type-system
        :class:`~repro.api.tables.OptimalTableCache`, its resident-state
        budget, the DP build backend, session pinning, and the snapshot
        directory for zero-copy warm attach.  Answers through a table are
        bit-identical to direct solves.  Defaults to
        ``TableCacheConfig()`` (reuse on, no snapshots); benchmarks and
        timing experiments that must measure real solves pass
        ``TableCacheConfig(enabled=False)``.

    Examples
    --------
    >>> from repro.api import Planner                       # doctest: +SKIP
    >>> planner = Planner()                                 # doctest: +SKIP
    >>> result = planner.plan(mset, solver="dp")            # doctest: +SKIP
    >>> batch = planner.plan_batch(requests)                # doctest: +SKIP
    """

    def __init__(
        self,
        *,
        cache_size: int = 256,
        default_solver: str = DEFAULT_SOLVER,
        cache_tiers: Optional[Iterable[CacheTier]] = None,
        table_config: Optional[TableCacheConfig] = None,
    ) -> None:
        if cache_size < 0:
            raise ReproError(f"cache_size must be >= 0, got {cache_size}")
        config = (TableCacheConfig() if table_config is None else table_config).validate()
        self._cache: "OrderedDict[CacheKey, PlanResult]" = OrderedDict()
        self._cache_size = cache_size
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._tier_hits = 0
        self._canonical_hits = 0
        self._tiers: List[CacheTier] = list(cache_tiers or ())
        self._table_config = config
        self._tables: Optional[OptimalTableCache] = config.build_cache()
        self.default_solver = default_solver

    @property
    def table_config(self) -> TableCacheConfig:
        """The resolved table-cache configuration this planner runs with."""
        return self._table_config

    def add_cache_tier(self, tier: CacheTier) -> None:
        """Register an external cache tier (consulted after existing ones)."""
        for required in ("get", "put"):
            if not callable(getattr(tier, required, None)):
                raise ReproError(
                    f"cache tier {type(tier).__name__} lacks a callable "
                    f"{required}() method"
                )
        with self._lock:
            self._tiers.append(tier)

    def remove_cache_tier(self, tier: CacheTier) -> bool:
        """Detach a tier; returns whether it was attached.

        Services that attach their store to a caller-supplied planner use
        this on shutdown so the planner is handed back unmodified.
        """
        with self._lock:
            try:
                self._tiers.remove(tier)
                return True
            except ValueError:
                return False

    @property
    def cache_tiers(self) -> Tuple[CacheTier, ...]:
        """The registered external cache tiers, in lookup order."""
        with self._lock:
            return tuple(self._tiers)

    # ------------------------------------------------------------------
    # request normalization
    # ------------------------------------------------------------------
    def _as_request(
        self, job: Plannable, solver: Optional[str], options: Dict[str, Any]
    ) -> PlanRequest:
        if isinstance(job, PlanRequest):
            if solver is not None or options:
                raise ReproError(
                    "pass solver/options inside the PlanRequest, not alongside it"
                )
            return job
        if isinstance(job, MulticastSet):
            return PlanRequest(
                instance=job, solver=solver or self.default_solver, options=options
            )
        raise ReproError(
            f"cannot plan a {type(job).__name__}; expected PlanRequest or MulticastSet"
        )

    def _request_key(self, request: PlanRequest) -> Tuple[SolverEntry, Dict[str, Any], CacheKey]:
        entry, spec_options = resolve(request.solver)
        merged = {**spec_options, **request.options}
        key = (
            request.instance.canonical_form().key,
            entry.name,
            _options_key(merged),
            request.include_bounds,
        )
        return entry, merged, key

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(
        self,
        job: Plannable,
        solver: Optional[str] = None,
        **options: Any,
    ) -> PlanResult:
        """Plan one multicast and return the full :class:`PlanResult`.

        ``job`` is either a :class:`PlanRequest` or a bare
        :class:`~repro.core.multicast.MulticastSet` (then ``solver`` and
        ``**options`` configure the request inline).
        """
        return self._plan_request(self._as_request(job, solver, options))

    def _plan_request(
        self,
        request: PlanRequest,
        solver_fn: Optional[Callable[[MulticastSet], SolverOutput]] = None,
    ) -> PlanResult:
        """Look up, else solve and store; ``solver_fn`` is a group-solve table."""
        entry, merged, key = self._request_key(request)
        hit = self._lookup(request, key)
        if hit is not None:
            return hit[0]
        result = self._solve(entry, request, merged, key[0], solver_fn=solver_fn)
        self._store(key, result)
        return result

    def _solve(
        self,
        entry: SolverEntry,
        request: PlanRequest,
        merged: Dict[str, Any],
        fingerprint: str,
        solver_fn: Optional[Callable[[MulticastSet], SolverOutput]] = None,
    ) -> PlanResult:
        """One real solve, routed through the optimal-table fast path.

        Table reuse applies when the solver declares ``reusable_table``
        and its options are ones the table honors (``max_states`` and
        ``backend``);
        everything else — including instances too large for the state
        budget — takes the direct path.  Either way the assembled result
        is bit-identical, so cache tiers and the planning service cannot
        observe which path ran.  ``solver_fn`` injects a pre-acquired
        group-solve table.
        """
        if solver_fn is None and self._tables is not None:
            solver_fn = _table_solver_fn(
                self._tables, entry, merged, request.instance
            )
        return _execute(entry, request, merged, fingerprint, solver_fn=solver_fn)

    @property
    def table_cache(self) -> Optional[OptimalTableCache]:
        """The shared optimal-table cache (``None`` when reuse is off)."""
        return self._tables

    def request_key(self, request: PlanRequest) -> CacheKey:
        """The cache key a request resolves to (canonical key computed once).

        Services that look up, route and store per request should compute
        this once and pass it to :meth:`cache_lookup` /
        :meth:`cache_store` — the canonical key is an O(n) normalization +
        hash, cached on the instance afterwards.
        """
        request = self._as_request(request, None, {})
        return self._request_key(request)[2]

    def cache_lookup(
        self, request: PlanRequest, key: Optional[CacheKey] = None
    ) -> Optional[Tuple[PlanResult, str]]:
        """Consult the cache tiers only; never solves.

        Returns ``(result, tier)`` where ``tier`` is ``"memory"`` for an
        LRU hit or the external tier's ``name``, or ``None`` on a full
        miss.  ``key`` (from :meth:`request_key`) skips recomputing the
        canonical key.  This is the fast path the planning service runs
        before dispatching a real solve to a worker shard.
        """
        request = self._as_request(request, None, {})
        if key is None:
            key = self._request_key(request)[2]
        return self._lookup(request, key)

    def cache_store(
        self,
        request: PlanRequest,
        result: PlanResult,
        key: Optional[CacheKey] = None,
    ) -> None:
        """Insert an out-of-band solve into the LRU and every tier.

        The planning service solves on worker shards (outside this
        planner), then publishes the result here so later lookups hit.
        """
        request = self._as_request(request, None, {})
        if key is None:
            key = self._request_key(request)[2]
        self._store(key, result)

    def solve_uncached(self, request: PlanRequest) -> PlanResult:
        """One real solve: no cache lookup, no store — just the engine.

        Runs the request through the same table fast path and result
        assembly as :meth:`plan`, but never consults or populates the
        caches.  The session repair engine
        (:class:`repro.service.sessions.SessionManager`) uses this as its
        rebuild path and publishes the result itself via
        :meth:`cache_store`, keeping lookup, solve and publication as
        separate steps it can interleave with its own bookkeeping.
        """
        request = self._as_request(request, None, {})
        entry, merged, key = self._request_key(request)
        return self._solve(entry, request, merged, key[0])

    def solve_from_table(
        self,
        request: PlanRequest,
        table: OptimalTable,
        canonical_mset: MulticastSet,
    ) -> PlanResult:
        """Materialize a request's plan from a pre-acquired optimal table.

        ``table`` must span ``canonical_mset`` (the request instance's
        canonical form; :class:`~repro.exceptions.SolverError` otherwise).
        The result — schedule, value, bounds, provenance,
        ``states_computed`` — is bit-identical to a direct solve of the
        request, exactly as the planner's own table fast path guarantees;
        this entry point only lets a caller that manages table lifetime
        itself (the session repair engine, which holds tables *pinned*
        across a delta stream) inject the table instead of re-acquiring.
        """
        request = self._as_request(request, None, {})
        entry, merged, key = self._request_key(request)
        return _execute(
            entry,
            request,
            merged,
            key[0],
            solver_fn=_from_table(table, canonical_mset),
        )

    def _materialize_hit(self, cached: PlanResult, request: PlanRequest) -> PlanResult:
        """Adapt a cached result to the requesting instance.

        Byte-equal instances get the fast path (field fix-ups only).
        An *equivalent* instance — same canonical key, different bytes —
        gets the schedule re-bound by index and every instance-derived
        field recomputed from the request's own overheads, exactly as a
        direct solve would, so the hit is bit-identical to solving.  That
        includes an instance equal in value but not in number type
        (``2`` vs ``2.0``): equal under ``==``, different on the wire.
        """
        if _same_instance(cached.schedule.multicast, request.instance):
            # elapsed_s is 0.0 on hits by contract: nothing was solved
            return replace(cached, cache_hit=True, tag=request.tag, elapsed_s=0.0)
        with self._lock:
            self._canonical_hits += 1
        mset = request.instance
        schedule = Schedule(mset, cached.schedule.children)
        value = schedule.reception_completion
        bounds = None
        if request.include_bounds:
            if cached.exact:
                opt_value, opt_is_exact = value, True
            else:
                opt_value, opt_is_exact = certified_lower_bound(mset), False
            bounds = bound_report(mset, value, opt_value, opt_is_exact=opt_is_exact)
        return PlanResult(
            solver=cached.solver,
            schedule=schedule,
            value=value,
            delivery_completion=schedule.delivery_completion,
            exact=cached.exact,
            bounds=bounds,
            elapsed_s=0.0,
            cache_hit=True,
            tag=request.tag,
            provenance=dict(cached.provenance),
        )

    def _lookup(
        self, request: PlanRequest, key: CacheKey
    ) -> Optional[Tuple[PlanResult, str]]:
        if self._cache_size > 0:
            with self._lock:
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
                    self._hits += 1
            if cached is not None:
                return (self._materialize_hit(cached, request), "memory")
        for tier in self.cache_tiers:
            found = tier.get(key)
            if found is None:
                continue
            with self._lock:
                self._tier_hits += 1
                if self._cache_size > 0:
                    # promote into the LRU so the next lookup is in-memory
                    self._cache[key] = found
                    self._cache.move_to_end(key)
                    while len(self._cache) > self._cache_size:
                        self._cache.popitem(last=False)
            return (
                self._materialize_hit(found, request),
                getattr(tier, "name", type(tier).__name__),
            )
        return None

    def _store(self, key: CacheKey, result: PlanResult) -> None:
        with self._lock:
            self._misses += 1
            if self._cache_size > 0:
                self._cache[key] = result
                self._cache.move_to_end(key)
                while len(self._cache) > self._cache_size:
                    self._cache.popitem(last=False)
        for tier in self.cache_tiers:
            tier.put(key, result)

    # ------------------------------------------------------------------
    # batch planning
    # ------------------------------------------------------------------
    def plan_batch(
        self,
        jobs_in: Iterable[Plannable],
        *,
        on_error: str = "raise",
        group_solve: bool = True,
    ) -> BatchResult:
        """Plan many requests serially; results keep submission order.

        Parameters
        ----------
        jobs_in:
            The requests (``PlanRequest`` or bare instances, mixed freely).
        on_error:
            ``"raise"`` propagates the first
            :class:`~repro.exceptions.ReproError`; ``"skip"`` drops failed
            requests from the batch (submission order of the survivors is
            kept).  Non-library exceptions always propagate.
        group_solve:
            Amortize table-reusable solves across the batch: requests are
            bucketed by canonical type system, one optimal table per
            bucket is built (or extended) for the bucket's element-wise
            maximum counts, and every bucketed request is answered by a
            table materialization — bit-identical to per-instance solves.
            ``False`` plans instance by instance (the reference path).
        """
        requests = [self._as_request(j, None, {}) for j in jobs_in]
        if on_error not in ("raise", "skip"):
            raise ReproError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
        start = time.perf_counter()
        prepared = self._group_tables(requests) if group_solve else {}
        results: List[PlanResult] = []
        for index, request in enumerate(requests):
            try:
                results.append(self._plan_request(request, prepared.get(index)))
            except ReproError:
                if on_error == "raise":
                    raise
        return BatchResult(
            results=tuple(results), elapsed_s=time.perf_counter() - start
        )

    def _group_tables(
        self, requests: Sequence[PlanRequest]
    ) -> Dict[int, Callable[[MulticastSet], SolverOutput]]:
        """The group-solve sweep: one table per canonical type-system bucket.

        Returns ``{request index: solver_fn}`` for every request the
        bucket tables can answer.  Requests that resolve to non-reusable
        solvers, carry options the tables cannot honor, or exceed their
        state budgets are left out — the per-request path handles them
        (and raises) exactly as without grouping.
        """
        buckets: Dict[
            Tuple[Tuple[Tuple[float, float], ...], float],
            List[Tuple[int, Any, int]],
        ] = {}
        for index, request in enumerate(requests):
            try:
                entry, merged, key = self._request_key(request)
            except ReproError:
                continue  # the per-request path raises the canonical error
            if not entry.capabilities.reusable_table or (
                set(merged) - _TABLE_SAFE_OPTIONS
            ):
                continue
            if self._cache_size > 0:
                with self._lock:
                    cached = key in self._cache
                if cached:
                    continue  # already answered by the LRU: nothing to build
            canon = request.instance.canonical_form()
            budget = merged.get("max_states", DEFAULT_MAX_STATES)
            if estimated_states(canon.mset) > budget:
                continue  # busts its own budget: direct path raises
            bucket = (canon.mset.type_keys(), canon.mset.latency)
            buckets.setdefault(bucket, []).append((index, canon, budget))
        prepared: Dict[int, Callable[[MulticastSet], SolverOutput]] = {}
        for (type_keys, latency), members in buckets.items():
            grown = tuple(
                max(counts)
                for counts in zip(
                    *(
                        canon.mset.destination_type_counts()
                        for _i, canon, _b in members
                    )
                )
            )
            est = box_states(len(type_keys), grown)
            included = [m for m in members if est <= m[2]]
            if not included:
                continue
            table = self._acquire_bucket_table(
                type_keys, latency, grown, max(m[2] for m in included)
            )
            if table is None:
                continue
            for index, canon, _budget in included:
                prepared[index] = _from_table(table, canon.mset)
        return prepared

    def _acquire_bucket_table(
        self,
        type_keys: Tuple[Tuple[float, float], ...],
        latency: float,
        counts: Tuple[int, ...],
        max_states: int,
    ) -> Optional[OptimalTable]:
        """A table for one group-solve bucket: cached when reuse is on,
        batch-local otherwise (``TableCacheConfig(enabled=False)`` still amortizes
        within the batch when group-solve is explicitly requested)."""
        if self._tables is not None:
            return self._tables.acquire_box(type_keys, latency, counts, max_states)
        if box_states(len(type_keys), counts) > max_states:
            return None  # pragma: no cover - filtered by the bucket pass
        return OptimalTable(
            type_keys, counts, latency, backend=self._table_config.backend
        ).build()

    def prewarm_tables(self, instances: Iterable[MulticastSet]) -> int:
        """Group-build the optimal tables a sweep of instances will need.

        Buckets the instances by canonical type system and sizes each
        bucket's table to its element-wise maximum counts up front, so a
        following sweep (the conformance runner, an experiment grid)
        answers every table-eligible solve by lookup with no growth churn.
        Returns the number of bucket tables built or extended; a no-op
        when table reuse is disabled.
        """
        if self._tables is None:
            return 0
        buckets: Dict[Tuple[Tuple[Tuple[float, float], ...], float], List[Any]] = {}
        for mset in instances:
            canon = mset.canonical_form()
            buckets.setdefault(
                (canon.mset.type_keys(), canon.mset.latency), []
            ).append(canon.mset.destination_type_counts())
        warmed = 0
        for (type_keys, latency), counts_list in buckets.items():
            grown = tuple(max(counts) for counts in zip(*counts_list))
            if self._tables.acquire_box(type_keys, latency, grown) is not None:
                warmed += 1
        return warmed

    # ------------------------------------------------------------------
    # cache management
    # ------------------------------------------------------------------
    def cache_info(self) -> CacheInfo:
        """Hit/miss counters and occupancy of the LRU cache."""
        with self._lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                currsize=len(self._cache),
                maxsize=self._cache_size,
                tier_hits=self._tier_hits,
                canonical_hits=self._canonical_hits,
            )

    def clear_cache(self) -> None:
        """Drop every cached in-memory result and reset the counters.

        External tiers are not cleared — the persistent store outliving the
        process is the point of having it.
        """
        with self._lock:
            self._cache.clear()
            self._hits = 0
            self._misses = 0
            self._tier_hits = 0
            self._canonical_hits = 0


_DEFAULT_PLANNER = Planner()


def plan(job: Plannable, solver: Optional[str] = None, **options: Any) -> PlanResult:
    """Plan with the module-level shared :class:`Planner`."""
    return _DEFAULT_PLANNER.plan(job, solver, **options)


def plan_batch(
    jobs_in: Iterable[Plannable],
    *,
    on_error: str = "raise",
    group_solve: bool = True,
) -> BatchResult:
    """Batch-plan with the module-level shared :class:`Planner`."""
    return _DEFAULT_PLANNER.plan_batch(
        jobs_in, on_error=on_error, group_solve=group_solve
    )
