"""Planner fast path: per-type-system :class:`OptimalTable` reuse.

The Theorem 2 closing note observes that for a network with small ``k``
the whole DP table can be precomputed once, after which *any* multicast
drawn from that network is answered in constant time plus an ``O(n)``
schedule materialization.  Production planning traffic is exactly that
shape — many instances over the same few workstation models — so the
:class:`~repro.api.planner.Planner` keeps an :class:`OptimalTableCache`:
an LRU of built :class:`~repro.core.dp_table.OptimalTable` objects keyed
by ``(type overheads, latency)``.

* The planner hands the cache *canonical* instances
  (:mod:`repro.core.canonical`), so renamed or power-of-two-rescaled
  networks share one table.
* The first instance of a type system pays one table build (the same cost
  as a direct ``solve_dp``); every later instance over the same system —
  of any destination mix the table spans — reuses it.
* An instance needing more destinations of some type than the cached
  table covers triggers an *incremental extension*
  (:meth:`~repro.core.dp_table.OptimalTable.extended`): existing entries
  are copied and only the new states are computed, so growth costs the
  margin, not a rebuild.
* Eviction is by **memory held**, not table count: the cache tracks the
  total DP states of every resident table and evicts least-recently-used
  tables until the ``max_total_states`` budget is met.  A single table
  larger than the whole budget is never admitted (the caller falls back
  to a direct solve).
* Results are **bit-identical** to direct :func:`repro.core.dp.solve_dp`
  answers: the iterative DP core computes the same values and argmin
  choices for every sub-box regardless of table capacity, and the
  reported ``states_computed`` statistic is the *instance's own* table
  size, so provenance stays a deterministic function of the instance (the
  conformance service-parity invariant compares it byte-for-byte).

Benchmarks and experiments that need every plan to be a real solve
construct their planner with ``TableCacheConfig(enabled=False)``.

Snapshot persistence (``repro/table-snapshot-v1``) gives the cache the
same warm-start story the :class:`~repro.service.store.PlanStore` gives
plans: with a ``snapshot_dir`` configured, every build or extension
writes the table through to disk atomically, and a cache miss first
tries to *attach* the network's snapshot — a zero-copy mmap
(:meth:`~repro.core.dp_table.OptimalTable.load_snapshot`) instead of a
rebuild, sharing one resident copy of the pages across every process
attached to the same file (the service's shard workers in particular).
Corrupt or torn snapshot files are rejected fail-closed and discarded,
so the worst outcome of a crash mid-save is one cold rebuild.

All the table-cache knobs live in one :class:`TableCacheConfig` value,
which is also how :class:`~repro.api.planner.Planner` accepts them.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from repro import faults
from repro.core.dp import DEFAULT_MAX_STATES, box_states
from repro.core.dp_vector import DP_BACKENDS
from repro.core.dp_table import OptimalTable
from repro.core.multicast import MulticastSet
from repro.exceptions import ReproError
from repro.io.segments import record_digest

__all__ = [
    "OptimalTableCache",
    "TableCacheConfig",
    "DEFAULT_TABLE_BUDGET",
    "snapshot_filename",
]

#: Cache key: the full (send, receive) type catalogue plus the latency.
TableKey = Tuple[Tuple[Tuple[float, float], ...], float]

#: Default total-states memory budget across every resident table.  DP
#: states are a float plus an argmin tuple each, so this bounds the cache
#: to low hundreds of megabytes in the worst CPython case.
DEFAULT_TABLE_BUDGET = 2_000_000


def snapshot_filename(
    type_keys: Sequence[Tuple[float, float]], latency: Union[int, float]
) -> str:
    """Canonical snapshot file name for one network (content-addressed).

    The digest covers exactly the table cache key — type catalogue plus
    latency — so every process planning over the same network resolves
    the same file, which is what makes the shared mmap attach work.
    """
    digest = record_digest(
        {"overheads": [list(t) for t in type_keys], "latency": latency},
        length=24,
    )
    return f"table-{digest}.snap"


@dataclass(frozen=True)
class TableCacheConfig:
    """Every table-cache knob of a :class:`~repro.api.planner.Planner`.

    One value object instead of a growing pile of planner kwargs:

    - ``enabled``: keep an :class:`OptimalTableCache` at all;
    - ``max_total_states``: the cache-wide resident-state budget;
    - ``max_states``: default per-table state guard rail;
    - ``backend``: DP engine for table builds — ``auto``/``scalar``/
      ``vector``, resolved per box (bit-identical either way);
    - ``snapshot_dir``: directory of ``repro/table-snapshot-v1`` files;
      set, it turns on write-through persistence and zero-copy warm
      attach on miss;
    - ``snapshot_autosave``: write tables through on build/extension
      (disable to manage :meth:`OptimalTableCache.save_snapshots`
      explicitly);
    - ``pin_sessions``: whether membership sessions pin their network's
      table against eviction while a repair stream is live
      (:mod:`repro.service.sessions`).
    """

    enabled: bool = True
    max_total_states: int = DEFAULT_TABLE_BUDGET
    max_states: int = DEFAULT_MAX_STATES
    backend: str = "auto"
    snapshot_dir: Optional[Union[str, Path]] = None
    snapshot_autosave: bool = True
    pin_sessions: bool = True

    def validate(self) -> "TableCacheConfig":
        """Raise :class:`~repro.exceptions.ReproError` on nonsense values."""
        if self.max_total_states < 1:
            raise ReproError(
                f"max_total_states must be >= 1, got {self.max_total_states}"
            )
        if self.max_states < 1:
            raise ReproError(f"max_states must be >= 1, got {self.max_states}")
        if self.backend not in DP_BACKENDS:
            raise ReproError(
                f"unknown table backend {self.backend!r}; "
                f"expected one of {', '.join(DP_BACKENDS)}"
            )
        return self

    def build_cache(self) -> Optional["OptimalTableCache"]:
        """The configured cache, or ``None`` when table reuse is off."""
        self.validate()
        if not self.enabled:
            return None
        return OptimalTableCache(
            max_total_states=self.max_total_states,
            max_states=self.max_states,
            backend=self.backend,
            snapshot_dir=self.snapshot_dir,
            snapshot_autosave=self.snapshot_autosave,
        )

    def with_snapshot_dir(
        self, snapshot_dir: Optional[Union[str, Path]]
    ) -> "TableCacheConfig":
        """A copy pointing at ``snapshot_dir`` (convenience for services)."""
        return replace(self, snapshot_dir=snapshot_dir)


class OptimalTableCache:
    """Thread-safe LRU of built optimal tables, bounded by held DP states.

    Parameters
    ----------
    max_total_states:
        Memory budget: the sum of every resident table's entry count.
        Least-recently-used tables are evicted until the budget holds; a
        single table over the whole budget is refused outright.
    max_states:
        Default per-table state budget (instances may tighten it via the
        ``dp`` solver's ``max_states`` option; the cache never *grows* a
        table past the effective budget and returns ``None`` instead,
        letting the caller fall back to a direct solve).
    backend:
        DP engine handed to table builds (``auto``/``scalar``/``vector``).
    snapshot_dir:
        When set, misses first try a zero-copy mmap attach of the
        network's ``repro/table-snapshot-v1`` file, and (with
        ``snapshot_autosave``) builds and extensions write through to it.
    snapshot_autosave:
        Persist tables write-through on build/extension; off, snapshots
        are only written by an explicit :meth:`save_snapshots`.
    """

    def __init__(
        self,
        max_total_states: int = DEFAULT_TABLE_BUDGET,
        max_states: int = DEFAULT_MAX_STATES,
        *,
        backend: str = "auto",
        snapshot_dir: Optional[Union[str, Path]] = None,
        snapshot_autosave: bool = True,
    ) -> None:
        if max_total_states < 1:
            raise ReproError(
                f"max_total_states must be >= 1, got {max_total_states}"
            )
        if backend not in DP_BACKENDS:
            raise ReproError(
                f"unknown table backend {backend!r}; "
                f"expected one of {', '.join(DP_BACKENDS)}"
            )
        self._tables: "OrderedDict[TableKey, OptimalTable]" = OrderedDict()
        self._pins: Dict[TableKey, int] = {}
        self._max_total_states = max_total_states
        self._max_states = max_states
        self._backend = backend
        self._snapshot_dir = Path(snapshot_dir) if snapshot_dir is not None else None
        self._snapshot_autosave = snapshot_autosave
        self._lock = threading.Lock()
        self._hits = 0
        self._builds = 0
        self._extensions = 0
        self._evictions = 0
        self._attaches = 0
        self._snapshot_saves = 0
        self._snapshot_rejects = 0

    @property
    def hits(self) -> int:
        """Lookups answered by an already-built table."""
        return self._hits

    @property
    def builds(self) -> int:
        """Tables built from scratch (first sight of a type system)."""
        return self._builds

    @property
    def extensions(self) -> int:
        """Incremental capacity growths (only the new states computed)."""
        return self._extensions

    @property
    def evictions(self) -> int:
        """Tables dropped to respect the total-states budget."""
        return self._evictions

    @property
    def attaches(self) -> int:
        """Misses answered by a zero-copy snapshot attach (no rebuild)."""
        return self._attaches

    @property
    def snapshot_dir(self) -> Optional[Path]:
        """The snapshot directory, when persistence is configured."""
        return self._snapshot_dir

    @property
    def states_held(self) -> int:
        """Total DP states across every resident table."""
        with self._lock:
            return sum(t.entries for t in self._tables.values())

    @property
    def max_total_states(self) -> int:
        """The committed memory budget (total resident DP states)."""
        return self._max_total_states

    def __len__(self) -> int:
        return len(self._tables)

    def stats(self) -> Dict[str, int]:
        """Counter snapshot: occupancy, budget, hit/build/extend/evict/pin."""
        with self._lock:
            return {
                "tables": len(self._tables),
                "states_held": sum(t.entries for t in self._tables.values()),
                "max_total_states": self._max_total_states,
                "hits": self._hits,
                "builds": self._builds,
                "extensions": self._extensions,
                "evictions": self._evictions,
                "pins": sum(self._pins.values()),
                "attaches": self._attaches,
                "snapshot_saves": self._snapshot_saves,
                "snapshot_rejects": self._snapshot_rejects,
            }

    def _budget(self, max_states: Optional[int]) -> int:
        per_table = self._max_states if max_states is None else max_states
        return min(per_table, self._max_total_states)

    def acquire(
        self,
        mset: MulticastSet,
        max_states: Optional[int] = None,
        *,
        pin: bool = False,
    ) -> Optional[OptimalTable]:
        """A built table spanning ``mset``, or ``None`` when not worth it.

        ``None`` means the caller should run the solver directly: the
        instance alone busts the state budget (the direct path raises the
        canonical :class:`~repro.exceptions.SolverError`), or growing the
        cached table to span this instance would.  ``pin=True`` (see
        :meth:`acquire_box`) shields the returned table's key from
        eviction until a matching :meth:`release_box`.
        """
        return self.acquire_box(
            mset.type_keys(),
            mset.latency,
            mset.destination_type_counts(),
            max_states,
            pin=pin,
        )

    def acquire_box(
        self,
        type_keys: Sequence[Tuple[float, float]],
        latency: Union[int, float],
        counts: Sequence[int],
        max_states: Optional[int] = None,
        *,
        pin: bool = False,
    ) -> Optional[OptimalTable]:
        """A built table covering the box ``[0, counts]`` for a network.

        This is :meth:`acquire` with the box made explicit — the group
        solver passes each bucket's element-wise maximum so one table (one
        build or extension) answers the whole bucket.

        ``pin=True`` registers a pin on the table's key *under the same
        lock that serves the acquire*, so there is no window in which a
        concurrent acquire can evict the table between handing it out and
        pinning it.  Pins are counted per key — the key survives
        incremental extensions (which replace the entry in place), so a
        session holding a pin keeps its network resident across capacity
        growth.  Pinned keys are skipped by eviction; every pin must be
        balanced by :meth:`release_box`.  No pin is taken when the
        acquire returns ``None``.
        """
        budget = self._budget(max_states)
        counts = tuple(int(c) for c in counts)
        if box_states(len(type_keys), counts) > budget:
            return None
        key: TableKey = (tuple(tuple(t) for t in type_keys), latency)
        with self._lock:
            table = self._tables.get(key)
            attached = False
            if table is None and self._snapshot_dir is not None:
                table = self._attach_snapshot(key, budget)
                attached = table is not None
            if table is not None:
                if not attached:
                    self._tables.move_to_end(key)
                spec = table.spec
                if all(c <= m for c, m in zip(counts, spec.max_counts)):
                    if not attached:
                        self._hits += 1
                        if pin:
                            self._pins[key] = self._pins.get(key, 0) + 1
                        return table
                    self._attaches += 1
                    self._tables[key] = table
                    self._tables.move_to_end(key)
                    if pin:
                        self._pins[key] = self._pins.get(key, 0) + 1
                    self._evict_over_budget()
                    return table
                grown = tuple(max(c, m) for c, m in zip(counts, spec.max_counts))
                if box_states(len(type_keys), grown) > budget:
                    # growth would bust the budget; keep the old table for
                    # the shapes it already serves and solve this directly
                    # (a speculative snapshot attach is simply dropped)
                    return None
                # incremental extension: a *new* table object (readers of
                # the old one stay consistent) computing only the margin
                table = table.extended(grown)
                self._extensions += 1
                if attached:
                    self._attaches += 1
            else:
                table = OptimalTable(
                    key[0], counts, latency, backend=self._backend
                ).build()
                self._builds += 1
            self._save_through(key, table)
            self._tables[key] = table
            self._tables.move_to_end(key)
            if pin:
                self._pins[key] = self._pins.get(key, 0) + 1
            self._evict_over_budget()
            return table

    # ------------------------------------------------------------------
    # snapshot persistence
    # ------------------------------------------------------------------
    def _snapshot_path(self, key: TableKey) -> Path:
        assert self._snapshot_dir is not None
        return self._snapshot_dir / snapshot_filename(key[0], key[1])

    def _attach_snapshot(self, key: TableKey, budget: int) -> Optional[OptimalTable]:
        """Try a zero-copy attach of ``key``'s snapshot file (miss path).

        Fail-closed loading means a truncated or tampered file raises; the
        recovery here mirrors ``repair_torn_tail``: the bad file is
        discarded (counted in ``snapshot_rejects``) so the rebuild's
        write-through replaces it, and planning proceeds cold.
        """
        path = self._snapshot_path(key)
        if not path.is_file():
            return None
        try:
            table = OptimalTable.load_snapshot(path)
        except ReproError:
            self._snapshot_rejects += 1
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - repair is best-effort
                pass
            return None
        if table.spec.types.overheads != key[0] or table.spec.latency != key[1]:
            # content-addressed name and content disagree: treat as corrupt
            self._snapshot_rejects += 1
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - repair is best-effort
                pass
            return None
        if table.entries > budget:
            return None
        return table

    def _save_through(self, key: TableKey, table: OptimalTable) -> None:
        """Write-through persistence after a build or extension."""
        if self._snapshot_dir is None or not self._snapshot_autosave:
            return
        self._snapshot_dir.mkdir(parents=True, exist_ok=True)
        path = self._snapshot_path(key)
        table.save_snapshot(path)
        self._snapshot_saves += 1
        if faults.ACTIVE is not None and faults.ACTIVE.fire("snapshot.corrupt"):
            # chaos: tamper with the just-written snapshot; the digest
            # check in _attach_snapshot must reject it and rebuild cold
            faults.corrupt_file(path)

    def save_snapshots(self, directory: Optional[Union[str, Path]] = None) -> int:
        """Persist every resident table as a snapshot; returns files written.

        Tables that already came from (or were saved to) their snapshot
        file unchanged are skipped.  With no ``directory`` argument the
        cache's configured ``snapshot_dir`` is used.
        """
        target = Path(directory) if directory is not None else self._snapshot_dir
        if target is None:
            raise ReproError(
                "save_snapshots needs a directory (none configured on the cache)"
            )
        target.mkdir(parents=True, exist_ok=True)
        with self._lock:
            items = list(self._tables.items())
        written = 0
        for key, table in items:
            path = target / snapshot_filename(key[0], key[1])
            if table._snapshot_origin == (path, table.entries):
                continue
            table.save_snapshot(path)
            written += 1
        with self._lock:
            self._snapshot_saves += written
        return written

    def release_box(
        self,
        type_keys: Sequence[Tuple[float, float]],
        latency: Union[int, float],
    ) -> None:
        """Drop one pin from a network's table (balance of a pinned acquire).

        Raises :class:`~repro.exceptions.ReproError` on a release without
        a matching pin — an unbalanced release would silently expose some
        other holder's table to eviction mid-repair.
        """
        key: TableKey = (tuple(tuple(t) for t in type_keys), latency)
        with self._lock:
            count = self._pins.get(key, 0)
            if count < 1:
                raise ReproError(
                    "release_box without a matching pinned acquire for "
                    f"latency {latency!r}"
                )
            if count == 1:
                del self._pins[key]
            else:
                self._pins[key] = count - 1
            self._evict_over_budget()

    def _evict_over_budget(self) -> None:
        """Drop unpinned LRU tables until the total-states budget holds.

        Runs under the cache lock.  Pinned keys — in-flight session
        repairs holding a table reference — are never dropped, even over
        budget: a pin is a correctness guarantee, so the budget degrades
        to advisory while everything resident is pinned and is re-enforced
        as pins release.
        """
        held = sum(t.entries for t in self._tables.values())
        for key in list(self._tables):
            if held <= self._max_total_states or len(self._tables) <= 1:
                break
            if self._pins.get(key):
                continue
            dropped = self._tables.pop(key)
            held -= dropped.entries
            self._evictions += 1

    def clear(self) -> None:
        """Drop every cached table (pins included) and reset the counters."""
        with self._lock:
            self._tables.clear()
            self._pins.clear()
            self._hits = 0
            self._builds = 0
            self._extensions = 0
            self._evictions = 0
            self._attaches = 0
            self._snapshot_saves = 0
            self._snapshot_rejects = 0
