"""Table policy flows into the service: shards, snapshots, pinning.

A :class:`~repro.api.tables.TableCacheConfig` handed to the service (or
router) must govern the workers' table caches: thread/inline shards
share one router-local cache, restarts warm-attach the snapshot
directory instead of rebuilding, process shards are initialized with the
same config, and ``pin_sessions=False`` opts sessions out of pinning.
"""

import pytest

from repro.api import Planner, PlanRequest
from repro.api.tables import TableCacheConfig
from repro.core.multicast import MulticastSet
from repro.service.client import InProcessClient
from repro.service.server import PlanningService
from repro.service.sessions import SessionManager
from repro.service.shard import ShardRouter


def _mset(fast=4, slow=3):
    return MulticastSet.from_overheads(
        source=(2, 3),
        destinations=[(1, 1)] * fast + [(2, 3)] * slow,
        latency=1,
    )


class TestRouterTableConfig:
    def test_thread_router_uses_local_cache(self, tmp_path):
        router = ShardRouter(
            2, mode="thread", table_config=TableCacheConfig(snapshot_dir=tmp_path)
        )
        try:
            result = router.solve_sync(PlanRequest(instance=_mset(), solver="dp"))
            stats = router.tables.stats()
            assert stats["builds"] == 1
            assert stats["snapshot_saves"] == 1
            assert list(tmp_path.glob("table-*.snap"))
        finally:
            router.shutdown()
        # a restarted router attaches the snapshot instead of rebuilding
        fresh = ShardRouter(
            2, mode="thread", table_config=TableCacheConfig(snapshot_dir=tmp_path)
        )
        try:
            again = fresh.solve_sync(PlanRequest(instance=_mset(), solver="dp"))
            stats = fresh.tables.stats()
            assert stats["attaches"] == 1
            assert stats["builds"] == 0
            assert again.value == result.value
            assert again.schedule == result.schedule
        finally:
            fresh.shutdown()

    def test_no_config_keeps_module_cache_behavior(self):
        router = ShardRouter(1, mode="inline")
        assert router.table_config is None
        assert router.tables is None

    def test_invalid_config_rejected_at_construction(self):
        from repro.exceptions import ReproError

        with pytest.raises(ReproError, match="max_total_states"):
            ShardRouter(1, table_config=TableCacheConfig(max_total_states=0))

    def test_process_mode_workers_apply_the_config(self, tmp_path):
        config = TableCacheConfig(snapshot_dir=tmp_path)
        router = ShardRouter(1, mode="process", table_config=config)
        try:
            result = router.solve_sync(PlanRequest(instance=_mset(), solver="dp"))
            assert result.value > 0
            # the worker process wrote through to the shared directory
            assert list(tmp_path.glob("table-*.snap"))
        finally:
            router.shutdown()


class TestServiceTableConfig:
    def test_service_builds_planner_with_config(self, tmp_path):
        config = TableCacheConfig(snapshot_dir=tmp_path)
        with PlanningService(worker_mode="thread", table_config=config) as service:
            assert service.planner.table_config.snapshot_dir == tmp_path
            served = InProcessClient(service).plan(_mset(), solver="dp")
            assert served.tier == "solve"
        assert list(tmp_path.glob("table-*.snap"))
        # restart: the shard worker warm-attaches
        with PlanningService(worker_mode="thread", table_config=config) as warm:
            again = InProcessClient(warm).plan(_mset(), solver="dp")
            stats = warm.router.tables.stats()
            assert stats["attaches"] == 1
            assert stats["builds"] == 0
            assert again.result.value == served.result.value

    def test_supplied_planner_keeps_its_own_policy(self, tmp_path):
        planner = Planner()
        service = PlanningService(
            planner=planner,
            table_config=TableCacheConfig(snapshot_dir=tmp_path),
        )
        assert service.planner is planner
        assert planner.table_config.snapshot_dir is None
        assert service.router.table_config.snapshot_dir == tmp_path


class TestSessionPinning:
    def test_pin_sessions_false_never_pins(self):
        planner = Planner(table_config=TableCacheConfig(pin_sessions=False))
        manager = SessionManager(planner)
        opened = manager.open(PlanRequest(instance=_mset(), solver="dp"))
        try:
            session = manager.session(opened.session_id)
            assert session.pinned_box is None
            assert planner.table_cache.stats()["pins"] == 0
            # repair still answers from the (unpinned) resident table
            assert opened.repaired
        finally:
            manager.close(opened.session_id)

    def test_default_config_still_pins(self):
        planner = Planner()
        manager = SessionManager(planner)
        opened = manager.open(PlanRequest(instance=_mset(), solver="dp"))
        try:
            session = manager.session(opened.session_id)
            assert session.pinned_box is not None
            assert planner.table_cache.stats()["pins"] == 1
        finally:
            manager.close(opened.session_id)
