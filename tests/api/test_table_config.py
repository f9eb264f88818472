"""``TableCacheConfig``: the consolidated table-cache policy surface.

One frozen dataclass now carries every table knob (budget, per-solve
state cap, backend, snapshot directory, pinning); the old ``Planner``
kwargs survive only as deprecated aliases.  Snapshot persistence rides
the same config: write-through saves on build, fail-closed mmap attach
on miss, warm restarts with zero rebuilds.
"""


import pytest

from repro.api import Planner
from repro.api.tables import (
    DEFAULT_TABLE_BUDGET,
    OptimalTableCache,
    TableCacheConfig,
    snapshot_filename,
)
from repro.core.multicast import MulticastSet
from repro.exceptions import ReproError


def _two_type(fast, slow, latency=1):
    return MulticastSet.from_overheads(
        source=(2, 3),
        destinations=[(1, 1)] * fast + [(2, 3)] * slow,
        latency=latency,
    )


class TestConfigSurface:
    def test_defaults(self):
        config = TableCacheConfig()
        assert config.enabled
        assert config.max_total_states == DEFAULT_TABLE_BUDGET
        assert config.backend == "auto"
        assert config.snapshot_dir is None
        assert config.snapshot_autosave
        assert config.pin_sessions

    def test_validate_rejects_bad_values(self):
        with pytest.raises(ReproError, match="max_total_states"):
            TableCacheConfig(max_total_states=0).validate()
        with pytest.raises(ReproError, match="max_states"):
            TableCacheConfig(max_states=0).validate()
        with pytest.raises(ReproError, match="unknown table backend"):
            TableCacheConfig(backend="bogus").validate()

    def test_build_cache(self, tmp_path):
        assert TableCacheConfig(enabled=False).build_cache() is None
        cache = TableCacheConfig(
            max_total_states=1234, snapshot_dir=tmp_path
        ).build_cache()
        assert isinstance(cache, OptimalTableCache)
        assert cache.stats()["max_total_states"] == 1234
        assert cache.snapshot_dir == tmp_path

    def test_with_snapshot_dir(self, tmp_path):
        config = TableCacheConfig().with_snapshot_dir(tmp_path)
        assert config.snapshot_dir == tmp_path
        assert TableCacheConfig().snapshot_dir is None  # frozen: no mutation


class TestPlannerIntegration:
    def test_planner_accepts_config(self):
        planner = Planner(table_config=TableCacheConfig(max_total_states=777))
        assert planner.table_config.max_total_states == 777
        assert planner.table_cache.stats()["max_total_states"] == 777

    def test_disabled_config_means_no_cache(self):
        planner = Planner(table_config=TableCacheConfig(enabled=False))
        assert planner.table_cache is None

    def test_backend_flows_into_builds(self):
        planner = Planner(table_config=TableCacheConfig(backend="scalar"))
        planner.plan(_two_type(3, 2), "dp")
        assert planner.table_cache.stats()["builds"] == 1


class TestSnapshotPersistence:
    def test_write_through_on_build(self, tmp_path):
        planner = Planner(
            cache_size=0, table_config=TableCacheConfig(snapshot_dir=tmp_path)
        )
        planner.plan(_two_type(4, 3), "dp")
        files = list(tmp_path.glob("table-*.snap"))
        assert len(files) == 1
        stats = planner.table_cache.stats()
        assert stats["snapshot_saves"] == 1
        assert stats["attaches"] == 0

    def test_warm_restart_attaches_instead_of_building(self, tmp_path):
        config = TableCacheConfig(snapshot_dir=tmp_path)
        first = Planner(cache_size=0, table_config=config)
        before = first.plan(_two_type(4, 3), "dp")
        second = Planner(cache_size=0, table_config=config)
        after = second.plan(_two_type(4, 3), "dp")
        stats = second.table_cache.stats()
        assert stats["attaches"] == 1
        assert stats["builds"] == 0
        assert after.value == before.value
        assert after.schedule == before.schedule

    def test_growth_past_snapshot_saves_through_again(self, tmp_path):
        config = TableCacheConfig(snapshot_dir=tmp_path)
        planner = Planner(cache_size=0, table_config=config)
        planner.plan(_two_type(3, 2), "dp")
        planner.plan(_two_type(6, 5), "dp")  # extends the attached table
        stats = planner.table_cache.stats()
        assert stats["snapshot_saves"] == 2
        warm = Planner(cache_size=0, table_config=config)
        warm.plan(_two_type(6, 5), "dp")
        assert warm.table_cache.stats()["builds"] == 0

    def test_attached_snapshot_grows_without_numpy(self, tmp_path, monkeypatch):
        """A warm attach grown past its box answers exactly as a scalar
        planner with no table cache: value, schedule, ``states_computed``."""
        import repro.core.dp_vector as dp_vector

        monkeypatch.setattr(dp_vector, "_numpy", lambda: None)
        config = TableCacheConfig(snapshot_dir=tmp_path)
        Planner(cache_size=0, table_config=config).plan(_two_type(3, 2), "dp")
        warm = Planner(cache_size=0, table_config=config)
        cold = Planner(cache_size=0, table_config=TableCacheConfig(enabled=False))
        for mset in (_two_type(3, 2), _two_type(6, 5), _two_type(2, 7)):
            ours = warm.plan(mset, "dp")
            theirs = cold.plan(mset, "dp(backend=scalar)")
            assert ours.value == theirs.value
            assert ours.schedule == theirs.schedule
            assert (
                ours.provenance["states_computed"]
                == theirs.provenance["states_computed"]
            )
        stats = warm.table_cache.stats()
        assert (stats["attaches"], stats["builds"]) == (1, 0)
        assert stats["extensions"] == 2

    def test_corrupt_snapshot_is_rejected_and_removed(self, tmp_path):
        config = TableCacheConfig(snapshot_dir=tmp_path)
        Planner(cache_size=0, table_config=config).plan(_two_type(4, 3), "dp")
        (snap,) = tmp_path.glob("table-*.snap")
        data = bytearray(snap.read_bytes())
        data[-1] ^= 0xFF
        snap.write_bytes(bytes(data))
        planner = Planner(cache_size=0, table_config=config)
        result = planner.plan(_two_type(4, 3), "dp")
        stats = planner.table_cache.stats()
        assert stats["snapshot_rejects"] == 1
        assert stats["builds"] == 1  # fell back to a clean rebuild
        # the corrupt file was unlinked, then write-through replaced it
        # with a clean one at the same content-addressed path
        from repro.core.dp_table import OptimalTable

        OptimalTable.load_snapshot(snap)
        fresh = Planner(cache_size=0, table_config=TableCacheConfig(enabled=False)).plan(
            _two_type(4, 3), "dp"
        )
        assert result.value == fresh.value

    def test_autosave_off_keeps_directory_clean(self, tmp_path):
        config = TableCacheConfig(snapshot_dir=tmp_path, snapshot_autosave=False)
        planner = Planner(cache_size=0, table_config=config)
        planner.plan(_two_type(4, 3), "dp")
        assert not list(tmp_path.glob("*.snap"))
        # explicit save still works
        assert planner.table_cache.save_snapshots() == 1
        assert len(list(tmp_path.glob("table-*.snap"))) == 1

    def test_save_snapshots_needs_a_directory(self):
        cache = OptimalTableCache()
        with pytest.raises(ReproError, match="directory"):
            cache.save_snapshots()

    def test_snapshot_filename_is_content_addressed(self):
        a = snapshot_filename(((1, 1), (2, 3)), 1.0)
        b = snapshot_filename(((1, 1), (2, 3)), 1.0)
        c = snapshot_filename(((1, 1), (2, 3)), 2.0)
        assert a == b
        assert a != c
        assert a.startswith("table-") and a.endswith(".snap")
