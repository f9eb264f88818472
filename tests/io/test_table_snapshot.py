"""Digest-stamped mmap table snapshots: round trips and fail-closed loads.

The ``repro/table-snapshot-v1`` container must load *zero-copy* (the
table planes alias the mmap) and must reject anything short of a fully
intact file: truncation, bit flips, header tampering and torn writes all
raise instead of warm-starting a service from corrupt tables.  Both DP
engines must snapshot to identical bytes — the snapshot is part of the
bit-identity contract, not an engine detail — and without numpy a
snapshot still attaches (``memoryview`` planes) and grows through the
scalar engine.
"""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro.core.dp_vector as dp_vector
from repro.core.dp import _DPCore
from repro.core.dp_table import TABLE_SNAPSHOT_FORMAT, OptimalTable
from repro.core.dp_vector import _VectorCore, numpy_available
from repro.exceptions import ReproError
from repro.io.segments import read_snapshot, write_snapshot

TYPES = [(1, 1), (3, 5)]
COUNTS = (5, 4)


def _built(backend="auto"):
    return OptimalTable(TYPES, COUNTS, latency=1, backend=backend).build()


def _instance(counts):
    from repro.workloads.clusters import limited_type_cluster
    from repro.workloads.generator import multicast_from_cluster

    nodes = limited_type_cluster(TYPES, list(counts))
    return multicast_from_cluster(nodes, latency=1, source="slowest")


# ----------------------------------------------------------------------
# the generic container
# ----------------------------------------------------------------------
class TestSnapshotContainer:
    def test_round_trip_sections(self, tmp_path):
        path = tmp_path / "x.snap"
        write_snapshot(
            path,
            {"format": "repro/test-v1", "meta": 7},
            [("a", b"hello"), ("b", b""), ("c", bytes(range(16)))],
        )
        snap = read_snapshot(path, expected_format="repro/test-v1")
        assert snap.section_names() == ["a", "b", "c"]
        assert bytes(snap.view("a")) == b"hello"
        assert bytes(snap.view("b")) == b""
        assert bytes(snap.view("c")) == bytes(range(16))
        assert snap.header["meta"] == 7
        with pytest.raises(ReproError, match="no section"):
            snap.view("missing")
        snap.close()

    def test_sections_are_8_byte_aligned(self, tmp_path):
        path = tmp_path / "x.snap"
        write_snapshot(
            path, {"format": "f"}, [("a", b"xyz"), ("b", b"q" * 9), ("c", b"!")]
        )
        snap = read_snapshot(path)
        for entry in snap.header["sections"]:
            assert entry["offset"] % 8 == 0
        snap.close()

    def test_missing_format_key_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="'format' key"):
            write_snapshot(tmp_path / "x.snap", {}, [("a", b"x")])

    def test_duplicate_section_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="duplicate"):
            write_snapshot(
                tmp_path / "x.snap", {"format": "f"}, [("a", b"x"), ("a", b"y")]
            )

    def test_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="does not exist"):
            read_snapshot(tmp_path / "nope.snap")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "x.snap"
        path.write_bytes(b"")
        with pytest.raises(ReproError, match="empty"):
            read_snapshot(path)

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "x.snap"
        write_snapshot(path, {"format": "f"}, [("a", b"x")])
        with pytest.raises(ReproError, match="has format"):
            read_snapshot(path, expected_format="g")

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "x.snap"
        write_snapshot(path, {"format": "f"}, [("a", b"x" * 64)])
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ReproError, match="truncated or padded"):
            read_snapshot(path)

    def test_padded_file_rejected(self, tmp_path):
        path = tmp_path / "x.snap"
        write_snapshot(path, {"format": "f"}, [("a", b"x" * 64)])
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(ReproError, match="truncated or padded"):
            read_snapshot(path)

    def test_body_bit_flip_rejected(self, tmp_path):
        path = tmp_path / "x.snap"
        write_snapshot(path, {"format": "f"}, [("a", b"x" * 64)])
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x40
        path.write_bytes(bytes(data))
        with pytest.raises(ReproError, match="sha256 mismatch"):
            read_snapshot(path)

    def test_header_tamper_rejected(self, tmp_path):
        path = tmp_path / "x.snap"
        write_snapshot(path, {"format": "f", "n": 1}, [("a", b"x" * 8)])
        data = path.read_bytes()
        path.write_bytes(data.replace(b'"n": 1', b'"n": 2'))
        with pytest.raises(ReproError, match="digest mismatch"):
            read_snapshot(path)

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "x.snap"
        path.write_bytes(b"\x00\x01\x02 garbage\nmore")
        with pytest.raises(ReproError, match="header"):
            read_snapshot(path)


# ----------------------------------------------------------------------
# OptimalTable snapshots
# ----------------------------------------------------------------------
class TestTableSnapshot:
    def test_round_trip_answers_identical(self, tmp_path):
        path = tmp_path / "t.snap"
        built = _built()
        built.save_snapshot(path)
        loaded = OptimalTable.load_snapshot(path)
        assert loaded.entries == built.entries
        for s in range(len(TYPES)):
            for i in range(COUNTS[0] + 1):
                for j in range(COUNTS[1] + 1):
                    assert loaded.completion(s, (i, j)) == built.completion(
                        s, (i, j)
                    )
        mset = _instance(COUNTS)
        assert loaded.schedule_for(mset) == built.schedule_for(mset)

    def test_format_stamp(self, tmp_path):
        path = tmp_path / "t.snap"
        _built().save_snapshot(path)
        snap = read_snapshot(path)
        try:
            assert snap.header["format"] == TABLE_SNAPSHOT_FORMAT
            assert snap.header["endian"] == "little"
        finally:
            snap.close()

    def test_scalar_and_vector_builds_snapshot_identically(self, tmp_path):
        a, b = tmp_path / "scalar.snap", tmp_path / "vector.snap"
        _built(backend="scalar").save_snapshot(a)
        _built(backend="vector").save_snapshot(b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.skipif(not numpy_available(), reason="needs the numpy engine")
    def test_scalar_and_numpy_engines_snapshot_identically(self, tmp_path):
        """Scalar list storage and numpy planes write the same bytes, also
        after an incremental grow of the numpy table."""
        bigger = (COUNTS[0] + 2, COUNTS[1] + 1)
        pairs = [
            (_built(backend="scalar"), _built(backend="vector")),
            (
                OptimalTable(TYPES, bigger, latency=1, backend="scalar").build(),
                _built(backend="vector").extended(bigger),
            ),
        ]
        for i, (scalar, vector) in enumerate(pairs):
            assert type(scalar._core) is _DPCore
            assert type(vector._core) is _VectorCore
            a, b = tmp_path / f"scalar-{i}.snap", tmp_path / f"numpy-{i}.snap"
            scalar.save_snapshot(a)
            vector.save_snapshot(b)
            assert a.read_bytes() == b.read_bytes()

    def test_load_without_numpy(self, tmp_path, monkeypatch):
        path = tmp_path / "t.snap"
        built = _built()
        built.save_snapshot(path)
        monkeypatch.setattr(dp_vector, "_numpy", lambda: None)
        loaded = OptimalTable.load_snapshot(path)
        assert isinstance(loaded._core._tau[0], memoryview)
        assert loaded.completion(0, COUNTS) == built.completion(0, COUNTS)
        mset = _instance(COUNTS)
        assert loaded.schedule_for(mset) == built.schedule_for(mset)

    def test_attached_snapshot_grows_without_numpy(self, tmp_path, monkeypatch):
        """Past its box, a memoryview-attached table converts to the
        scalar core and answers exactly as a fresh scalar build."""
        path = tmp_path / "t.snap"
        _built().save_snapshot(path)
        monkeypatch.setattr(dp_vector, "_numpy", lambda: None)
        loaded = OptimalTable.load_snapshot(path)
        bigger = (COUNTS[0] + 3, COUNTS[1] + 2)
        grown = loaded.extended(bigger)
        fresh = OptimalTable(TYPES, bigger, latency=1, backend="scalar").build()
        assert type(grown._core) is _DPCore
        assert grown.entries == fresh.entries
        for s in range(len(TYPES)):
            for i in range(bigger[0] + 1):
                for j in range(bigger[1] + 1):
                    assert grown.completion(s, (i, j)) == fresh.completion(s, (i, j))
        for counts in (COUNTS, bigger, (bigger[0], 1)):
            mset = _instance(counts)
            assert grown.schedule_for(mset) == fresh.schedule_for(mset)
        # the attached table itself is left untouched
        assert loaded.spec.max_counts == COUNTS

    def test_loaded_table_extends(self, tmp_path):
        """Growth off a read-only mmap core matches a fresh build."""
        path = tmp_path / "t.snap"
        _built().save_snapshot(path)
        loaded = OptimalTable.load_snapshot(path)
        bigger = (COUNTS[0] + 2, COUNTS[1] + 3)
        grown = loaded.extended(bigger)
        fresh = OptimalTable(TYPES, bigger, latency=1, backend="scalar").build()
        for s in range(len(TYPES)):
            for i in range(bigger[0] + 1):
                for j in range(bigger[1] + 1):
                    assert grown.completion(s, (i, j)) == fresh.completion(
                        s, (i, j)
                    )

    def test_truncated_table_snapshot_rejected(self, tmp_path):
        path = tmp_path / "t.snap"
        _built().save_snapshot(path)
        data = path.read_bytes()
        for cut in (len(data) // 2, len(data) - 1):
            path.write_bytes(data[:cut])
            with pytest.raises(ReproError):
                OptimalTable.load_snapshot(path)

    def test_metadata_mismatch_rejected(self, tmp_path):
        path = tmp_path / "t.snap"
        write_snapshot(path, {"format": TABLE_SNAPSHOT_FORMAT}, [("a", b"x")])
        with pytest.raises(ReproError, match="table metadata"):
            OptimalTable.load_snapshot(path)


# ----------------------------------------------------------------------
# torn writes: kill -9 mid-save never publishes a corrupt snapshot
# ----------------------------------------------------------------------
WRITER = textwrap.dedent(
    """
    import sys
    from repro.core.dp_table import OptimalTable

    directory = sys.argv[1]
    table = OptimalTable([(1, 1), (3, 5)], (12, 12), latency=1).build()
    print("ready", flush=True)
    i = 0
    while True:
        table.save_snapshot(f"{directory}/table-{i % 4}.snap")
        i += 1
    """
)


def test_kill9_during_save_leaves_only_loadable_snapshots(tmp_path):
    """SIGKILL a process that is saving in a loop; survivors must load.

    The writer publishes via write-to-temp + ``os.replace``, so whatever
    the kill interrupts, every ``*.snap`` present afterwards is either
    absent or complete — a load must never see a half-written table.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-c", WRITER, str(tmp_path)],
        stdout=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout is not None
        assert proc.stdout.readline().strip() == b"ready"
        # let a few saves land, then kill mid-flight
        import time

        time.sleep(0.25)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()
            proc.wait()
    snaps = sorted(tmp_path.glob("*.snap"))
    assert snaps, "the writer never published a snapshot"
    reference = OptimalTable([(1, 1), (3, 5)], (12, 12), latency=1).build()
    for snap_path in snaps:
        loaded = OptimalTable.load_snapshot(snap_path)
        assert loaded.completion(0, (12, 12)) == reference.completion(0, (12, 12))
    # torn temp files may remain, but they are never *.snap
    for leftover in tmp_path.iterdir():
        if leftover.suffix != ".snap":
            assert ".tmp-" in leftover.name
