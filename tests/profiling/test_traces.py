"""Tests for trace records and trace-set accessors."""

from __future__ import annotations

import hashlib
import json
import zipfile
from unittest import mock

import numpy as np
import pytest

from repro.profiling.traces import TraceRecord, TraceSet


def rec(seq, frame, tasks, scenario=3, roi=100.0):
    return TraceRecord(
        seq=seq,
        frame=frame,
        scenario_id=scenario,
        task_ms=tasks,
        roi_kpixels=roi,
        latency_ms=sum(tasks.values()),
        eviction_bytes=0,
        external_bytes=1000,
    )


@pytest.fixture()
def ts():
    t = TraceSet(pixel_scale=16.0, platform="test")
    # seq 0: A runs on frames 0,1,2; B on 0 and 2 (gap on 1).
    t.append(rec(0, 0, {"A": 1.0, "B": 5.0}, scenario=1))
    t.append(rec(0, 1, {"A": 2.0}, scenario=2))
    t.append(rec(0, 2, {"A": 3.0, "B": 6.0}, scenario=1))
    # seq 1: A runs on both frames.
    t.append(rec(1, 0, {"A": 10.0}, scenario=3))
    t.append(rec(1, 1, {"A": 11.0}, scenario=3))
    return t


class TestAccessors:
    def test_task_series_respects_gaps_and_sequences(self, ts):
        series = ts.task_series("A")
        assert [list(s) for s in series] == [[1.0, 2.0, 3.0], [10.0, 11.0]]
        series_b = ts.task_series("B")
        # Gap on frame 1 splits B into two single-sample runs.
        assert [list(s) for s in series_b] == [[5.0], [6.0]]

    def test_task_values_concatenated(self, ts):
        np.testing.assert_array_equal(
            ts.task_values("A"), [1.0, 2.0, 3.0, 10.0, 11.0]
        )
        assert ts.task_values("MISSING").size == 0

    def test_tasks_listed(self, ts):
        assert set(ts.tasks()) == {"A", "B"}

    def test_scenario_chains(self, ts):
        chains = ts.scenario_chains()
        assert [list(c) for c in chains] == [[1, 2, 1], [3, 3]]

    def test_roi_series_pairs(self, ts):
        pairs = ts.roi_series("B")
        assert len(pairs) == 2
        for roi_arr, ms_arr in pairs:
            assert roi_arr.shape == ms_arr.shape

    def test_latencies(self, ts):
        assert ts.latencies().shape == (5,)

    def test_sequences(self, ts):
        assert ts.sequences() == [0, 1]


class TestPersistence:
    def test_save_load_round_trip(self, ts, tmp_path):
        path = tmp_path / "traces.json"
        ts.meta["note"] = "hello"
        ts.meta["unserializable"] = object()
        ts.save(path)
        loaded = TraceSet.load(path)
        assert len(loaded) == len(ts)
        assert loaded.pixel_scale == 16.0
        assert loaded.platform == "test"
        assert loaded.meta["note"] == "hello"
        assert "unserializable" not in loaded.meta
        assert loaded.records[0] == ts.records[0]

    def test_save_writes_npz_sidecar(self, ts, tmp_path):
        path = tmp_path / "traces.json"
        ts.save(path)
        sidecar = tmp_path / "traces.npz"
        with zipfile.ZipFile(sidecar) as z:
            assert {i.compress_type for i in z.infolist()} == {zipfile.ZIP_STORED}
        with np.load(sidecar) as data:
            assert sorted(data.files) == ["header", "rows", "task_ms"]
            header = json.loads(str(data["header"][()]))
            assert header["format"] == "repro-traces-npz/2"
            assert header["tasks"] == ts.tasks()
            assert data["task_ms"].shape == (len(ts.tasks()), len(ts))

    def test_npz_and_json_load_paths_are_equal(self, ts, tmp_path):
        path = tmp_path / "traces.json"
        ts.meta["note"] = "hello"
        ts.save(path)
        fast = TraceSet.load(path)  # sidecar fingerprint matches
        (tmp_path / "traces.npz").unlink()
        slow = TraceSet.load(path)  # JSON-only fallback
        assert fast.records == slow.records == ts.records
        assert fast.pixel_scale == slow.pixel_scale == ts.pixel_scale
        assert fast.platform == slow.platform == ts.platform
        assert fast.meta == slow.meta == {"note": "hello"}
        assert fast == slow

    def test_stale_sidecar_falls_back_to_json(self, ts, tmp_path):
        path = tmp_path / "traces.json"
        ts.save(path)
        # Rewrite the JSON without refreshing the sidecar: the stale
        # sidecar's fingerprint no longer matches and must be ignored.
        other = TraceSet(pixel_scale=2.0, platform="other")
        other.append(rec(7, 0, {"Z": 4.0}, scenario=5))
        payload_path = tmp_path / "other.json"
        other.save(payload_path)
        path.write_text(payload_path.read_text())
        loaded = TraceSet.load(path)
        assert loaded.platform == "other"
        assert loaded.records == other.records

    def test_corrupt_sidecar_falls_back_to_json(self, ts, tmp_path):
        path = tmp_path / "traces.json"
        ts.save(path)
        (tmp_path / "traces.npz").write_bytes(b"not a zipfile")
        loaded = TraceSet.load(path)
        assert loaded.records == ts.records

    def test_load_takes_the_sidecar_path(self, ts, tmp_path):
        """A consistent sidecar never reaches the JSON record parse."""
        path = tmp_path / "traces.json"
        ts.save(path)
        with mock.patch.object(
            TraceSet, "append", side_effect=AssertionError("JSON fallback taken")
        ):
            loaded = TraceSet.load(path)
        assert loaded.records == ts.records

    def test_v1_sidecar_is_ignored(self, ts, tmp_path):
        """A ``repro-traces-npz/1`` sidecar loads through the JSON path."""
        path = tmp_path / "traces.json"
        ts.meta["note"] = "hello"
        ts.save(path)
        (tmp_path / "traces.npz").unlink()
        slow = TraceSet.load(path)  # JSON-only
        tasks = ts.tasks()
        header = {
            "format": "repro-traces-npz/1",
            "fingerprint": hashlib.sha256(path.read_bytes()).hexdigest(),
            "pixel_scale": ts.pixel_scale,
            "platform": ts.platform,
            "workload": ts.workload,
            "registry_version": ts.registry_version,
            "meta": {"note": "hello"},
            "tasks": tasks,
        }
        columns = {
            f"task_{i}": np.array([r.task_ms.get(t, np.nan) for r in ts.records])
            for i, t in enumerate(tasks)
        }
        np.savez_compressed(
            tmp_path / "traces.npz",
            header=np.asarray(json.dumps(header, sort_keys=True)),
            rows=ts._rows[: len(ts)].copy(),
            **columns,
        )
        with mock.patch.object(
            TraceSet, "_from_arrays", side_effect=AssertionError("v1 sidecar read")
        ):
            loaded = TraceSet.load(path)
        assert loaded.records == slow.records == ts.records
        assert loaded == slow

    def test_misshapen_task_matrix_falls_back_to_json(self, ts, tmp_path):
        path = tmp_path / "traces.json"
        ts.save(path)
        sidecar = tmp_path / "traces.npz"
        with np.load(sidecar) as data:
            arrays = {k: data[k] for k in data.files}
        # One row for two tasks: it would broadcast to both unchecked.
        arrays["task_ms"] = arrays["task_ms"][:1]
        np.savez(sidecar, **arrays)
        loaded = TraceSet.load(path)
        assert loaded.records == ts.records

    def test_roundtrip_preserves_accessors(self, ts, tmp_path):
        path = tmp_path / "traces.json"
        ts.save(path)
        loaded = TraceSet.load(path)
        assert [list(s) for s in loaded.task_series("A")] == [
            list(s) for s in ts.task_series("A")
        ]
        assert [list(c) for c in loaded.scenario_chains()] == [
            list(c) for c in ts.scenario_chains()
        ]
        np.testing.assert_array_equal(loaded.latencies(), ts.latencies())
        assert loaded.tasks() == ts.tasks()
        assert loaded.sequences() == ts.sequences()


class TestColumnarStorage:
    def test_add_frame_matches_append(self, ts):
        direct = TraceSet(pixel_scale=16.0, platform="test")
        for r in ts.records:
            direct.add_frame(
                seq=r.seq,
                frame=r.frame,
                scenario_id=r.scenario_id,
                task_ms=r.task_ms,
                roi_kpixels=r.roi_kpixels,
                latency_ms=r.latency_ms,
                eviction_bytes=r.eviction_bytes,
                external_bytes=r.external_bytes,
            )
        assert direct.records == ts.records
        assert direct == ts

    def test_extend_matches_record_appends(self, ts):
        shard = TraceSet(pixel_scale=16.0, platform="test")
        shard.append(rec(2, 0, {"C": 9.0, "A": 1.5}, scenario=4))
        shard.append(rec(2, 1, {"A": 2.5}, scenario=4))

        bulk = TraceSet(pixel_scale=16.0, platform="test")
        bulk.extend(ts)
        bulk.extend(shard)

        slow = TraceSet(pixel_scale=16.0, platform="test")
        for r in ts.records + shard.records:
            slow.append(r)
        assert bulk.records == slow.records
        assert bulk.tasks() == slow.tasks() == ["A", "B", "C"]

    def test_growth_past_initial_capacity(self):
        t = TraceSet()
        for i in range(300):
            t.add_frame(
                seq=i // 100,
                frame=i % 100,
                scenario_id=i % 8,
                task_ms={"A": float(i)},
                roi_kpixels=1.0,
                latency_ms=float(i),
                eviction_bytes=0,
                external_bytes=i,
            )
        assert len(t) == 300
        assert t.records[299].task_ms == {"A": 299.0}
        np.testing.assert_array_equal(
            t.task_values("A"), np.arange(300, dtype=np.float64)
        )

    def test_records_cache_invalidated_by_writes(self, ts):
        first = ts.records
        assert ts.records is first  # cached between reads
        ts.append(rec(9, 0, {"A": 1.0}))
        assert len(ts.records) == len(first) + 1

    def test_constructor_accepts_records(self, ts):
        rebuilt = TraceSet(
            ts.records, pixel_scale=ts.pixel_scale, platform=ts.platform
        )
        assert rebuilt == ts
