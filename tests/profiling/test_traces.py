"""Tests for trace records and trace-set accessors."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.profiling.traces import TRACE_DTYPE, TraceRecord, TraceSet


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
        """The raw sidecar lives at the ``.npz`` name: header line, rows, matrix."""
        path = tmp_path / "traces.json"
        ts.save(path)
        blob = (tmp_path / "traces.npz").read_bytes()
        line, body = blob.split(b"\n", 1)
        header = json.loads(line)
        assert header["format"] == "repro-traces-raw/3"
        assert header["fingerprint"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert header["tasks"] == ts.tasks()
        assert header["n"] == len(ts)
        assert header["descr"] == [list(f) for f in TRACE_DTYPE.descr]
        n_rows = len(ts) * TRACE_DTYPE.itemsize
        assert len(body) == n_rows + 8 * len(ts.tasks()) * len(ts)
        rows = np.frombuffer(body[:n_rows], TRACE_DTYPE)
        np.testing.assert_array_equal(rows, ts._rows[: len(ts)])
        matrix = np.frombuffer(body[n_rows:]).reshape(len(ts.tasks()), len(ts))
        np.testing.assert_array_equal(matrix[1], [5.0, np.nan, 6.0, np.nan, np.nan])

    def test_save_leaves_no_temporary_files(self, ts, tmp_path):
        ts.save(tmp_path / "traces.json")
        ts.save(tmp_path / "traces.json")  # overwrite in place
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "traces.json",
            "traces.npz",
        ]

    @pytest.mark.parametrize("fail_at", [".json", ".npz"])
    def test_interrupted_save_keeps_the_previous_pair(self, fail_at, ts, tmp_path):
        """A save that dies before the JSON moves in leaves the old JSON.

        The JSON moves in last, so a new sidecar beside the old JSON is
        merely stale, and a shard whose sidecar never landed has no JSON
        that would mark it as cached.
        """
        path = tmp_path / "traces.json"
        ts.save(path)
        other = TraceSet(pixel_scale=2.0, platform="other")
        other.append(rec(7, 0, {"Z": 4.0}, scenario=5))
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst).suffix == fail_at:
                raise OSError("interrupted")
            real_replace(src, dst)

        with mock.patch.object(os, "replace", side_effect=replace):
            with pytest.raises(OSError, match="interrupted"):
                other.save(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "traces.json",
            "traces.npz",
        ]
        loaded = TraceSet.load(path)
        assert loaded == ts
        assert loaded.records == ts.records

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
        loaded = TraceSet.load(path)
        assert loaded.records == slow.records == ts.records
        assert loaded == slow

    def test_misshapen_task_matrix_falls_back_to_json(self, ts, tmp_path):
        path = tmp_path / "traces.json"
        ts.save(path)
        # One task listed for a two-task matrix: the byte count is off.
        _edit_header(tmp_path / "traces.npz", tasks=ts.tasks()[:1])
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


def _edit_header(sidecar, **changes):
    """Rewrite fields of a raw sidecar's header line in place."""
    line, body = sidecar.read_bytes().split(b"\n", 1)
    header = {**json.loads(line), **changes}
    sidecar.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + body)


def _npz_v2(sidecar, ts, path):
    """A ``repro-traces-npz/2`` archive of ``ts``, fingerprinting ``path``."""
    tasks = ts.tasks()
    header = {
        "format": "repro-traces-npz/2",
        "fingerprint": hashlib.sha256(path.read_bytes()).hexdigest(),
        "pixel_scale": ts.pixel_scale,
        "platform": ts.platform,
        "workload": ts.workload,
        "registry_version": ts.registry_version,
        "meta": {},
        "tasks": tasks,
    }
    with open(sidecar, "wb") as f:  # np.savez would append ".npz" to a path
        np.savez(
            f,
            header=np.asarray(json.dumps(header, sort_keys=True)),
            rows=ts._rows[: len(ts)].copy(),
            task_ms=np.array([ts._task_ms[t][: len(ts)] for t in tasks]),
        )


def _truncate(keep):
    def damage(sidecar, ts, path):
        blob = sidecar.read_bytes()
        sidecar.write_bytes(blob[: keep(blob)])

    return damage


_SIDECAR_DAMAGE = {
    "missing": lambda sidecar, ts, path: sidecar.unlink(),
    "empty": _truncate(lambda blob: 0),
    "header-only": _truncate(lambda blob: blob.index(b"\n")),
    "header-line": _truncate(lambda blob: blob.index(b"\n") + 1),
    "mid-rows": _truncate(lambda blob: blob.index(b"\n") + 1 + TRACE_DTYPE.itemsize),
    "last-byte": _truncate(lambda blob: len(blob) - 1),
    "trailing": lambda sidecar, ts, path: sidecar.write_bytes(
        sidecar.read_bytes() + b"\0" * 8
    ),
    "wrong-tag": lambda sidecar, ts, path: _edit_header(
        sidecar, format="repro-traces-raw/2"
    ),
    "stale-fingerprint": lambda sidecar, ts, path: _edit_header(
        sidecar, fingerprint="0" * 64
    ),
    "mismatched-descr": lambda sidecar, ts, path: _edit_header(
        sidecar, descr=[[name, ">" + code[1:]] for name, code in TRACE_DTYPE.descr]
    ),
    "npz-v2-zip": _npz_v2,
}


class TestSidecarFallback:
    @pytest.mark.parametrize("damage", sorted(_SIDECAR_DAMAGE))
    def test_unusable_sidecar_loads_through_json(self, damage, ts, tmp_path):
        path = tmp_path / "traces.json"
        ts.save(path)
        _SIDECAR_DAMAGE[damage](tmp_path / "traces.npz", ts, path)
        with mock.patch.object(
            TraceSet, "append", autospec=True, side_effect=TraceSet.append
        ) as append:
            loaded = TraceSet.load(path)
        assert append.call_count == len(ts)  # every record came from JSON
        assert loaded.records == ts.records
        assert loaded == ts


_ints = {
    name: st.integers(np.iinfo(TRACE_DTYPE[name]).min, np.iinfo(TRACE_DTYPE[name]).max)
    for name in ("seq", "frame", "scenario_id", "eviction_bytes", "external_bytes")
}
_ms = st.floats(allow_nan=False, allow_infinity=False) | st.just(float("nan"))
_frame = st.fixed_dictionaries(
    {
        **_ints,
        "task_ms": st.dictionaries(st.sampled_from(["A", "B", "Ž", "C D"]), _ms),
        "roi_kpixels": st.floats(allow_nan=False, allow_infinity=False),
        "latency_ms": st.floats(allow_nan=False, allow_infinity=False),
    }
)
_meta = st.dictionaries(st.text(), st.text() | st.integers() | st.lists(st.text()))


class TestSidecarRoundTrip:
    @given(frames=st.lists(_frame, max_size=12), meta=_meta)
    @example(frames=[], meta={"é": "line\nbreak"})
    @example(
        frames=[
            {
                **{name: 0 for name in _ints},
                "task_ms": {"A": float("nan"), "B": 1.5},
                "roi_kpixels": 1.0,
                "latency_ms": 1.5,
            }
        ],
        meta={},
    )
    @settings(max_examples=60, deadline=None)
    def test_sidecar_and_json_loads_agree(self, frames, meta):
        """n = 0, NaN cells (a task with no values), non-ASCII meta."""
        ts = TraceSet(pixel_scale=0.5, platform="Ω", meta=meta, workload="w")
        for frame in frames:
            ts.add_frame(**frame)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "traces.json"
            ts.save(path)
            with mock.patch.object(
                TraceSet, "append", side_effect=AssertionError("JSON fallback taken")
            ):
                fast = TraceSet.load(path)
            (Path(tmp) / "traces.npz").unlink()
            slow = TraceSet.load(path)
        assert fast.records == slow.records == ts.records
        assert fast == slow == ts
        assert fast.tasks() == ts.tasks()


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
