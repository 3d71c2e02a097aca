"""Tests for the sanctioned process pool."""

from __future__ import annotations

import os
from unittest import mock

import pytest

from repro.parallel import available_cpus, map_sequences, resolve_jobs


def _triple(x: int) -> int:
    """Module-level worker (picklable for the pool path)."""
    return 3 * x


def _ident(x: int) -> tuple[int, int]:
    return (x, os.getpid())


class TestAvailableCpus:
    def test_prefers_scheduling_affinity(self):
        if hasattr(os, "sched_getaffinity"):
            assert available_cpus() == len(os.sched_getaffinity(0))
        else:
            assert available_cpus() == (os.cpu_count() or 1)

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert available_cpus() == (os.cpu_count() or 1)

    def test_at_least_one(self):
        assert available_cpus() >= 1


class TestResolveJobs:
    def test_explicit_value(self):
        assert resolve_jobs(3) == 3

    def test_zero_means_all_available_cores(self):
        assert resolve_jobs(0) == available_cpus()

    def test_default_is_available_cpus(self):
        with mock.patch.dict(os.environ, {}, clear=False):
            os.environ.pop("REPRO_JOBS", None)
            assert resolve_jobs(None) == available_cpus()

    def test_env_override(self):
        with mock.patch.dict(os.environ, {"REPRO_JOBS": "5"}):
            assert resolve_jobs(None) == 5

    def test_env_zero_means_all_available_cores(self):
        with mock.patch.dict(os.environ, {"REPRO_JOBS": "0"}):
            assert resolve_jobs(None) == available_cpus()

    def test_explicit_beats_env(self):
        with mock.patch.dict(os.environ, {"REPRO_JOBS": "5"}):
            assert resolve_jobs(2) == 2

    def test_env_garbage_raises(self):
        with mock.patch.dict(os.environ, {"REPRO_JOBS": "many"}):
            with pytest.raises(ValueError, match="REPRO_JOBS"):
                resolve_jobs(None)

    def test_negative_raises(self):
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(-1)


class TestMapSequences:
    def test_inline_path_accepts_closures(self):
        # jobs=1 never pickles, so unpicklable workers are fine.
        captured = []

        def worker(x):
            captured.append(x)
            return x + 1

        assert map_sequences(worker, [1, 2, 3], jobs=1) == [2, 3, 4]
        assert captured == [1, 2, 3]

    def test_single_item_runs_inline(self):
        # One item short-circuits even when a pool was requested.
        assert map_sequences(lambda x: x * 2, [21], jobs=8) == [42]

    def test_pool_preserves_input_order(self):
        items = list(range(12))
        assert map_sequences(_triple, items, jobs=4) == [3 * x for x in items]

    def test_pool_matches_inline(self):
        items = list(range(7))
        inline = map_sequences(_triple, items, jobs=1)
        pooled = map_sequences(_triple, items, jobs=3)
        assert inline == pooled

    def test_pool_actually_forks(self):
        results = map_sequences(_ident, list(range(6)), jobs=3)
        assert [x for x, _ in results] == list(range(6))
        child_pids = {pid for _, pid in results}
        assert os.getpid() not in child_pids

    def test_empty_items(self):
        assert map_sequences(_triple, [], jobs=4) == []


def _spans(o, name):
    return [
        r
        for r in o.tracer.records
        if r["kind"] == "span" and r["name"] == name
    ]


class TestChunksize:
    def test_autotune_emitted_on_span(self):
        import repro.obs as obs

        with obs.observed() as o:
            map_sequences(_triple, list(range(24)), jobs=2)
        (map_span,) = _spans(o, "parallel.map")
        # max(1, 24 // (4 * 2)) = 3: four dispatch rounds per worker.
        assert map_span["attrs"]["chunksize"] == 3

    def test_coarse_work_degrades_to_one(self):
        import repro.obs as obs

        with obs.observed() as o:
            map_sequences(_triple, list(range(3)), jobs=2)
        (map_span,) = _spans(o, "parallel.map")
        assert map_span["attrs"]["chunksize"] == 1
