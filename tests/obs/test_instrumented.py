"""Telemetry emitted by the instrumented seams (profiler, engine, pool).

These tests run real code paths under a scoped ``obs.observed()`` and
assert the trace/metric shape the ISSUE promises: per-frame spans,
prediction-residual histograms, repartition counters, and worker span
merges from the process pool.
"""

from __future__ import annotations

import pytest

import repro.obs as obs
from repro.imaging.pipeline import PipelineConfig, StentBoostPipeline
from repro.parallel import map_sequences
from repro.profiling import ProfileConfig, profile_corpus
from repro.runtime import FrameEngine, TripleCPolicy
from repro.synthetic import CorpusSpec, SequenceConfig, XRaySequence, generate_corpus


def spans_named(o, name):
    return [
        r
        for r in o.tracer.records
        if r.get("kind") == "span" and r.get("name") == name
    ]


def instruments_named(o, name):
    return [i for i in o.metrics.instruments() if i.name == name]


@pytest.fixture(scope="module")
def managed_obs(traces, profile_config):
    """One managed run captured under observability."""
    from repro.core import TripleC

    seq = XRaySequence(
        SequenceConfig(n_frames=40, seed=777, visibility_dips=1, clutter_level=0.9)
    )
    pipe = StentBoostPipeline(
        PipelineConfig(
            expected_distance=seq.config.resolved_phantom().marker_separation
        )
    )
    sim = profile_config.make_simulator()
    engine = FrameEngine(sim, TripleCPolicy.for_simulator(TripleC.fit(traces), sim))
    with obs.observed() as o:
        result = engine.run(seq, pipe, seq_key="t-obs")
    return o, result, seq


class TestManagerTelemetry:
    def test_one_frame_span_per_frame(self, managed_obs):
        o, _result, seq = managed_obs
        frames = spans_named(o, "engine.frame")
        assert len(frames) == len(seq)
        (seq_span,) = spans_named(o, "engine.sequence")
        assert all(r["parent"] == seq_span["id"] for r in frames)
        assert seq_span["attrs"]["seq"] == "t-obs"

    def test_frame_span_attrs_match_log(self, managed_obs):
        o, result, _seq = managed_obs
        frames = spans_named(o, "engine.frame")
        for rec, log in zip(frames, result.frames):
            attrs = rec["attrs"]
            assert attrs["frame"] == log.index
            assert attrs["scenario"] == log.actual_scenario
            assert attrs["latency_ms"] == log.latency_ms
            assert sum(attrs["task_ms"].values()) == pytest.approx(log.serial_ms)
            assert attrs["cores"] == log.cores_used

    def test_frame_counter_matches(self, managed_obs):
        o, _result, seq = managed_obs
        assert o.metrics.counter("runtime_frames_total").value == len(seq)

    def test_scenario_hit_miss_partition(self, managed_obs):
        o, result, seq = managed_obs
        hits = o.metrics.counter("runtime_scenario_hit_total").value
        misses = o.metrics.counter("runtime_scenario_miss_total").value
        assert hits + misses == len(seq)
        expected_hits = sum(
            1 for f in result.frames if f.predicted_scenario == f.actual_scenario
        )
        assert hits == expected_hits

    def test_repartition_counter_matches_events(self, managed_obs):
        o, result, _seq = managed_obs
        switches = sum(
            1
            for a, b in zip(result.frames, result.frames[1:])
            if a.parts != b.parts
        )
        assert o.metrics.counter("runtime_repartition_total").value == switches
        events = [
            r
            for r in o.tracer.records
            if r.get("kind") == "event" and r.get("name") == "repartition"
        ]
        assert len(events) == switches

    def test_residual_histograms_per_task(self, managed_obs):
        o, _result, seq = managed_obs
        per_task = instruments_named(o, "predict_residual_ms")
        assert per_task, "model residual histograms missing"
        tasks = {dict(h.labels)["task"] for h in per_task}
        # Residuals exist only for tasks that were predicted *and*
        # executed on the same frame, so the label set is a subset of
        # the executed tasks.
        executed = set().union(*(f.parts.keys() for f in managed_obs[1].frames))
        assert tasks and tasks <= executed
        assert all(h.count > 0 for h in per_task)
        frame_hist = o.metrics.histogram("runtime_frame_residual_ms")
        assert frame_hist.count == len(seq)

    def test_latency_histogram_sums_match_log(self, managed_obs):
        o, result, _seq = managed_obs
        hist = o.metrics.histogram("runtime_frame_latency_ms")
        assert hist.sum == pytest.approx(
            sum(f.latency_ms for f in result.frames)
        )


def _span_worker(x: int) -> int:
    """Module-level pool worker that emits its own telemetry."""
    o = obs.get_obs()
    with o.tracer.span("worker.item") as sp:
        if o.enabled:
            sp.set(item=x)
            o.metrics.counter("worker_items_total").inc()
    return 2 * x


class TestPoolTelemetry:
    def test_worker_spans_merge_into_parent_trace(self):
        with obs.observed() as o:
            results = map_sequences(_span_worker, list(range(4)), jobs=2)
        assert results == [0, 2, 4, 6]
        (map_span,) = spans_named(o, "parallel.map")
        assert map_span["attrs"] == {"n_items": 4, "jobs": 2, "chunksize": 1}
        items = spans_named(o, "worker.item")
        assert len(items) == 4
        # Re-parented under the fan-out span, stamped with their slot,
        # ids all distinct after the remap.
        assert all(r["parent"] == map_span["id"] for r in items)
        assert sorted(r["attrs"]["pool_item"] for r in items) == [0, 1, 2, 3]
        ids = [r["id"] for r in o.tracer.records if r["kind"] == "span"]
        assert len(ids) == len(set(ids))

    def test_worker_counters_sum_across_processes(self):
        with obs.observed() as o:
            map_sequences(_span_worker, list(range(6)), jobs=3)
        assert o.metrics.counter("worker_items_total").value == 6

    def test_inline_path_records_directly(self):
        with obs.observed() as o:
            map_sequences(_span_worker, [1, 2], jobs=1)
        (map_span,) = spans_named(o, "parallel.map")
        assert map_span["attrs"] == {"n_items": 2, "jobs": 1}
        items = spans_named(o, "worker.item")
        assert len(items) == 2
        assert all("pool_item" not in r["attrs"] for r in items)

    def test_disabled_pool_path_collects_nothing(self):
        results = map_sequences(_span_worker, list(range(4)), jobs=2)
        assert results == [0, 2, 4, 6]
        assert obs.NULL_OBS.tracer.records == []


class TestProfilerTelemetry:
    def test_pooled_corpus_profile_collects_all_frames(self):
        corpus = generate_corpus(
            CorpusSpec(n_sequences=2, total_frames=16, base_seed=55)
        )
        total = sum(len(s) for s in corpus)
        with obs.observed() as o:
            profile_corpus(corpus, ProfileConfig(), jobs=2)
        assert o.metrics.counter("profile_frames_total").value == total
        frames = spans_named(o, "profile.frame")
        assert len(frames) == total
        seqs = spans_named(o, "profile.sequence")
        assert len(seqs) == len(corpus)
        assert o.metrics.histogram("profile_frame_latency_ms").count == total
        # Bus traffic counters merged from the workers.
        links = instruments_named(o, "bus_traffic_bytes_total")
        assert links and all(c.value > 0 for c in links)
