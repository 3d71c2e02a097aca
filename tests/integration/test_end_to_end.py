"""End-to-end integration: the full Triple-C story in one test file.

synthesize -> analyze -> simulate -> profile -> train -> predict ->
repartition -> control latency.
"""

from __future__ import annotations

import numpy as np

from repro import (
    Mapping,
    StentBoostPipeline,
    TripleC,
    prediction_accuracy,
)
from repro.imaging.pipeline import PipelineConfig
from repro.runtime import FrameEngine, StaticSerialPolicy, TripleCPolicy
from repro.synthetic.sequence import SequenceConfig, XRaySequence


class TestFullStack:
    def test_public_api_round_trip(self, traces, profile_config):
        """Everything needed for the paper's workflow is reachable
        from the top-level package namespace."""
        model = TripleC.fit(traces)
        seq = XRaySequence(SequenceConfig(n_frames=30, seed=31415))
        pipe = StentBoostPipeline(
            PipelineConfig(
                expected_distance=seq.config.resolved_phantom().marker_separation
            )
        )
        sim = profile_config.make_simulator()
        model.start_sequence()
        preds, actuals = [], []
        for img, _ in seq.iter_frames():
            roi_px = pipe.roi.pixels if pipe.roi is not None else img.size
            roi_kpx = roi_px / 1000.0 * profile_config.pixel_scale
            pred = model.predict(roi_kpx)
            fa = pipe.process(img)
            res = sim.simulate_frame(fa.reports, Mapping.serial(), frame_key=("e2e", fa.index))
            if fa.index >= 3:
                preds.append(pred.frame_ms)
                actuals.append(sum(res.task_ms.values()))
            model.observe(fa.scenario_id, res.task_ms, roi_kpx)
        rep = prediction_accuracy(np.asarray(preds), np.asarray(actuals))
        assert rep.mean_accuracy > 0.85

    def test_managed_run_reproducible(self, traces, profile_config):
        """The whole managed pipeline is bit-for-bit deterministic."""

        def one_run():
            model = TripleC.fit(traces)
            seq = XRaySequence(SequenceConfig(n_frames=25, seed=2718))
            pipe = StentBoostPipeline(
                PipelineConfig(
                    expected_distance=seq.config.resolved_phantom().marker_separation
                )
            )
            sim = profile_config.make_simulator()
            engine = FrameEngine(sim, TripleCPolicy.for_simulator(model, sim))
            return engine.run(seq, pipe, seq_key="det")

        a, b = one_run(), one_run()
        np.testing.assert_array_equal(a.latency(), b.latency())
        np.testing.assert_array_equal(a.output_latency(), b.output_latency())
        assert [f.parts for f in a.frames] == [f.parts for f in b.frames]

    def test_headline_story(self, traces, profile_config):
        """The paper's bottom line, end to end: Triple-C management
        stabilizes latency relative to the straightforward mapping."""
        seq_cfg = SequenceConfig(
            n_frames=90, seed=777, visibility_dips=1, clutter_level=0.9
        )

        def pipe():
            s = XRaySequence(seq_cfg)
            return s, StentBoostPipeline(
                PipelineConfig(
                    expected_distance=s.config.resolved_phantom().marker_separation
                )
            )

        s1, p1 = pipe()
        sw = FrameEngine(profile_config.make_simulator(), StaticSerialPolicy()).run(
            s1, p1, seq_key="h-sw"
        )
        s2, p2 = pipe()
        sim = profile_config.make_simulator()
        engine = FrameEngine(sim, TripleCPolicy.for_simulator(TripleC.fit(traces), sim))
        mg = engine.run(s2, p2, seq_key="h-mg")

        assert np.std(mg.output_latency()) < 0.4 * np.std(sw.latency())
        assert mg.jitter().worst_over_avg < sw.jitter().worst_over_avg
        # The managed run also keeps average *completion* latency at or
        # below the straightforward mapping (parallelism helps, never
        # hurts, modulo fork/join overhead on cheap frames).
        assert mg.latency().mean() < sw.latency().mean() * 1.05
