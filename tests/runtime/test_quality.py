"""Tests for quality-level QoS control."""

from __future__ import annotations

import numpy as np
import pytest

from repro.imaging.pipeline import PipelineConfig, StentBoostPipeline
from repro.runtime import FrameEngine, TripleCPolicy
from repro.runtime.partition import Partitioner
from repro.runtime.quality import QUALITY_LEVELS, QualityController, QualityLevel
from repro.synthetic.sequence import SequenceConfig, XRaySequence


class TestQualityLevel:
    def test_builtin_levels_ordered(self):
        assert [q.name for q in QUALITY_LEVELS] == ["full", "reduced", "minimum"]
        # Monotone cost knobs: scales and candidate caps never grow.
        scales = [len(q.rdg_scales) for q in QUALITY_LEVELS]
        cands = [q.max_candidates for q in QUALITY_LEVELS]
        assert scales == sorted(scales, reverse=True)
        assert cands == sorted(cands, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            QualityLevel("bad", rdg_scales=(), max_candidates=10)
        with pytest.raises(ValueError):
            QualityLevel("bad", rdg_scales=(2.0,), max_candidates=1)


class TestQualityController:
    def test_starts_at_full(self):
        c = QualityController()
        assert c.current.name == "full"
        assert not c.degraded

    def test_degrades_on_infeasible_prediction(self):
        c = QualityController()
        level = c.decide(predicted_latency_ms=60.0, budget_ms=50.0)
        assert level.name == "reduced"
        level = c.decide(60.0, 50.0)
        assert level.name == "minimum"
        # Already at the floor: stays.
        assert c.decide(60.0, 50.0).name == "minimum"

    def test_recovery_requires_hysteresis(self):
        c = QualityController(recovery_frames=3)
        c.decide(60.0, 50.0)  # -> reduced
        assert c.degraded
        # Two calm frames are not enough ...
        assert c.decide(15.0, 50.0).name == "reduced"
        assert c.decide(15.0, 50.0).name == "reduced"
        # ... the third restores.
        assert c.decide(15.0, 50.0).name == "full"

    def test_marginal_headroom_does_not_restore(self):
        c = QualityController(recovery_frames=2, recovery_headroom=0.8)
        c.decide(60.0, 50.0)
        for _ in range(10):
            # Better level would cost 2x (scale count 2 vs 1): 2*30=60
            # > 0.8*50, so the controller must hold at "reduced".
            assert c.decide(30.0, 50.0).name == "reduced"

    def test_reset(self):
        c = QualityController()
        c.decide(60.0, 50.0)
        c.reset()
        assert c.current.name == "full"

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            QualityController().decide(10.0, 0.0)


class TestPipelineQualityKnobs:
    def test_reduced_quality_cuts_rdg_work(self, short_sequence):
        sep = short_sequence.config.resolved_phantom().marker_separation
        img, _ = short_sequence.frame(2)

        def rdg_pixels(quality):
            pipe = StentBoostPipeline(PipelineConfig(expected_distance=sep))
            pipe.quality = quality
            fa = pipe.process(img)
            for name, rep in fa.reports.items():
                if name.startswith("RDG_") and name != "RDG_DETECT":
                    return rep.pixels
            return None

        full = rdg_pixels(QUALITY_LEVELS[0])
        reduced = rdg_pixels(QUALITY_LEVELS[1])
        if full is None or reduced is None:
            pytest.skip("RDG switch off for this frame")
        assert reduced == full // 2  # one scale instead of two

    def test_candidate_cap_applied(self, short_sequence):
        sep = short_sequence.config.resolved_phantom().marker_separation
        img, _ = short_sequence.frame(2)
        pipe = StentBoostPipeline(PipelineConfig(expected_distance=sep))
        pipe.quality = QualityLevel("tiny", rdg_scales=(2.0,), max_candidates=3)
        fa = pipe.process(img)
        assert len(fa.candidates) <= 3


class TestManagedQualityScaling:
    def test_quality_rescues_infeasible_budget(self, traces, profile_config):
        """With partitioning capped at 2 and a tight budget, fixed
        quality misses the budget on expensive frames; the controller
        degrades instead and recovers the deadline."""
        from repro.core import TripleC

        seq_cfg = SequenceConfig(
            n_frames=60, seed=777, visibility_dips=1, clutter_level=0.9
        )

        def run(controller):
            seq = XRaySequence(seq_cfg)
            pipe = StentBoostPipeline(
                PipelineConfig(
                    expected_distance=seq.config.resolved_phantom().marker_separation
                )
            )
            model = TripleC.fit(traces)
            sim = profile_config.make_simulator()
            part = Partitioner(sim.platform, model.graph, max_parts=2)
            policy = TripleCPolicy.for_simulator(
                model,
                sim,
                partitioner=part,
                budget_ms=40.0,
                quality_controller=controller,
            )
            return FrameEngine(sim, policy).run(seq, pipe, seq_key="q")

        fixed = run(None)
        scaled = run(QualityController())

        def excess_ms(r):
            return float(np.sum(np.maximum(r.latency() - 40.0, 0.0)))

        # Quality scaling cannot fix a mispredicted switch frame, but
        # it must slash the total over-budget mass and the worst frame.
        assert excess_ms(scaled) < 0.5 * excess_ms(fixed)
        assert scaled.latency().max() < fixed.latency().max()
        assert any(f.quality != "full" for f in scaled.frames)
        assert all(f.quality == "full" for f in fixed.frames)
