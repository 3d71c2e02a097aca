"""Tests for the baseline execution policies: the frame engine under
:class:`StaticSerialPolicy` and :class:`WorstCaseReservationPolicy`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.imaging.pipeline import PipelineConfig, StentBoostPipeline
from repro.runtime import FrameEngine, StaticSerialPolicy, WorstCaseReservationPolicy
from repro.synthetic.sequence import SequenceConfig, XRaySequence


@pytest.fixture(scope="module")
def seq():
    return XRaySequence(SequenceConfig(n_frames=40, seed=99, visibility_dips=1))


def make_pipe(seq):
    return StentBoostPipeline(
        PipelineConfig(expected_distance=seq.config.resolved_phantom().marker_separation)
    )


def straightforward(seq, simulator, seq_key):
    engine = FrameEngine(simulator, StaticSerialPolicy())
    return engine.run(seq, make_pipe(seq), seq_key=seq_key)


def worst_case(seq, simulator, worst_case_ms, seq_key):
    engine = FrameEngine(simulator, WorstCaseReservationPolicy(worst_case_ms))
    return engine.run(seq, make_pipe(seq), seq_key=seq_key)


class TestStraightforward:
    def test_latency_follows_content(self, seq, profile_config):
        run = straightforward(seq, profile_config.make_simulator(), "b-sw")
        lat = run.latency()
        assert lat.shape == (40,)
        # Output equals completion: no QoS smoothing at all.
        np.testing.assert_array_equal(run.output_latency(), lat)
        assert run.label == "straightforward"
        assert all(f.cores_used == 1 for f in run.frames)


class TestWorstCase:
    def test_output_constant_at_reservation(self, seq, profile_config):
        run = worst_case(seq, profile_config.make_simulator(), 150.0, "b-wc")
        out = run.output_latency()
        np.testing.assert_allclose(out, 150.0)
        assert run.budget_ms == 150.0
        assert run.label == "worst-case reservation"
        # But the completion latency still varies underneath.
        assert np.std(run.latency()) > 0

    def test_invalid_reservation(self, seq, profile_config):
        with pytest.raises(ValueError):
            WorstCaseReservationPolicy(0.0)

    def test_output_latency_is_maximal(self, seq, profile_config):
        """The Section 6 drawback: output latency is pinned at the
        conservative worst case, higher than actually required."""
        sw = straightforward(seq, profile_config.make_simulator(), "b-sw2")
        wc = worst_case(
            seq,
            profile_config.make_simulator(),
            float(sw.latency().max()) * 1.05,
            "b-wc2",
        )
        assert wc.output_latency().mean() > sw.latency().mean()
