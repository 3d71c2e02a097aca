"""Tests for the resource manager (the Fig. 7 loop): the frame engine
under :class:`TripleCPolicy`."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.imaging.pipeline import PipelineConfig, StentBoostPipeline
from repro.runtime import (
    FrameEngine,
    QualityController,
    StaticSerialPolicy,
    TripleCPolicy,
)
from repro.synthetic.sequence import SequenceConfig, XRaySequence


@pytest.fixture(scope="module")
def test_seq():
    return XRaySequence(
        SequenceConfig(n_frames=80, seed=777, visibility_dips=1, clutter_level=0.9)
    )


def make_pipe(seq):
    return StentBoostPipeline(
        PipelineConfig(expected_distance=seq.config.resolved_phantom().marker_separation)
    )


@pytest.fixture(scope="module")
def fresh_model(traces):
    """A private model: the manager mutates online state."""
    from repro.core import TripleC

    return TripleC.fit(traces)


@pytest.fixture(scope="module")
def expected_budget(traces):
    from repro.core import TripleC

    return TripleC.fit(traces).expected_frame_ms() * 1.08


def managed_engine(model, profile_config, **kwargs) -> FrameEngine:
    sim = profile_config.make_simulator()
    return FrameEngine(sim, TripleCPolicy.for_simulator(model, sim, **kwargs))


@pytest.fixture(scope="module")
def managed_run(fresh_model, profile_config, test_seq):
    engine = managed_engine(fresh_model, profile_config)
    return engine.run(test_seq, make_pipe(test_seq), seq_key="t-mg")


@pytest.fixture(scope="module")
def straightforward_run(profile_config, test_seq):
    engine = FrameEngine(profile_config.make_simulator(), StaticSerialPolicy())
    return engine.run(test_seq, make_pipe(test_seq), seq_key="t-sw")


class TestResourceManager:
    def test_budget_auto_initialized(self, managed_run, expected_budget):
        # Budget = slack x average-case expectation, computed from the
        # model *before* any online updates.
        assert managed_run.budget_ms == pytest.approx(expected_budget, rel=1e-6)
        assert managed_run.label == "triple-c managed"

    def test_initialize_budget_before_run(self, traces, profile_config, expected_budget):
        from repro.core import TripleC

        policy = managed_engine(TripleC.fit(traces), profile_config).policy
        assert not policy.budget.initialized
        assert policy.initialize_budget() == pytest.approx(expected_budget, rel=1e-6)
        assert policy.budget.initialized

    def test_quality_controller_passthrough(self, trained_model, profile_config):
        controller = QualityController()
        policy = managed_engine(
            trained_model, profile_config, quality_controller=controller
        ).policy
        assert policy.quality_controller is controller
        assert not policy.supports_batch()

    def test_one_log_per_frame(self, managed_run, test_seq):
        assert len(managed_run.frames) == len(test_seq)

    def test_output_latency_pinned_to_budget(self, managed_run):
        out = managed_run.output_latency()
        assert np.all(out >= managed_run.budget_ms - 1e-9)
        # Almost all frames make the budget -> output ~ constant.
        at_budget = np.isclose(out, managed_run.budget_ms).mean()
        assert at_budget > 0.85

    def test_jitter_lower_than_straightforward(
        self, managed_run, straightforward_run
    ):
        """The Fig. 7 headline: managed output latency is far more
        stable than the straightforward mapping."""
        j_sw = straightforward_run.jitter()
        out_std = float(np.std(managed_run.output_latency()))
        assert out_std < 0.5 * j_sw.std

    def test_worst_over_avg_reduced(self, managed_run, straightforward_run):
        """Paper: 85 % -> ~20 % (completion latency)."""
        sw = straightforward_run.jitter().worst_over_avg
        mg = managed_run.jitter().worst_over_avg
        assert mg < 0.6 * sw

    def test_scenario_hit_rate_high(self, managed_run):
        assert managed_run.scenario_hit_rate() > 0.85

    def test_expensive_frames_partitioned(self, managed_run):
        """Frames predicted over budget must have been split."""
        expensive = [
            f
            for f in managed_run.frames
            if f.serial_ms > managed_run.budget_ms * 1.1
        ]
        if not expensive:
            pytest.skip("no over-budget frames in this sequence")
        for f in expensive:
            assert max(f.parts.values()) > 1

    def test_cores_left_free(self, managed_run, profile_config):
        """Most frames use a fraction of the platform -- the headroom
        the co-scheduling experiment exploits."""
        assert managed_run.mean_cores_used() < profile_config.platform.n_cores / 2

    def test_explicit_budget_respected(self, trained_model, profile_config, test_seq):
        # The run's observe calls mutate the model: keep the shared
        # session model (and its cached stationary distribution) intact.
        model = copy.deepcopy(trained_model)
        engine = managed_engine(model, profile_config, budget_ms=70.0)
        run = engine.run(test_seq, make_pipe(test_seq), seq_key="t-b70")
        assert run.budget_ms == 70.0
        assert np.all(run.output_latency() >= 70.0 - 1e-9)


class TestRunResult:
    def test_accessors_shapes(self, managed_run):
        n = len(managed_run.frames)
        assert managed_run.latency().shape == (n,)
        assert managed_run.output_latency().shape == (n,)
        assert managed_run.serial_latency().shape == (n,)
        assert managed_run.predicted().shape == (n,)

    def test_prediction_tracks_serial_time(self, managed_run):
        """Predicted serial times stay close to measured ones.

        (Correlation is meaningless on a near-constant steady-state
        series, so assert relative accuracy instead.)"""
        pred = managed_run.predicted()[3:]
        meas = managed_run.serial_latency()[3:]
        rel_err = np.abs(pred - meas) / np.maximum(meas, 1e-9)
        assert np.median(rel_err) < 0.10
