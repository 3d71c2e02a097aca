"""Tests for scenario-conditioned predictors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.computation import (
    ComputationModel,
    PredictionContext,
    ScenarioConditionedPredictor,
    granularity_group,
)
from repro.profiling.traces import TraceRecord, TraceSet


class TestGranularityGroup:
    def test_roi_bit(self):
        # bit 1 of the scenario id is the ROI-mode switch.
        for sid in (0, 1, 4, 5):
            assert granularity_group(sid) == 0
        for sid in (2, 3, 6, 7):
            assert granularity_group(sid) == 1


def synthetic_traces() -> TraceSet:
    """A task with two clean regimes: 10 ms full-frame, 1 ms ROI."""
    ts = TraceSet()
    rng = np.random.default_rng(0)
    frame = 0
    for seq in range(4):
        for block, (sid, level) in enumerate([(5, 10.0), (7, 1.0), (5, 10.0)]):
            for _ in range(20):
                ts.append(
                    TraceRecord(
                        seq=seq,
                        frame=frame,
                        scenario_id=sid,
                        task_ms={"X": float(level + rng.normal(0, 0.05))},
                        roi_kpixels=100.0,
                        latency_ms=level,
                        eviction_bytes=0,
                        external_bytes=0,
                    )
                )
                frame += 1
    return ts


class TestScenarioConditionedPredictor:
    @pytest.fixture(scope="class")
    def predictor(self):
        return ScenarioConditionedPredictor.fit(synthetic_traces(), "X")

    def test_groups_trained(self, predictor):
        assert set(predictor.inner) == {0, 1}
        assert "per-granularity" in predictor.kind

    def test_predicts_per_regime(self, predictor):
        predictor.reset()
        full = PredictionContext(scenario_id=5)
        roi = PredictionContext(scenario_id=7)
        assert predictor.predict(full) == pytest.approx(10.0, abs=0.5)
        assert predictor.predict(roi) == pytest.approx(1.0, abs=0.5)

    def test_no_scenario_falls_back_to_pooled(self, predictor):
        predictor.reset()
        p = predictor.predict(PredictionContext(scenario_id=None))
        # Pooled model: somewhere between the regimes.
        assert 0.5 < p < 11.0

    def test_observe_routes_to_group(self, predictor):
        predictor.reset()
        ctx = PredictionContext(scenario_id=5)
        for _ in range(20):
            predictor.observe(12.0, ctx)
        assert predictor.predict(ctx) == pytest.approx(12.0, abs=0.5)
        # The other regime is untouched.
        assert predictor.predict(PredictionContext(scenario_id=7)) == pytest.approx(
            1.0, abs=0.5
        )
        predictor.reset()

    def test_regime_switch_beats_pooled(self):
        """On regime switches the conditioned model reacts instantly
        (the pooled EWMA must slew across the gap)."""
        from repro.core.computation import EwmaMarkovPredictor

        traces = synthetic_traces()
        cond = ScenarioConditionedPredictor.fit(traces, "X")
        pooled = EwmaMarkovPredictor.fit(traces.task_series("X"))
        # Walk a fresh regime-switching stream.
        rng = np.random.default_rng(1)
        stream = [(5, 10.0)] * 15 + [(7, 1.0)] * 15 + [(5, 10.0)] * 15
        errs_c, errs_p = [], []
        cond.reset()
        pooled.reset()
        for sid, level in stream:
            value = level + rng.normal(0, 0.05)
            ctx = PredictionContext(scenario_id=sid)
            errs_c.append(abs(cond.predict(ctx) - value))
            errs_p.append(abs(pooled.predict(ctx) - value))
            cond.observe(value, ctx)
            pooled.observe(value, ctx)
        assert np.mean(errs_c) < 0.5 * np.mean(errs_p)


class TestComputationModelIntegration:
    def test_fit_kind(self):
        traces = synthetic_traces()
        model = ComputationModel.fit(
            traces, predictor_kinds={"X": "scenario-conditioned"}
        )
        assert "per-granularity" in dict(model.summary())["X"]
        out = model.predict_tasks(["X"], PredictionContext(scenario_id=7))
        assert out["X"] == pytest.approx(1.0, abs=0.5)
