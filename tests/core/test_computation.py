"""Tests for the per-task computation-time predictors (Table 2b)."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.computation import (
    PREDICTORS,
    ComputationModel,
    ConstantPredictor,
    EwmaMarkovPredictor,
    MarkovPredictor,
    PredictionContext,
    RoiLinearMarkovPredictor,
    predict_series_loop,
    predictor_to_dict,
)
from repro.profiling.traces import TraceRecord, TraceSet

CTX = PredictionContext(roi_kpixels=100.0)


class TestConstantPredictor:
    def test_predicts_training_mean(self):
        p = ConstantPredictor.fit([np.array([2.0, 2.2, 1.8])])
        assert p.predict(CTX) == pytest.approx(2.0)

    def test_observe_is_noop(self):
        p = ConstantPredictor(value_ms=5.0)
        p.observe(100.0, CTX)
        assert p.predict(CTX) == 5.0


class TestMarkovPredictor:
    def test_fallback_before_first_observation(self):
        rng = np.random.default_rng(0)
        p = MarkovPredictor.fit([rng.normal(10, 1, 1000)])
        assert p.predict(CTX) == pytest.approx(10.0, abs=0.5)

    def test_tracks_after_observation(self):
        rng = np.random.default_rng(1)
        phi, n = 0.9, 10_000
        x = np.empty(n)
        x[0] = 0
        for i in range(1, n):
            x[i] = phi * x[i - 1] + rng.normal()
        x += 20.0
        p = MarkovPredictor.fit([x])
        p.observe(x.max(), CTX)
        high = p.predict(CTX)
        p.reset()
        p.observe(x.min(), CTX)
        low = p.predict(CTX)
        assert high > low  # conditional expectation moves with state

    def test_reset(self):
        p = MarkovPredictor.fit([np.random.default_rng(2).normal(5, 1, 500)])
        p.observe(9.0, CTX)
        p.reset()
        assert p.predict(CTX) == pytest.approx(5.0, abs=0.3)


class TestEwmaMarkovPredictor:
    def test_causal_residuals_definition(self):
        x = np.array([10.0, 12.0, 11.0])
        res = EwmaMarkovPredictor.causal_residuals(x, alpha=0.5)
        # y0=10 -> r1 = 12-10 = 2; y1 = 11 -> r2 = 11-11 = 0.
        np.testing.assert_allclose(res, [2.0, 0.0])

    def test_tracks_level_shift(self):
        """The EWMA part must follow a structural level change."""
        p = EwmaMarkovPredictor.fit(
            [np.random.default_rng(3).normal(40, 1, 500)], alpha=0.3
        )
        for _ in range(30):
            p.observe(60.0, CTX)
        assert p.predict(CTX) == pytest.approx(60.0, abs=2.0)

    def test_prediction_positive(self):
        p = EwmaMarkovPredictor.fit(
            [np.random.default_rng(4).normal(5, 2, 500)]
        )
        p.observe(0.1, CTX)
        p.observe(0.1, CTX)
        assert p.predict(CTX) > 0

    def test_beats_constant_on_drifting_series(self):
        """On slow drift + noise, EWMA+Markov must beat the constant
        model -- the motivation of Section 4's decomposition."""
        rng = np.random.default_rng(5)
        n = 2000
        drift = 40 + 8 * np.sin(np.arange(n) / 150)
        x = drift + rng.normal(0, 0.8, n)
        train, test = x[:1000], x[1000:]
        p = EwmaMarkovPredictor.fit([train], alpha=0.3)
        const = ConstantPredictor.fit([train])
        err_p, err_c = [], []
        for v in test:
            err_p.append((p.predict(CTX) - v) ** 2)
            err_c.append((const.predict(CTX) - v) ** 2)
            p.observe(v, CTX)
            const.observe(v, CTX)
        assert np.mean(err_p) < 0.2 * np.mean(err_c)

    def test_degenerate_training_falls_back_to_mean(self):
        p = EwmaMarkovPredictor.fit([np.array([3.0])])
        assert p.predict(CTX) == pytest.approx(3.0)

    def test_reset_clears_state(self):
        p = EwmaMarkovPredictor.fit([np.random.default_rng(6).normal(10, 1, 300)])
        p.observe(50.0, CTX)
        p.reset()
        assert p.predict(CTX) == pytest.approx(10.0, abs=1.0)


class TestRoiLinearMarkovPredictor:
    def _roi_series(self, slope=0.05, intercept=4.0, n=400, seed=7):
        rng = np.random.default_rng(seed)
        roi = rng.uniform(20, 300, n)
        ms = slope * roi + intercept + rng.normal(0, 0.1, n)
        return [(roi, ms)]

    def test_recovers_linear_growth(self):
        p = RoiLinearMarkovPredictor.fit(self._roi_series())
        assert p.slope == pytest.approx(0.05, abs=0.005)
        assert p.intercept == pytest.approx(4.0, abs=0.5)

    def test_prediction_uses_roi(self):
        p = RoiLinearMarkovPredictor.fit(self._roi_series())
        small = p.predict(PredictionContext(roi_kpixels=50.0))
        large = p.predict(PredictionContext(roi_kpixels=250.0))
        assert large - small == pytest.approx(0.05 * 200.0, rel=0.15)

    def test_constant_roi_degenerates_gracefully(self):
        roi = np.full(100, 80.0)
        ms = np.full(100, 8.0)
        p = RoiLinearMarkovPredictor.fit([(roi, ms)])
        assert p.slope == 0.0
        assert p.predict(PredictionContext(roi_kpixels=80.0)) == pytest.approx(8.0, abs=0.2)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            RoiLinearMarkovPredictor.fit([])
        with pytest.raises(ValueError):
            RoiLinearMarkovPredictor.fit([(np.empty(0), np.empty(0))])

    def test_single_sample_fits_constant(self):
        p = RoiLinearMarkovPredictor.fit([(np.array([80.0]), np.array([7.5]))])
        assert p.slope == 0.0
        assert p.intercept == 7.5
        assert p.predict(PredictionContext(roi_kpixels=200.0)) == 7.5
        p.observe(7.5, PredictionContext(roi_kpixels=80.0))
        assert p.predict(PredictionContext(roi_kpixels=80.0)) == 7.5


class TestComputationModel:
    def test_fit_assigns_table2b_kinds(self, traces):
        model = ComputationModel.fit(traces)
        kinds = dict(model.summary())
        assert kinds["REG"] == "constant"
        assert kinds["CPLS_SEL"] == "<Eq. 1> + Markov"
        assert kinds["GW_EXT"] == "<Eq. 1> + Markov"
        if "RDG_FULL" in kinds:
            assert kinds["RDG_FULL"] == "<Eq. 1> + Markov"
        if "RDG_ROI" in kinds:
            assert kinds["RDG_ROI"] == "<Eq. 3> + Markov"

    def test_train_means_recorded(self, traces):
        model = ComputationModel.fit(traces)
        assert model.train_mean_ms["REG"] == pytest.approx(2.0, abs=0.1)

    def test_predict_tasks_unknown_task_zero(self, traces):
        model = ComputationModel.fit(traces)
        out = model.predict_tasks(["REG", "UNKNOWN"], CTX)
        assert out["UNKNOWN"] == 0.0
        assert out["REG"] > 0

    def test_override_kinds(self, traces):
        model = ComputationModel.fit(
            traces, predictor_kinds={"CPLS_SEL": "markov"}
        )
        assert dict(model.summary())["CPLS_SEL"] == "Markov"

    def test_unknown_kind_rejected(self, traces):
        with pytest.raises(ValueError):
            ComputationModel.fit(traces, predictor_kinds={"REG": "magic"})

    def test_observe_then_reset(self, traces):
        model = ComputationModel.fit(traces)
        model.observe_frame({"CPLS_SEL": 1.0}, CTX)
        model.reset()  # must not raise and must clear online state


class TestPredictSeries:
    """Batch predict_series must replay the scalar protocol exactly."""

    @staticmethod
    def _series(seed: int, n: int = 400) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return np.abs(rng.normal(10, 2, n)) + 0.5

    def test_constant_batch_matches_loop(self):
        x = self._series(20)
        p = ConstantPredictor.fit([x])
        np.testing.assert_array_equal(
            p.predict_series(x), predict_series_loop(p, x)
        )

    def test_last_value_batch_matches_loop(self):
        from repro.core.computation import LastValuePredictor

        x = self._series(21)
        p = LastValuePredictor.fit([x])
        np.testing.assert_array_equal(
            p.predict_series(x), predict_series_loop(p, x)
        )

    def test_markov_batch_matches_loop(self):
        x = self._series(22)
        p = MarkovPredictor.fit([x[:200], x[200:]])
        np.testing.assert_array_equal(
            p.predict_series(x), predict_series_loop(p, x)
        )

    def test_ewma_markov_batch_matches_loop(self):
        x = self._series(23)
        p = EwmaMarkovPredictor.fit([x[:200], x[200:]])
        np.testing.assert_array_equal(
            p.predict_series(x), predict_series_loop(p, x)
        )

    def test_roi_linear_batch_matches_loop(self):
        rng = np.random.default_rng(24)
        roi = np.abs(rng.normal(50, 10, 400))
        t = 0.1 * roi + 2.0 + rng.normal(0, 0.3, 400)
        p = RoiLinearMarkovPredictor.fit([(roi[:200], t[:200]), (roi[200:], t[200:])])
        np.testing.assert_array_equal(
            p.predict_series(t, roi), predict_series_loop(p, t, roi)
        )

    def test_online_update_falls_back_to_loop(self):
        x = self._series(25)
        p = EwmaMarkovPredictor.fit([x[:200]], online_update=True)
        # With online updates each prediction reads the chain as the
        # loop has mutated it by then; the batch walk must agree.
        a = p.predict_series(x)
        p2 = EwmaMarkovPredictor.fit([x[:200]], online_update=True)
        b = predict_series_loop(p2, x)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "kind", [MarkovPredictor, EwmaMarkovPredictor, RoiLinearMarkovPredictor]
    )
    def test_online_series_leaves_chain_untrained(self, kind):
        """An online chain answers the walk from copies: evaluating a
        series must not fold it into the predictor's own chain."""
        rng = np.random.default_rng(28)
        roi = np.abs(rng.normal(50, 10, 400))
        x = 0.1 * roi + self._series(28)
        if kind is RoiLinearMarkovPredictor:
            p = kind.fit([(roi[:200], x[:200])], online_update=True)
        else:
            p = kind.fit([x[:200]], online_update=True)
        counts = p.chain.counts.copy()
        transition = p.chain.transition.copy()
        reference = predict_series_loop(copy.deepcopy(p), x, roi)
        first = p.predict_series(x, roi)
        second = p.predict_series(x, roi)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(p.chain.counts, counts)
        np.testing.assert_array_equal(p.chain.transition, transition)
        np.testing.assert_array_equal(first, reference)

    def test_series_leaves_online_state_reset(self):
        x = self._series(26)
        p = EwmaMarkovPredictor.fit([x])
        p.observe(5.0, CTX)
        before = p.predict(CTX)
        p.predict_series(x)
        # Batch evaluation must not perturb streaming state...
        assert p.predict(CTX) == before
        # ...and the loop fallback resets it.
        predict_series_loop(p, x)
        assert p._ewma.value is None

    def test_short_series_edge_cases(self):
        x = self._series(27)
        p = EwmaMarkovPredictor.fit([x])
        for n in (0, 1, 2, 3):
            np.testing.assert_array_equal(
                p.predict_series(x[:n]), predict_series_loop(p, x[:n])
            )

    def test_model_predict_task_series(self, traces):
        model = ComputationModel.fit(traces)
        task = "CPLS_SEL"
        series = np.concatenate(
            [np.asarray(s) for s in traces.task_series(task)]
        )
        batch = model.predict_task_series(task, series)
        loop = predict_series_loop(model.predictors[task], series)
        np.testing.assert_array_equal(batch, loop)

    def test_model_predict_task_series_unknown_task(self, traces):
        model = ComputationModel.fit(traces)
        out = model.predict_task_series("UNKNOWN", np.ones(5))
        np.testing.assert_array_equal(out, np.zeros(5))


def _walk_training_traces() -> TraceSet:
    """One task whose time grows with the ROI and steps with the
    granularity group, over random scenarios."""
    rng = np.random.default_rng(5)
    ts = TraceSet()
    for k in range(160):
        sid = int(rng.integers(0, 8))
        roi = float(rng.uniform(20.0, 400.0))
        ms = 0.02 * roi + 1.0 + 4.0 * ((sid >> 1) & 1) + rng.gamma(2.0, 0.4)
        ts.append(
            TraceRecord(
                seq=k // 40,
                frame=k,
                scenario_id=sid,
                task_ms={"X": float(ms)},
                roi_kpixels=roi,
                latency_ms=float(ms),
                eviction_bytes=0,
                external_bytes=0,
            )
        )
    return ts


_WALK_TRAIN = _walk_training_traces()


class TestWalk:
    """Every kind's batched walk is its scalar predict/observe loop."""

    @pytest.mark.parametrize("online_update", [False, True])
    @pytest.mark.parametrize("kind", sorted(PREDICTORS))
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 60),
        untrained=st.sampled_from([(), (0,), (1,)]),
    )
    def test_walk_equals_scalar_loop(self, kind, online_update, seed, n, untrained):
        fitted = PREDICTORS[kind].from_traces(
            _WALK_TRAIN, "X", alpha=0.3, online_update=online_update
        )
        for group in untrained:
            # A granularity group that never trained (scenario-
            # conditioned kind only) answers from the pooled predictor.
            getattr(fitted, "inner", {}).pop(group, None)
        rng = np.random.default_rng(seed)
        values = rng.gamma(1.5, 3.0, n) + rng.choice([0.0, 8.0], n)
        roi = rng.uniform(0.0, 500.0, n + 1)
        predicted = rng.integers(0, 8, n + 1)
        observed = rng.integers(0, 8, n)

        p = copy.deepcopy(fitted)
        want = []
        for k in range(n + 1):
            ctx = PredictionContext(float(roi[k]), int(predicted[k]))
            want.append(p.predict(ctx))
            if k < n:
                seen = PredictionContext(float(roi[k]), int(observed[k]))
                p.observe(float(values[k]), seen)

        p = copy.deepcopy(fitted)
        walk = p.walk(values, roi[:n], observed)
        got = []
        for k in range(n + 1):
            w = walk.at(int(predicted[k]))
            got.append(
                max(w.floor, w.slope * float(roi[k]) + w.intercept + w.offsets[k])
            )
        assert got == want
        # The walk answers from copies: the predictor is untouched.
        assert predictor_to_dict(p) == predictor_to_dict(fitted)
