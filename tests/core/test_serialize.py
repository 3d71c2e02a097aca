"""Tests for model persistence."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import TripleC
from repro.core.computation import PredictionContext
from repro.core.serialize import FORMAT_VERSION, load_model, save_model


@pytest.fixture()
def saved(traces, tmp_path):
    model = TripleC.fit(traces)
    path = tmp_path / "model.json"
    save_model(model, path)
    return model, path


class TestRoundTrip:
    def test_predictions_identical(self, saved):
        model, path = saved
        loaded = load_model(path)
        model.start_sequence(initial_scenario=3)
        loaded.start_sequence(initial_scenario=3)
        for roi in (50.0, 150.0, 1048.0):
            a = model.predict(roi)
            b = loaded.predict(roi)
            assert a.scenario_id == b.scenario_id
            assert a.frame_ms == pytest.approx(b.frame_ms, rel=1e-12)
            assert a.task_ms == pytest.approx(b.task_ms, rel=1e-12)
            assert a.external_bytes == b.external_bytes

    def test_observe_then_predict_identical(self, saved):
        model, path = saved
        loaded = load_model(path)
        for m in (model, loaded):
            m.start_sequence(initial_scenario=3)
            m.observe(7, {"RDG_ROI": 5.0, "REG": 2.0, "CPLS_SEL": 0.6}, 150.0)
            m.observe(7, {"RDG_ROI": 5.5, "REG": 2.0, "CPLS_SEL": 0.5}, 150.0)
        assert model.predict(150.0).frame_ms == pytest.approx(
            loaded.predict(150.0).frame_ms, rel=1e-12
        )

    def test_scenario_table_preserved(self, saved):
        model, path = saved
        loaded = load_model(path)
        np.testing.assert_array_equal(
            model.scenarios.counts, loaded.scenarios.counts
        )

    def test_train_means_preserved(self, saved):
        model, path = saved
        loaded = load_model(path)
        assert loaded.computation.train_mean_ms == pytest.approx(
            model.computation.train_mean_ms
        )

    def test_conditioned_model_round_trips(self, traces, tmp_path):
        model = TripleC.fit(
            traces, predictor_kinds={"CPLS_SEL": "scenario-conditioned"}
        )
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, first)
        loaded = load_model(first)
        save_model(loaded, second)
        assert second.read_bytes() == first.read_bytes()
        p = loaded.computation.predictors["CPLS_SEL"]
        assert "per-granularity" in p.kind
        for sid in (3, 5):
            ctx = PredictionContext(roi_kpixels=100.0, scenario_id=sid)
            want = model.computation.predictors["CPLS_SEL"].predict(ctx)
            assert p.predict(ctx) == want

    def test_online_state_not_persisted(self, saved):
        """Saved models start cold: EWMA/Markov state is per-sequence."""
        model, path = saved
        model.start_sequence(initial_scenario=3)
        model.observe(3, {"CPLS_SEL": 99.0}, 100.0)
        save_model(model, path)  # overwrite after observing
        loaded = load_model(path)
        loaded.start_sequence(initial_scenario=3)
        p = loaded.computation.predictors["CPLS_SEL"]
        # A cold predictor falls back to the training mean, far from 99.
        assert p.predict(PredictionContext()) < 50.0


class TestPredictorRoundTrips:
    def test_random_chains_round_trip(self, tmp_path):
        """Property-style: chains built from random data survive the
        dict round-trip exactly."""
        import numpy as np

        from repro.core.markov import MarkovChain
        from repro.core.computation import chain_from_dict, chain_to_dict

        for seed in range(12):
            rng = np.random.default_rng(seed)
            series = rng.gamma(2.0, 3.0, size=rng.integers(20, 400))
            chain = MarkovChain.fit([series])
            back = chain_from_dict(chain_to_dict(chain))
            np.testing.assert_array_equal(back.transition, chain.transition)
            np.testing.assert_array_equal(back.counts, chain.counts)
            np.testing.assert_array_equal(
                back.quantizer.edges, chain.quantizer.edges
            )
            for v in (series.min(), float(np.median(series)), series.max()):
                assert back.predict_next(v) == chain.predict_next(v)

    def test_every_predictor_kind_serializes(self, tmp_path):
        import numpy as np

        from repro.core.computation import (
            ConstantPredictor,
            EwmaMarkovPredictor,
            LastValuePredictor,
            MarkovPredictor,
            PredictionContext,
            RoiLinearMarkovPredictor,
            predictor_from_dict,
            predictor_to_dict,
        )

        rng = np.random.default_rng(3)
        series = [rng.normal(10, 1, 200)]
        roi = rng.uniform(50, 300, 200)
        preds = [
            ConstantPredictor.fit(series),
            LastValuePredictor.fit(series),
            MarkovPredictor.fit(series),
            EwmaMarkovPredictor.fit(series),
            RoiLinearMarkovPredictor.fit([(roi, 0.05 * roi + 2)]),
        ]
        ctx = PredictionContext(roi_kpixels=120.0)
        for p in preds:
            q = predictor_from_dict(predictor_to_dict(p))
            assert q.predict(ctx) == pytest.approx(p.predict(ctx), rel=1e-12)

    def test_unknown_predictor_type_rejected(self):
        from repro.core.computation import predictor_from_dict

        with pytest.raises(ValueError):
            predictor_from_dict({"type": "wizard"})

    def test_scenario_conditioned_round_trips(self, traces):
        from repro.core.computation import (
            PredictionContext,
            ScenarioConditionedPredictor,
            predictor_from_dict,
            predictor_to_dict,
        )

        p = ScenarioConditionedPredictor.fit(traces, "CPLS_SEL")
        q = predictor_from_dict(predictor_to_dict(p))
        assert set(q.inner) == set(p.inner)
        for sid in (3, 5, None):
            ctx = PredictionContext(roi_kpixels=100.0, scenario_id=sid)
            assert q.predict(ctx) == pytest.approx(p.predict(ctx), rel=1e-12)


class TestFormat:
    def test_version_checked(self, saved, tmp_path):
        _, path = saved
        doc = json.loads(path.read_text())
        # v1 (no graph/platform identifiers) is retired along with any
        # version from the future.
        v1 = {k: v for k, v in doc.items() if k not in ("graph", "platform")}
        for bad_doc in (
            dict(doc, format_version=FORMAT_VERSION + 1),
            dict(v1, format_version=1),
        ):
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(bad_doc))
            with pytest.raises(ValueError, match="unsupported model format"):
                load_model(bad)

    def test_json_is_plain(self, saved):
        _, path = saved
        doc = json.loads(path.read_text())
        assert set(doc) == {
            "format_version",
            "graph",
            "platform",
            "rate_hz",
            "predictors",
            "train_mean_ms",
            "scenario_counts",
        }

    def test_identifiers_recorded(self, saved):
        from repro.hw.spec import blackford

        _, path = saved
        doc = json.loads(path.read_text())
        assert doc["format_version"] == FORMAT_VERSION
        assert doc["graph"] == "stentboost"
        assert doc["platform"] == blackford().name

    def test_graph_mismatch_rejected(self, saved, tmp_path):
        _, path = saved
        doc = json.loads(path.read_text())
        doc["graph"] = "other-pipeline"
        bad = tmp_path / "bad_graph.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="other-pipeline"):
            load_model(bad)

    def test_platform_mismatch_rejected(self, saved, tmp_path):
        _, path = saved
        doc = json.loads(path.read_text())
        doc["platform"] = "epyc-1x-64"
        bad = tmp_path / "bad_platform.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="epyc-1x-64"):
            load_model(bad)


class TestWorkloadInference:
    """``save_model`` stamps the workload the model's graph belongs to."""

    def _fit(self, name):
        from repro.profiling import ProfileConfig, profile_corpus
        from repro.synthetic import CorpusSpec, XRaySequence
        from repro.workloads import get_workload

        wl = get_workload(name)
        spec = CorpusSpec(n_sequences=1, total_frames=12, base_seed=17)
        seqs = [XRaySequence(c) for c in wl.corpus_configs(spec)]
        return TripleC.fit(profile_corpus(seqs, ProfileConfig(workload=name)))

    def test_fit_resolves_graph_from_trace_provenance(self):
        from repro.workloads import get_workload

        model = self._fit("ultrasound")
        assert set(model.graph.tasks) == set(
            get_workload("ultrasound").build_graph().tasks
        )

    def test_round_trip_keeps_workload_graph(self, tmp_path):
        model = self._fit("ultrasound")
        path = tmp_path / "us.json"
        save_model(model, path)
        assert json.loads(path.read_text())["graph"] == "ultrasound"
        loaded = load_model(path)
        assert set(loaded.graph.tasks) == set(model.graph.tasks)
        model.start_sequence(initial_scenario=3)
        loaded.start_sequence(initial_scenario=3)
        assert loaded.predict(100.0).frame_ms == pytest.approx(
            model.predict(100.0).frame_ms, rel=1e-12
        )

    def test_unregistered_graph_needs_explicit_name(self, traces, tmp_path):
        import dataclasses

        model = TripleC.fit(traces)
        foreign = dataclasses.replace(model, graph=_empty_graph())
        with pytest.raises(ValueError, match="pass"):
            save_model(foreign, tmp_path / "nope.json")


def _empty_graph():
    from repro.graph.flowgraph import FlowGraph

    return FlowGraph({}, [], lambda state: [])
