"""Tests for the closed predictor table (``PREDICTORS``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.computation import (
    PREDICTORS,
    ComputationModel,
    ConstantPredictor,
    EwmaMarkovPredictor,
    predictor_class,
    predictor_to_dict,
)


class TestLookup:
    def test_builtin_kinds_registered(self):
        assert set(PREDICTORS) == {
            "constant",
            "last-value",
            "markov",
            "ewma+markov",
            "roi+markov",
            "scenario-conditioned",
        }
        # The kind is the serialized tag its class writes.
        for kind, cls in PREDICTORS.items():
            assert cls.tag == kind

    def test_unknown_kind_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown predictor kind"):
            predictor_class("wizard")

    def test_unknown_kind_rejected_at_fit(self, traces):
        with pytest.raises(ValueError, match="unknown predictor kind"):
            ComputationModel.fit(traces, predictor_kinds={"RDG_FULL": "wizard"})


class TestBackendFit:
    def test_fit_matches_direct_class_fit(self, traces):
        p = predictor_class("constant").from_traces(
            traces, "REG", alpha=0.3, online_update=False
        )
        q = ConstantPredictor.fit(traces.task_series("REG"))
        assert p.value_ms == q.value_ms

    def test_ewma_markov_fit_threads_options(self, traces):
        p = predictor_class("ewma+markov").from_traces(
            traces, "RDG_FULL", alpha=0.5, online_update=True
        )
        assert isinstance(p, EwmaMarkovPredictor)
        assert p.alpha == 0.5
        assert p.online_update is True

    def test_model_fit_resolves_through_registry(self, traces):
        model = ComputationModel.fit(
            traces, predictor_kinds={"REG": "last-value"}
        )
        assert model.predictors["REG"].kind == "last-value"


class TestCustomBackend:
    def test_unregistered_class_cannot_serialize(self):
        class Rogue:
            pass

        with pytest.raises(TypeError, match="cannot serialize"):
            predictor_to_dict(Rogue())


class TestFallbackProperty:
    def test_public_fallback_matches_training_mean(self, traces):
        series = traces.task_series("RDG_FULL")
        p = EwmaMarkovPredictor.fit(series)
        mean = float(np.concatenate([np.asarray(s) for s in series]).mean())
        assert p.fallback_ms == pytest.approx(mean)
        # Serialization reads the public property, not private state.
        assert predictor_to_dict(p)["fallback_ms"] == p.fallback_ms
