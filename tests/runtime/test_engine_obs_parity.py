"""Observed runs: the batched engine emits the scalar loop's telemetry.

Observability must not change the code that runs, nor what it
reports.  For every registered workload and every batchable policy,
``run_tape(batched=True)`` under ``obs.observed()`` must produce the
scalar replay's frame table, metric series and trace -- span and event
names, attrs, nesting and order; ids and timestamps aside.  The
``online`` policy is the managed one over an ``online_update=True``
model, whose chains the batch walk replays on copies.  A managed run
over a scenario-conditioned model reports the same predictor series
on both paths too.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest

import repro.obs as obs
from repro.core import TripleC
from repro.core.computation import EwmaMarkovPredictor
from repro.experiments.common import make_pipeline
from repro.experiments.fig7 import fig7_sequence
from repro.runtime import FrameEngine, StaticSerialPolicy, TripleCPolicy, record_tape

POLICIES = ("managed", "accuracy", "straightforward", "online")

#: Scalar table columns compared elementwise (dtype + values).
_COLUMNS = (
    "index",
    "predicted_scenario",
    "actual_scenario",
    "predicted_ms",
    "serial_ms",
    "latency_ms",
    "output_ms",
    "cores_used",
)


def _policy(kind: str, deployment, sim):
    if kind == "managed":
        return TripleCPolicy.for_simulator(copy.deepcopy(deployment.model), sim)
    if kind == "online":
        return TripleCPolicy.for_simulator(
            copy.deepcopy(deployment.online_model), sim
        )
    if kind == "accuracy":
        return StaticSerialPolicy(model=copy.deepcopy(deployment.model))
    return StaticSerialPolicy()


def _observed_run(deployment, kind: str, batched: bool):
    sim = deployment.config.make_simulator()
    engine = FrameEngine(sim, _policy(kind, deployment, sim))
    assert engine.policy.supports_batch()
    with obs.observed() as o:
        result = engine.run_tape(
            deployment.tape, seq_key="obs-par", batched=batched
        )
    return o, result


def _trace_shape(records):
    """Records with ids replaced by positions and timestamps dropped."""
    position = {
        r["id"]: i for i, r in enumerate(records) if r["kind"] == "span"
    }
    shape = []
    for r in records:
        if r["kind"] == "span":
            parent = r["parent"]
            ref = position[parent] if parent is not None else None
        else:
            ref = position[r["span"]] if r["span"] is not None else None
        shape.append((r["kind"], r["name"], ref, r["attrs"]))
    return shape


def _series(snapshot, section):
    return {
        (e["name"], tuple(sorted(e["labels"].items()))): e
        for e in snapshot[section]
    }


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)


@pytest.mark.parametrize("kind", POLICIES)
def test_observed_batched_run_matches_scalar(deployment, kind):
    o_b, batched = _observed_run(deployment, kind, batched=True)
    o_s, scalar = _observed_run(deployment, kind, batched=False)
    _assert_same_run(o_b, batched, o_s, scalar)


@pytest.mark.parametrize("online_update", [False, True])
def test_observed_conditioned_run_matches_scalar(
    traces, profile_config, online_update
):
    """A scenario-conditioned model's inner and pooled predictors
    report the scalar loop's series from the batched walk."""
    seq = fig7_sequence(n_frames=48)
    tape = record_tape(seq, make_pipeline(seq))
    model = TripleC.fit(
        traces,
        online_update=online_update,
        predictor_kinds={"CPLS_SEL": "scenario-conditioned"},
    )

    def run(batched: bool):
        sim = profile_config.make_simulator()
        policy = TripleCPolicy.for_simulator(copy.deepcopy(model), sim)
        engine = FrameEngine(sim, policy)
        assert engine.policy.supports_batch()
        with obs.observed() as o:
            result = engine.run_tape(tape, seq_key="obs-cond", batched=batched)
        return o, result

    o_b, batched = run(batched=True)
    _assert_same_run(o_b, batched, *run(batched=False))
    names = {inst.name for inst in o_b.metrics.instruments()}
    assert {
        "markov_state_total",
        "predict_ewma_component_ms",
        "predict_markov_component_ms",
    } <= names


def _assert_same_run(o_b, batched, o_s, scalar):
    # Frame tables, column for column.
    assert len(batched) == len(scalar)
    for name in _COLUMNS:
        got = batched.table.column(name)
        want = scalar.table.column(name)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), f"column {name!r} diverged"
    assert batched.frames == scalar.frames

    # Metric series: the same set; exact counts, float sums to 1e-9.
    snap_b, snap_s = o_b.metrics.snapshot(), o_s.metrics.snapshot()
    for section in ("counters", "gauges"):
        got, want = _series(snap_b, section), _series(snap_s, section)
        assert got.keys() == want.keys(), section
        for key, entry in want.items():
            assert _close(got[key]["value"], entry["value"]), key
    got, want = _series(snap_b, "histograms"), _series(snap_s, "histograms")
    assert got.keys() == want.keys()
    for key, entry in want.items():
        assert got[key]["bounds"] == entry["bounds"], key
        assert got[key]["counts"] == entry["counts"], key
        assert got[key]["count"] == entry["count"], key
        assert _close(got[key]["sum"], entry["sum"]), key

    # Trace: names, attrs, nesting and order.
    assert _trace_shape(o_b.tracer.records) == _trace_shape(o_s.tracer.records)


def test_observed_run_emits_every_layer(deployment):
    """The parity above is not vacuous: the managed run reports each
    layer's series, and one span per frame under its sequence span."""
    o, result = _observed_run(deployment, "managed", batched=True)
    names = {inst.name for inst in o.metrics.instruments()}
    kinds = {type(p) for p in deployment.model.computation.predictors.values()}
    if EwmaMarkovPredictor in kinds:  # StentBoost trains the Markov models
        assert {
            "predict_ewma_component_ms",
            "predict_markov_component_ms",
            "markov_state_total",
        } <= names
    assert {
        "runtime_frames_total",
        "runtime_frame_residual_ms",
        "predict_residual_ms",
        "partition_decision_total",
        "cost_jitter_draw_total",
        "bus_traffic_bytes_total",
        "hw_external_bytes_total",
        "hw_eviction_bytes_total",
    } <= names
    spans = [r for r in o.tracer.records if r["kind"] == "span"]
    (seq_span,) = [r for r in spans if r["name"] == "engine.sequence"]
    frames = [r for r in spans if r["name"] == "engine.frame"]
    assert len(frames) == len(result)
    assert all(r["parent"] == seq_span["id"] for r in frames)


@pytest.mark.parametrize("batched", [True, False])
def test_residuals_compare_with_the_frame_prediction(deployment, batched):
    """``predict_residual_ms`` is measured minus the frame's own
    per-task prediction, for every task predicted and executed."""
    o, result = _observed_run(deployment, "managed", batched=batched)
    want: dict[str, list[float]] = {}
    for frame in result.frames:
        for task, predicted in frame.predicted_task_ms.items():
            if task in frame.task_ms:
                want.setdefault(task, []).append(frame.task_ms[task] - predicted)
    got = {
        dict(h.labels)["task"]: h
        for h in o.metrics.instruments()
        if h.name == "predict_residual_ms"
    }
    assert got.keys() == want.keys()
    for task, residuals in want.items():
        assert got[task].count == len(residuals), task
        assert _close(got[task].sum, math.fsum(residuals)), task

