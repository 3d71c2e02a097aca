"""Bit-for-bit parity of the batched engine with the scalar loop.

``FrameEngine.run`` takes the batched walk for every configuration it
can reproduce, so the walk must be an *optimization only*: for every
policy the recorded tables -- every logged float, scenario id,
partition map and per-task time -- and the simulator's bandwidth
ledger must equal the scalar loop's exactly (``run_tape(...,
batched=False)`` is the reference), and the policy's model must end
the run in the same state.  Warm models, DRAM contention,
observability, online-updating chains and scenario-conditioned
predictors all stay on the walk; only quality control runs the scalar
loop.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

import repro.obs as obs
from repro.core import TripleC
from repro.experiments.common import make_pipeline
from repro.experiments.fig7 import fig7_sequence
from repro.runtime import (
    FrameEngine,
    QualityController,
    StaticSerialPolicy,
    TripleCPolicy,
    WorstCaseReservationPolicy,
    record_tape,
)
#: Scalar table columns compared elementwise (dtype + bytes).
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


@pytest.fixture(scope="module")
def seq():
    return fig7_sequence(n_frames=48)


def assert_bit_identical(batched, scalar):
    assert batched.label == scalar.label
    assert batched.budget_ms == scalar.budget_ms
    assert len(batched) == len(scalar)
    for name in _COLUMNS:
        got = batched.table.column(name)
        want = scalar.table.column(name)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), f"column {name!r} diverged"
    # FrameLog equality additionally covers parts, quality and the
    # per-task measured/predicted time dicts.
    for got, want in zip(batched.frames, scalar.frames):
        assert got == want


def _ledger_state(simulator):
    return (
        simulator.ledger.frames,
        {
            link: simulator.ledger.total_bytes(link)
            for link in ("dram", "bus", "l2")
        },
    )


def _managed(traces, profile_config, **kwargs) -> FrameEngine:
    sim = profile_config.make_simulator()
    return FrameEngine(
        sim, TripleCPolicy.for_simulator(TripleC.fit(traces), sim, **kwargs)
    )


def _scalar_run(engine, seq, seq_key):
    """The scalar reference: the sequence's tape through the scalar loop."""
    return engine.run_tape(
        record_tape(seq, make_pipeline(seq)), seq_key=seq_key, batched=False
    )


def _forbid_scalar(engine):
    """Make the scalar loop unreachable on ``engine``."""

    def refuse(*args, **kwargs):
        raise AssertionError("a batchable run took the scalar loop")

    engine._run_scalar = refuse
    return engine


class TestBatchParity:
    def test_straightforward(self, seq, profile_config):
        sim_s = profile_config.make_simulator()
        sim_b = profile_config.make_simulator()
        scalar = _scalar_run(FrameEngine(sim_s, StaticSerialPolicy()), seq, "b-sw")
        engine = _forbid_scalar(FrameEngine(sim_b, StaticSerialPolicy()))
        batched = engine.run(seq, make_pipeline(seq), seq_key="b-sw")
        assert_bit_identical(batched, scalar)
        assert _ledger_state(sim_b) == _ledger_state(sim_s)

    def test_straightforward_with_model(self, seq, traces, profile_config):
        scalar = _scalar_run(
            FrameEngine(
                profile_config.make_simulator(),
                StaticSerialPolicy(model=TripleC.fit(traces)),
            ),
            seq,
            "b-swm",
        )
        engine = _forbid_scalar(
            FrameEngine(
                profile_config.make_simulator(),
                StaticSerialPolicy(model=TripleC.fit(traces)),
            )
        )
        batched = engine.run(seq, make_pipeline(seq), seq_key="b-swm")
        assert_bit_identical(batched, scalar)

    def test_managed(self, seq, traces, profile_config):
        engine_s = _managed(traces, profile_config)
        scalar = _scalar_run(engine_s, seq, "b-mg")
        engine_b = _forbid_scalar(_managed(traces, profile_config))
        batched = engine_b.run(seq, make_pipeline(seq), seq_key="b-mg")
        assert_bit_identical(batched, scalar)
        assert _ledger_state(engine_b.simulator) == _ledger_state(
            engine_s.simulator
        )

    def test_managed_model_end_state(self, seq, traces, profile_config):
        engine_s = _managed(traces, profile_config)
        _scalar_run(engine_s, seq, "b-st")
        engine_b = _managed(traces, profile_config)
        engine_b.run(seq, make_pipeline(seq), seq_key="b-st")
        model_s = engine_s.policy.triplec
        model_b = engine_b.policy.triplec
        assert model_b._current_scenario == model_s._current_scenario
        assert np.array_equal(model_b.scenarios.counts, model_s.scenarios.counts)
        # The warmed predictors answer identically after either run.
        pred_s = model_s.predict(100.0)
        pred_b = model_b.predict(100.0)
        assert pred_b.task_ms == pred_s.task_ms
        assert pred_b.scenario_id == pred_s.scenario_id

    def test_worst_case(self, seq, profile_config):
        sim_s = profile_config.make_simulator()
        sim_b = profile_config.make_simulator()
        scalar = _scalar_run(
            FrameEngine(sim_s, WorstCaseReservationPolicy(120.0)), seq, "b-wc"
        )
        engine = _forbid_scalar(FrameEngine(sim_b, WorstCaseReservationPolicy(120.0)))
        batched = engine.run(seq, make_pipeline(seq), seq_key="b-wc")
        assert_bit_identical(batched, scalar)

    def test_most_likely_partitioning(self, seq, traces, profile_config):
        """``p_min`` above 1 plans for the most likely scenario only, on
        both paths (the partition-policy ablation's non-robust arm)."""
        tape = record_tape(seq, make_pipeline(seq))

        def run(batched: bool):
            engine = _managed(traces, profile_config, p_min=1.1)
            partitioner = engine.policy.partitioner
            choose = partitioner.choose_robust
            seen: list[int] = []

            def recording(scenario_preds, budget):
                seen.append(len(scenario_preds))
                return choose(scenario_preds, budget)

            partitioner.choose_robust = recording
            result = engine.run_tape(tape, seq_key="b-ml", batched=batched)
            return result, seen

        batched, seen_b = run(True)
        scalar, seen_s = run(False)
        assert_bit_identical(batched, scalar)
        assert seen_b == seen_s == [1] * len(tape)


def _predictor_state(model):
    """What a run leaves behind in a model's predictors."""
    state = {}
    for task, p in model.computation.predictors.items():
        chain = getattr(p, "chain", None)
        lpf = getattr(p, "_ewma", None)
        state[task] = (
            getattr(p, "_last", None),
            getattr(p, "_last_residual", None),
            None if lpf is None else lpf.value,
            None if chain is None else chain.counts.tobytes(),
            None if chain is None else chain.transition.tobytes(),
        )
    return state


class TestOnlineBatchParity:
    """Online-update models take the batched path, bit for bit."""

    def test_fresh_online_model_is_batchable(self, deployment):
        sim = deployment.config.make_simulator()
        policy = TripleCPolicy.for_simulator(
            copy.deepcopy(deployment.online_model), sim
        )
        assert policy.supports_batch()

    @staticmethod
    def _two_runs(deployment, batched: bool):
        model = copy.deepcopy(deployment.online_model)
        sim = deployment.config.make_simulator()
        engine = FrameEngine(sim, TripleCPolicy.for_simulator(model, sim))
        runs = []
        for r in range(2):
            # The second run starts from the chains the first one
            # trained; start_sequence resets only per-sequence state.
            model.start_sequence()
            assert engine.policy.supports_batch()
            result = engine.run_tape(
                deployment.tape, seq_key=f"b-on{r}", batched=batched
            )
            runs.append(
                (
                    result,
                    _predictor_state(model),
                    model.scenarios.counts.copy(),
                    model._current_scenario,
                )
            )
        return runs

    def test_runs_match_scalar(self, deployment):
        batched = self._two_runs(deployment, batched=True)
        scalar = self._two_runs(deployment, batched=False)
        for got, want in zip(batched, scalar):
            assert_bit_identical(got[0], want[0])
            assert got[1] == want[1]
            assert np.array_equal(got[2], want[2])
            assert got[3] == want[3]
        # Not vacuous where chains exist: the first run trained them.
        pristine = _predictor_state(deployment.online_model)
        chains = {t for t, state in pristine.items() if state[3] is not None}
        trained = {t for t in chains if batched[0][1][t][3] != pristine[t][3]}
        assert trained or not chains


class TestConditionedBatchParity:
    """A scenario-conditioned predictor takes the batched walk, bit for
    bit: per-granularity inner walks over the executions observed in
    each group, the pooled walk over all of them."""

    @pytest.mark.parametrize("online_update", [False, True])
    @pytest.mark.parametrize("untrained_group", [None, 0])
    def test_managed_run_matches_scalar(
        self, seq, traces, profile_config, online_update, untrained_group
    ):
        model = TripleC.fit(
            traces,
            online_update=online_update,
            predictor_kinds={"CPLS_SEL": "scenario-conditioned"},
        )
        inner = model.computation.predictors["CPLS_SEL"].inner
        assert sorted(inner) == [0, 1]
        if untrained_group is not None:
            # A group that never trained answers from the pooled predictor.
            del inner[untrained_group]
        tape = record_tape(seq, make_pipeline(seq))

        def run(batched: bool):
            m = copy.deepcopy(model)
            sim = profile_config.make_simulator()
            engine = FrameEngine(sim, TripleCPolicy.for_simulator(m, sim))
            assert engine.policy.supports_batch()
            if batched:
                _forbid_scalar(engine)
            result = engine.run_tape(tape, seq_key="b-cond", batched=batched)
            return result, m.scenarios.counts.copy(), m.predict(100.0).task_ms

        got, want = run(batched=True), run(batched=False)
        assert_bit_identical(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        # The predictors end the run warmed identically.
        assert got[2] == want[2]


class _RaisingPlanPolicy(StaticSerialPolicy):
    """A batchable policy whose per-frame step must never run."""

    def plan_frame(self, engine, pipeline, img):
        raise AssertionError("plan_frame called on a batchable run")


class TestBatchFallback:
    """Which loop ``FrameEngine.run`` takes: the walk for every
    configuration it reproduces, the scalar loop for quality control."""

    def test_batchable_run_never_takes_scalar_loop(self, seq, profile_config):
        engine = FrameEngine(profile_config.make_simulator(), _RaisingPlanPolicy())
        result = engine.run(seq, make_pipeline(seq), seq_key="b-guard")
        assert len(result) == len(seq)

    def test_observability_keeps_batched_path(self, seq, profile_config):
        engine = FrameEngine(profile_config.make_simulator(), _RaisingPlanPolicy())
        with obs.observed():
            result = engine.run(seq, make_pipeline(seq), seq_key="b-obs")
        assert len(result) == len(seq)

    def test_quality_controller_falls_back(self, seq, traces, profile_config):
        """Quality control mutates the live pipeline per frame, which a
        recorded tape cannot honor: ``run`` takes the scalar loop."""

        def managed_quality():
            return _managed(
                traces,
                profile_config,
                budget_ms=40.0,
                quality_controller=QualityController(),
            )

        engine = managed_quality()
        assert not engine.policy.supports_batch()

        def refuse(*args, **kwargs):
            raise AssertionError("quality control took the batched walk")

        engine._run_batched = refuse
        got = engine.run(seq, make_pipeline(seq), seq_key="b-q")
        want = managed_quality()._run_scalar(seq, make_pipeline(seq), "b-q", None)
        assert_bit_identical(got, want)

    def test_warm_model_batches(self, seq, traces, profile_config):
        """A second run of the same model starts from warmed predictors;
        the run start resets them, so it batches and matches two
        scalar runs."""
        tape = record_tape(seq, make_pipeline(seq))
        engine_s = _managed(traces, profile_config)
        scalar = [
            engine_s.run_tape(tape, seq_key=f"b-w{r}", batched=False)
            for r in range(2)
        ]
        engine_b = _managed(traces, profile_config)
        first = engine_b.run(seq, make_pipeline(seq), seq_key="b-w0")
        _forbid_scalar(engine_b)
        second = engine_b.run(seq, make_pipeline(seq), seq_key="b-w1")
        assert_bit_identical(first, scalar[0])
        assert_bit_identical(second, scalar[1])

    def test_dram_contention_parity(self, deployment):
        """A frame's chain never overlaps itself, so DRAM contention
        leaves the engine's frames unchanged, and the walk prices them
        exactly."""

        def run(contention: bool, batched: bool):
            sim = deployment.config.make_simulator()
            sim.dram_contention = contention
            policy = TripleCPolicy.for_simulator(copy.deepcopy(deployment.model), sim)
            return FrameEngine(sim, policy).run_tape(
                deployment.tape, seq_key="b-dram", batched=batched
            )

        reference = run(contention=False, batched=False)
        for contention in (False, True):
            for batched in (False, True):
                assert_bit_identical(run(contention, batched), reference)


class TestRunTape:
    def test_scalar_replay_matches_live_run(self, seq, traces, profile_config):
        """A recorded tape replayed through the unmodified scalar loop
        reproduces the live scalar run exactly."""
        live = _managed(traces, profile_config)._run_scalar(
            seq, make_pipeline(seq), "b-tp", None
        )
        tape = record_tape(seq, make_pipeline(seq))
        replayed = _managed(traces, profile_config).run_tape(
            tape, seq_key="b-tp", batched=False
        )
        assert_bit_identical(replayed, live)

    def test_batched_tape_matches_live_run(self, seq, traces, profile_config):
        tape = record_tape(seq, make_pipeline(seq))
        live = _managed(traces, profile_config)._run_scalar(
            seq, make_pipeline(seq), "b-tb", None
        )
        batched = _managed(traces, profile_config).run_tape(
            tape, seq_key="b-tb", batched=True
        )
        assert_bit_identical(batched, live)

    def test_replay_refuses_frame_setup(self, seq, profile_config):
        tape = record_tape(seq, make_pipeline(seq))
        engine = FrameEngine(
            profile_config.make_simulator(),
            StaticSerialPolicy(frame_setup=lambda pipeline: None),
        )
        with pytest.raises(ValueError, match="frame_setup"):
            engine.run_tape(tape, batched=False)
