"""Bit-for-bit parity of the batched engine with the scalar loop.

The batched path (``FrameEngine.run(batched=True)``) must be an
*optimization only*: for every policy the recorded tables -- every
logged float, scenario id, partition map and per-task time -- and the
simulator's bandwidth ledger must equal the scalar loop's exactly,
and the policy's model must end the run in the same state.
Configurations the batch walk cannot reproduce (quality control,
warmed-up predictors, DRAM contention) must fall back to the scalar
loop rather than diverge; observability and online-updating chains
are not among them.
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
    ResourceManager,
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


class TestBatchParity:
    def test_straightforward(self, seq, profile_config):
        sim_s = profile_config.make_simulator()
        sim_b = profile_config.make_simulator()
        scalar = FrameEngine(sim_s, StaticSerialPolicy()).run(
            seq, make_pipeline(seq), seq_key="b-sw"
        )
        engine = FrameEngine(sim_b, StaticSerialPolicy())
        assert engine._batch_supported()
        batched = engine.run(seq, make_pipeline(seq), seq_key="b-sw", batched=True)
        assert_bit_identical(batched, scalar)
        assert _ledger_state(sim_b) == _ledger_state(sim_s)

    def test_straightforward_with_model(self, seq, traces, profile_config):
        sim_s = profile_config.make_simulator()
        sim_b = profile_config.make_simulator()
        scalar = FrameEngine(
            sim_s, StaticSerialPolicy(model=TripleC.fit(traces))
        ).run(seq, make_pipeline(seq), seq_key="b-swm")
        engine = FrameEngine(
            sim_b, StaticSerialPolicy(model=TripleC.fit(traces))
        )
        assert engine._batch_supported()
        batched = engine.run(
            seq, make_pipeline(seq), seq_key="b-swm", batched=True
        )
        assert_bit_identical(batched, scalar)

    def test_managed(self, seq, traces, profile_config):
        mgr_s = ResourceManager(
            TripleC.fit(traces), profile_config.make_simulator()
        )
        scalar = mgr_s.run_sequence(seq, make_pipeline(seq), seq_key="b-mg")
        mgr_b = ResourceManager(
            TripleC.fit(traces), profile_config.make_simulator()
        )
        assert mgr_b.engine._batch_supported()
        batched = mgr_b.run_sequence(
            seq, make_pipeline(seq), seq_key="b-mg", batched=True
        )
        assert_bit_identical(batched, scalar)
        assert _ledger_state(mgr_b.simulator) == _ledger_state(mgr_s.simulator)

    def test_managed_model_end_state(self, seq, traces, profile_config):
        mgr_s = ResourceManager(
            TripleC.fit(traces), profile_config.make_simulator()
        )
        mgr_s.run_sequence(seq, make_pipeline(seq), seq_key="b-st")
        mgr_b = ResourceManager(
            TripleC.fit(traces), profile_config.make_simulator()
        )
        mgr_b.run_sequence(
            seq, make_pipeline(seq), seq_key="b-st", batched=True
        )
        assert (
            mgr_b.triplec._current_scenario == mgr_s.triplec._current_scenario
        )
        assert np.array_equal(
            mgr_b.triplec.scenarios.counts, mgr_s.triplec.scenarios.counts
        )
        # The warmed predictors answer identically after either run.
        pred_s = mgr_s.triplec.predict(100.0)
        pred_b = mgr_b.triplec.predict(100.0)
        assert pred_b.task_ms == pred_s.task_ms
        assert pred_b.scenario_id == pred_s.scenario_id

    def test_worst_case(self, seq, profile_config):
        sim_s = profile_config.make_simulator()
        sim_b = profile_config.make_simulator()
        scalar = FrameEngine(sim_s, WorstCaseReservationPolicy(120.0)).run(
            seq, make_pipeline(seq), seq_key="b-wc"
        )
        engine = FrameEngine(sim_b, WorstCaseReservationPolicy(120.0))
        assert engine._batch_supported()
        batched = engine.run(
            seq, make_pipeline(seq), seq_key="b-wc", batched=True
        )
        assert_bit_identical(batched, scalar)


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
            assert engine._batch_supported()
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


class TestBatchFallback:
    def test_quality_controller_falls_back(self, seq, traces, profile_config):
        """Quality control mutates the live pipeline per frame; the
        batched flag must quietly take the scalar loop."""

        def managed_quality(batched: bool):
            mgr = ResourceManager(
                TripleC.fit(traces),
                profile_config.make_simulator(),
                budget_ms=40.0,
                quality_controller=QualityController(),
            )
            assert not mgr.engine._batch_supported()
            return mgr.run_sequence(
                seq, make_pipeline(seq), seq_key="b-q", batched=batched
            )

        assert_bit_identical(managed_quality(True), managed_quality(False))

    def test_warm_model_falls_back(self, seq, traces, profile_config):
        """A second run starts from warmed predictor state, which the
        batch walk cannot reproduce -- it must fall back, and the
        two-run outcome must match two scalar runs."""

        def run_twice(batched: bool):
            mgr = ResourceManager(
                TripleC.fit(traces), profile_config.make_simulator()
            )
            first = mgr.run_sequence(
                seq, make_pipeline(seq), seq_key="b-w1", batched=batched
            )
            if batched:
                assert not mgr.engine._batch_supported()
            second = mgr.run_sequence(
                seq, make_pipeline(seq), seq_key="b-w2", batched=batched
            )
            return first, second

        scalar1, scalar2 = run_twice(False)
        batched1, batched2 = run_twice(True)
        assert_bit_identical(batched1, scalar1)
        assert_bit_identical(batched2, scalar2)

    def test_observability_keeps_batched_path(self, profile_config):
        sim = profile_config.make_simulator()
        engine = FrameEngine(sim, StaticSerialPolicy())
        with obs.observed():
            assert engine._batch_supported()
            sim.dram_contention = True
            assert not engine._batch_supported()

    def test_dram_contention_forces_scalar(self, profile_config):
        sim = profile_config.make_simulator()
        sim.dram_contention = True
        engine = FrameEngine(sim, StaticSerialPolicy())
        assert not engine._batch_supported()


class TestRunTape:
    def test_scalar_replay_matches_live_run(self, seq, traces, profile_config):
        """A recorded tape replayed through the unmodified scalar loop
        reproduces the live run exactly."""
        mgr_live = ResourceManager(
            TripleC.fit(traces), profile_config.make_simulator()
        )
        live = mgr_live.run_sequence(seq, make_pipeline(seq), seq_key="b-tp")

        tape = record_tape(seq, make_pipeline(seq))
        mgr_tape = ResourceManager(
            TripleC.fit(traces), profile_config.make_simulator()
        )
        replayed = mgr_tape.engine.run_tape(tape, seq_key="b-tp", batched=False)
        assert_bit_identical(replayed, live)

    def test_batched_tape_matches_live_run(self, seq, traces, profile_config):
        tape = record_tape(seq, make_pipeline(seq))
        mgr_live = ResourceManager(
            TripleC.fit(traces), profile_config.make_simulator()
        )
        live = mgr_live.run_sequence(seq, make_pipeline(seq), seq_key="b-tb")
        mgr_tape = ResourceManager(
            TripleC.fit(traces), profile_config.make_simulator()
        )
        batched = mgr_tape.engine.run_tape(tape, seq_key="b-tb", batched=True)
        assert_bit_identical(batched, live)

    def test_replay_refuses_frame_setup(self, seq, profile_config):
        tape = record_tape(seq, make_pipeline(seq))
        engine = FrameEngine(
            profile_config.make_simulator(),
            StaticSerialPolicy(frame_setup=lambda pipeline: None),
        )
        with pytest.raises(ValueError, match="frame_setup"):
            engine.run_tape(tape, batched=False)
