"""The frame engine: one per-frame loop, many scheduling policies.

Section 6's runtime is a single control loop -- predict, (re)map,
execute, observe -- that the paper evaluates under different policies
(semi-automatic parallel, straightforward static, worst-case
reservation, multi-application placement).  :class:`FrameEngine` owns
that loop exactly once: budget initialization, the delay line, obs
spans/metrics, model feedback and :class:`FrameLog`/:class:`RunResult`
assembly all live here, while a :class:`SchedulingPolicy` contributes
only the per-frame *decision* (which mapping, which quality level,
which prediction).

Callers build the engine directly: the managed run is
``FrameEngine(sim, TripleCPolicy.for_simulator(model, sim))``, the
paper's baselines use :class:`StaticSerialPolicy` and
:class:`WorstCaseReservationPolicy`, and the multiapp/throughput
drivers express their placements as a :class:`CoschedulePolicy`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

import repro.obs as obs
from repro.core.triplec import TripleC, TripleCPrediction
from repro.hw.mapping import Mapping
from repro.hw.simulator import FrameResult, PlatformSimulator
from repro.imaging.pipeline import AnalysisPipeline, FrameAnalysis
from repro.runtime.batchplan import (
    BatchCosts,
    BatchPlans,
    collect_batch_costs,
    replay_observes,
    walk_scenario_predictions,
)
from repro.runtime.frametable import FrameLog, FrameTable
from repro.runtime.partition import PartitionDecision, Partitioner
from repro.runtime.qos import DelayLine, LatencyBudget
from repro.runtime.tape import FrameTape, TapePipeline, TapeSequence, record_tape
from repro.synthetic.sequence import XRaySequence
from repro.util.stats import JitterMetrics, jitter_metrics

__all__ = [
    "FrameLog",
    "FrameTape",
    "RunResult",
    "FramePlan",
    "SchedulingPolicy",
    "FrameEngine",
    "TripleCPolicy",
    "StaticSerialPolicy",
    "WorstCaseReservationPolicy",
    "CoschedulePolicy",
    "record_tape",
    "simulate_report_sweep",
]


@dataclass(frozen=True)
class FramePlan:
    """One policy decision, made *before* the frame executes.

    Attributes
    ----------
    mapping:
        Task placement the simulator executes.
    cores_used:
        Distinct cores the mapping occupies (logged + gauged).
    parts:
        Partition count per split task; changes between consecutive
        frames count as repartitions.
    quality:
        Quality-level name the policy selected ("full" when no
        controller is active).
    prediction:
        The Triple-C prediction driving the decision, when the policy
        made one (None for prediction-free baselines).
    predicted_ms:
        Value logged as the frame's predicted serial time.  ``None``
        means "no a-priori estimate": the engine logs the measured
        latency, preserving the straightforward baseline's convention.
    roi_kpixels:
        ROI size the prediction assumed (fed back on observe).
    """

    mapping: Mapping
    cores_used: int = 1
    parts: dict[str, int] = field(default_factory=dict)
    quality: str = "full"
    prediction: TripleCPrediction | None = None
    predicted_ms: float | None = None
    roi_kpixels: float = 0.0


class SchedulingPolicy(Protocol):
    """What a run mode contributes to the engine's loop."""

    #: Default RunResult label of runs under this policy.
    label: str

    def begin_run(self, engine: "FrameEngine") -> LatencyBudget | None:
        """Reset per-sequence state; return the latency budget.

        Returning ``None`` disables the delay line (output latency
        equals completion latency).
        """
        ...

    def plan_frame(
        self, engine: "FrameEngine", pipeline: AnalysisPipeline, img
    ) -> FramePlan:
        """Decide mapping/quality for the frame about to execute."""
        ...

    def observe_frame(
        self, plan: FramePlan, analysis: FrameAnalysis, result: FrameResult
    ) -> None:
        """Feed the measured frame back into the policy's model."""
        ...

    def supports_batch(self) -> bool:
        """Whether :meth:`plan_frames`/:meth:`observe_frames` reproduce
        the per-frame steps exactly for this configuration."""
        ...

    def plan_frames(
        self, engine: "FrameEngine", tape: FrameTape, costs: BatchCosts
    ) -> BatchPlans:
        """Plan a whole recorded tape (vectorized :meth:`plan_frame`)."""
        ...

    def observe_frames(
        self,
        engine: "FrameEngine",
        tape: FrameTape,
        plans: BatchPlans,
        task_ms_frames: list[dict[str, float]],
    ) -> None:
        """Feed a whole tape's measurements back (vectorized
        :meth:`observe_frame`)."""
        ...


class RunResult:
    """Outcome of one managed (or baseline) sequence run.

    Engine-produced results are backed by a columnar
    :class:`~repro.runtime.frametable.FrameTable`: the latency /
    prediction series are zero-copy views of its columns and
    ``frames`` materializes :class:`FrameLog` rows lazily (cached
    until more frames are recorded).  Hand-assembled results (tests,
    notebooks) may still pass a ``frames`` list and mutate it; the
    table is derived on demand in that mode.
    """

    def __init__(
        self,
        frames: list[FrameLog] | None = None,
        budget_ms: float | None = None,
        label: str = "",
        table: FrameTable | None = None,
    ) -> None:
        if frames is not None and table is not None:
            raise ValueError("pass either frames or table, not both")
        self._table = table
        self._frames = None if table is not None else list(frames or [])
        self._log_cache: tuple[int, list[FrameLog]] | None = None
        self.budget_ms = budget_ms
        self.label = label

    @property
    def frames(self) -> list[FrameLog]:
        """Per-frame logs (materialized from the table when columnar)."""
        if self._frames is not None:
            return self._frames
        table = self._table
        assert table is not None
        cache = self._log_cache
        if cache is None or cache[0] != len(table):
            cache = (len(table), table.logs())
            self._log_cache = cache
        return cache[1]

    @property
    def table(self) -> FrameTable:
        """Columnar view of the run (built on demand for list-mode)."""
        if self._table is not None:
            return self._table
        assert self._frames is not None
        return FrameTable.from_logs(self._frames)

    def __len__(self) -> int:
        if self._table is not None:
            return len(self._table)
        assert self._frames is not None
        return len(self._frames)

    def _series(self, name: str, attr: str) -> np.ndarray:
        if self._table is not None:
            return self._table.column(name)
        return np.asarray([getattr(f, attr) for f in self.frames])

    def latency(self) -> np.ndarray:
        """Completion-latency series."""
        return self._series("latency_ms", "latency_ms")

    def output_latency(self) -> np.ndarray:
        """Post-delay-line output-latency series."""
        return self._series("output_ms", "output_ms")

    def serial_latency(self) -> np.ndarray:
        """What the same frames would cost serially (sum of tasks)."""
        return self._series("serial_ms", "serial_ms")

    def predicted(self) -> np.ndarray:
        """Per-frame predicted serial times."""
        return self._series("predicted_ms", "predicted_ms")

    def jitter(self) -> JitterMetrics:
        """Jitter metrics of the completion latency."""
        return jitter_metrics(self.latency())

    def scenario_hit_rate(self) -> float:
        """Fraction of frames whose scenario was predicted exactly."""
        n = len(self)
        if not n:
            return 0.0
        hits = int(
            np.count_nonzero(
                self._series("predicted_scenario", "predicted_scenario")
                == self._series("actual_scenario", "actual_scenario")
            )
        )
        return hits / n

    def mean_cores_used(self) -> float:
        """Average core usage (headroom for co-scheduling)."""
        if not len(self):
            return 0.0
        return float(np.mean(self._series("cores_used", "cores_used")))


def _frame_dicts(columns: dict[str, np.ndarray], n: int) -> list[dict]:
    """Per-frame ``{task: value}`` dicts from per-task table columns.

    Absent cells are 0 in integer (partition-count) columns and NaN
    in time columns (see :class:`FrameTable`); keys keep the columns'
    first-seen order, as :meth:`FrameTable.log` does.
    """
    rows: list[dict] = [{} for _ in range(n)]
    for task, col in columns.items():
        present = col > 0 if col.dtype.kind == "i" else ~np.isnan(col)
        idx = np.flatnonzero(present)
        for i, v in zip(idx.tolist(), col[idx].tolist()):
            rows[i][task] = v
    return rows


def _emit_run_telemetry(
    o: obs.Observability,
    seq_span: obs.Span,
    table: FrameTable,
    seq_key: object,
    label: str,
    budget_ms: float | None,
) -> None:
    """Emit one engine run's spans and metrics from its frame table.

    Both engine loops call this once, inside the ``engine.sequence``
    span, after the last frame is recorded.  It emits one
    ``engine.frame`` child span per frame (stamped at emission time,
    so span durations are not per-frame wall time; the simulated
    latency is the ``latency_ms`` attr), a ``repartition`` event
    wherever the partitioning changed, the ``runtime_*`` series and
    the per-task ``predict_residual_ms`` (measured minus predicted,
    per frame and task predicted and executed).  Every series gets
    one batched update per run.  Metric names are stable API (pinned
    by the obs report tests).
    """
    seq = str(seq_key)
    seq_span.set(seq=seq, label=label)
    if budget_ms is not None:
        seq_span.set(budget_ms=budget_ms)
    n = len(table)
    latency = table.column("latency_ms")
    actual = table.column("actual_scenario")
    predicted_sid = table.column("predicted_scenario")
    cores = table.column("cores_used")
    quality = table.quality_names()
    measured = table.task_columns("task_ms")
    predicted = table.task_columns("predicted_task_ms")
    # A frame was predicted iff its policy logged per-task predictions.
    has_pred = np.zeros(n, dtype=bool)
    for col in predicted.values():
        has_pred |= ~np.isnan(col)

    metrics = o.metrics
    metrics.counter("runtime_frames_total").inc(n)
    metrics.histogram("runtime_frame_latency_ms").observe_many(latency.tolist())
    cores_gauge = metrics.gauge("runtime_cores_in_use")
    if n:
        cores_gauge.set(cores[-1])
    frame_residual = table.column("serial_ms") - table.column("predicted_ms")
    metrics.histogram("runtime_frame_residual_ms").observe_many(
        frame_residual[has_pred].tolist()
    )
    hits = int(np.count_nonzero(has_pred & (actual == predicted_sid)))
    metrics.counter("runtime_scenario_hit_total").inc(hits)
    metrics.counter("runtime_scenario_miss_total").inc(
        int(np.count_nonzero(has_pred)) - hits
    )
    metrics.counter("runtime_deadline_miss_total").inc(
        int(np.count_nonzero(latency > budget_ms)) if budget_ms is not None else 0
    )
    metrics.counter("runtime_quality_degraded_total").inc(
        sum(q != "full" for q in quality)
    )
    for task, pcol in predicted.items():
        mcol = measured.get(task)
        if mcol is None:
            continue
        both = ~(np.isnan(pcol) | np.isnan(mcol))
        if both.any():
            metrics.histogram("predict_residual_ms", task=task).observe_many(
                (mcol - pcol)[both].tolist()
            )

    index = table.column("index").tolist()
    actual_ids = actual.tolist()
    predicted_ids = predicted_sid.tolist()
    latency_ms = latency.tolist()
    cores_used = cores.tolist()
    task_ms = _frame_dicts(measured, n)
    parts = _frame_dicts(table.task_columns("parts"), n)
    span = o.tracer.span
    repartitions = 0
    previous: dict[str, int] | None = None
    for i in range(n):
        with span("engine.frame") as sp:
            sp.set(
                seq=seq,
                frame=index[i],
                scenario=actual_ids[i],
                predicted_scenario=predicted_ids[i],
                latency_ms=latency_ms[i],
                task_ms=task_ms[i],
                cores=cores_used[i],
                quality=quality[i],
            )
            current = parts[i]
            if previous is not None and current != previous:
                repartitions += 1
                sp.event("repartition", parts=dict(current), previous=previous)
            previous = current
    metrics.counter("runtime_repartition_total").inc(repartitions)


class FrameEngine:
    """Runs a sequence through the simulator under one policy.

    The engine is the only place in the runtime that loops over
    ``simulate_frame``; everything policy-specific is delegated.
    """

    def __init__(
        self, simulator: PlatformSimulator, policy: SchedulingPolicy
    ) -> None:
        self.simulator = simulator
        self.policy = policy

    def run(
        self,
        sequence: XRaySequence,
        pipeline: AnalysisPipeline,
        seq_key: object = 0,
        label: str | None = None,
    ) -> RunResult:
        """Execute one sequence; returns the per-frame log.

        The engine records the image pass as a
        :class:`~repro.runtime.tape.FrameTape` and advances the whole
        sequence through the policy's vectorized batch steps --
        bit-identical to the scalar loop, several times faster.  Only
        a managed run with a quality controller, which the batch walk
        cannot reproduce, takes the scalar loop; results and telemetry
        are the same either way.
        """
        if self.policy.supports_batch():
            tape = record_tape(
                sequence, pipeline, getattr(self.policy, "frame_setup", None)
            )
            return self._run_batched(tape, seq_key, label)
        return self._run_scalar(sequence, pipeline, seq_key, label)

    def _run_scalar(
        self,
        sequence: XRaySequence,
        pipeline: AnalysisPipeline,
        seq_key: object,
        label: str | None,
    ) -> RunResult:
        """The per-frame loop: plan, process, simulate, observe.

        The reference the batched walk is pinned against, and the path
        for configurations it cannot reproduce.
        """
        budget = self.policy.begin_run(self)
        budget_ms = budget.require() if budget is not None else None
        delay = DelayLine(budget) if budget is not None else None
        run_label = self.policy.label if label is None else label
        table = FrameTable(capacity=len(sequence))
        result = RunResult(budget_ms=budget_ms, label=run_label, table=table)

        o = obs.get_obs()
        with o.tracer.span("engine.sequence") as seq_span:
            for img, _truth in sequence.iter_frames():
                plan = self.policy.plan_frame(self, pipeline, img)
                analysis = pipeline.process(img)
                frame_res = self.simulator.simulate_frame(
                    analysis.reports,
                    plan.mapping,
                    frame_key=(seq_key, analysis.index),
                )
                self.policy.observe_frame(plan, analysis, frame_res)
                out_ms = (
                    delay.push(frame_res.latency_ms)
                    if delay is not None
                    else frame_res.latency_ms
                )
                self._log_frame(table, plan, analysis, frame_res, out_ms)
            if o.enabled:
                _emit_run_telemetry(
                    o, seq_span, table, seq_key, run_label, budget_ms
                )
        return result

    def run_tape(
        self,
        tape: FrameTape,
        seq_key: object = 0,
        label: str | None = None,
        batched: bool = True,
    ) -> RunResult:
        """Execute a recorded tape (see :func:`record_tape`).

        ``batched=True`` takes the vectorized path when supported and
        falls back to replaying the tape through the scalar loop via
        the tape shims; ``batched=False`` forces the scalar replay
        (the reference the parity suites compare against).
        """
        if batched and self.policy.supports_batch():
            return self._run_batched(tape, seq_key, label)
        if getattr(self.policy, "frame_setup", None) is not None:
            raise ValueError(
                "tape replay cannot re-run a frame_setup hook; the "
                "recorded tape already embodies it (record_tape ran it)"
            )
        if getattr(self.policy, "quality_controller", None) is not None:
            raise ValueError(
                "tape replay cannot drive a quality controller; the "
                "recorded analyses are fixed"
            )
        return self._run_scalar(TapeSequence(tape), TapePipeline(tape), seq_key, label)

    def _run_batched(
        self, tape: FrameTape, seq_key: object, label: str | None
    ) -> RunResult:
        """The vectorized loop body: price, plan, fold, observe.

        Executes the same four stages as the scalar loop, each over
        the whole tape: costs come from the columnar cost path, plans
        from the policy's ``plan_frames``, the per-frame fold applies
        the scheduling arithmetic and writes the frame table, and
        ``observe_frames`` replays the model feedback.  Every float
        matches the scalar loop bit for bit (pinned by the batch
        parity suite), and so does the telemetry emitted from the
        table afterwards.
        """
        policy = self.policy
        budget = policy.begin_run(self)
        budget_ms = budget.require() if budget is not None else None
        delay = DelayLine(budget) if budget is not None else None
        run_label = policy.label if label is None else label
        table = FrameTable(capacity=len(tape))
        result = RunResult(budget_ms=budget_ms, label=run_label, table=table)

        o = obs.get_obs()
        with o.tracer.span("engine.sequence") as seq_span:
            costs = collect_batch_costs(self.simulator, tape, seq_key)
            plans: BatchPlans = policy.plan_frames(self, tape, costs)
            n_cores = self.simulator.platform.n_cores
            if any(
                m.assignments or m.default_core >= n_cores
                for m in plans.mappings
            ):
                task_ms_frames = self._fold_mapped_frames(
                    tape, costs, plans, delay, table
                )
            else:
                task_ms_frames = self._fold_serial_frames(
                    tape, costs, plans, delay, table
                )
            policy.observe_frames(self, tape, plans, task_ms_frames)
            if o.enabled:
                _emit_run_telemetry(
                    o, seq_span, table, seq_key, run_label, budget_ms
                )
        return result

    def _fold_mapped_frames(
        self,
        tape: FrameTape,
        costs: BatchCosts,
        plans: BatchPlans,
        delay: DelayLine | None,
        table: FrameTable,
    ) -> list[dict[str, float]]:
        """Per-frame scheduling fold for plans that place tasks off the
        serial core: each frame's pre-priced chain goes through
        :meth:`~repro.hw.simulator.PlatformSimulator.simulate_costed_frame`.
        Returns the per-frame measured-time dicts for ``observe_frames``.
        """
        simulator = self.simulator
        analyses = tape.analyses
        by_task = costs.by_task
        cursors = dict.fromkeys(by_task, 0)
        mappings = plans.mappings
        cores_used = plans.cores_used
        predicted_scenario = plans.predicted_scenario
        has_prediction = plans.has_prediction
        predicted_ms = plans.predicted_ms
        parts = plans.parts
        predicted_task_ms = plans.predicted_task_ms
        add_frame = table.add_frame
        task_ms_frames: list[dict[str, float]] = []
        for k in range(len(tape)):
            analysis = analyses[k]
            reports = analysis.reports
            frame_costs = {}
            for name in reports:
                j = cursors[name]
                cursors[name] = j + 1
                bc = by_task[name]
                frame_costs[name] = (
                    bc.total_ms[j],
                    int(bc.eviction_bytes[j]),
                    int(bc.external_bytes[j]),
                )
            frame_res = simulator.simulate_costed_frame(
                reports, mappings[k], frame_costs
            )
            latency = frame_res.latency_ms
            out_ms = delay.push(latency) if delay is not None else latency
            p_ms = predicted_ms[k]
            add_frame(
                index=analysis.index,
                predicted_scenario=(
                    int(predicted_scenario[k])
                    if has_prediction[k]
                    else analysis.scenario_id
                ),
                actual_scenario=analysis.scenario_id,
                predicted_ms=(latency if np.isnan(p_ms) else p_ms),
                serial_ms=float(sum(frame_res.task_ms.values())),
                latency_ms=latency,
                output_ms=out_ms,
                cores_used=int(cores_used[k]),
                parts=parts[k],
                task_ms=frame_res.task_ms,
                predicted_task_ms=predicted_task_ms[k],
            )
            task_ms_frames.append(frame_res.task_ms)
        return task_ms_frames

    def _fold_serial_frames(
        self,
        tape: FrameTape,
        costs: BatchCosts,
        plans: BatchPlans,
        delay: DelayLine | None,
        table: FrameTable,
    ) -> list[dict[str, float]]:
        """Vectorized scheduling fold for all-serial plans.

        On one core the frame latency is the left-fold sum of the
        chain's compute times (communication between same-core tasks
        is free), so the whole tape folds as ``depth`` column adds
        over a position-major compute matrix -- the identical float
        additions, frame-parallel.  Ledger traffic folds through
        :meth:`~repro.hw.bus.BandwidthLedger.record_many` in the
        scalar call order; bit-exactness of all of it is pinned by the
        batch parity suite.  Returns the per-frame measured-time dicts
        for ``observe_frames``.
        """
        simulator = self.simulator
        scale = simulator.cost_model.pixel_scale
        cols = tape.cost_columns()
        meta = tape.frame_columns()
        n = len(tape)
        n_tasks = meta.n_tasks
        depth = int(n_tasks.max()) if n else 0

        # Row p of the matrices holds each frame's p-th chain link
        # (0.0 where the chain is shorter).
        compute = np.zeros((depth, n))
        out_bytes = np.zeros((depth, n))
        by_task = costs.by_task
        external_total = 0
        for name, bc in by_task.items():
            tc = cols[name]
            compute[tc.positions, tc.frames] = bc.total_ms
            out_bytes[tc.positions, tc.frames] = tc.columns.bytes_out * scale
            external_total += int(bc.external_bytes.sum())

        latency = np.zeros(n)
        for p in range(depth):
            latency += compute[p]

        # Ledger: DRAM totals are integer-exact in any order; the l2
        # records (producer output of every non-final chain link, in
        # frame order) fold left-to-right like the scalar calls.
        ledger = simulator.ledger
        ledger.record("dram", float(external_total))
        if depth > 1:
            inner = np.arange(depth)[None, :] < (n_tasks - 1)[:, None]
            vals = out_bytes.T[inner]
            ledger.record_many("l2", vals[vals > 0.0])
        ledger.frame_done(n)
        o = obs.get_obs()
        if o.enabled:
            # simulate_frame's per-frame totals, summed over the tape.
            eviction_total = sum(
                int(bc.eviction_bytes.sum()) for bc in by_task.values()
            )
            o.metrics.counter("hw_eviction_bytes_total").inc(float(eviction_total))
            o.metrics.counter("hw_external_bytes_total").inc(float(external_total))

        out_ms = delay.push_many(latency) if delay is not None else latency
        p_ms = plans.predicted_ms
        actual_sid = meta.scenario_id
        base = table.add_frames(
            index=meta.index,
            predicted_scenario=np.where(
                plans.has_prediction, plans.predicted_scenario, actual_sid
            ),
            actual_scenario=actual_sid,
            predicted_ms=np.where(np.isnan(p_ms), latency, p_ms),
            serial_ms=latency,
            latency_ms=latency,
            output_ms=out_ms,
            cores_used=plans.cores_used,
        )

        task_ms_frames: list[dict[str, float]] = [{} for _ in range(n)]
        for name, bc in by_task.items():
            tc = cols[name]
            vals = bc.total_ms
            table.fill_task_ms(name, base + tc.frames, vals)
            for k, v in zip(tc.frames.tolist(), vals.tolist()):
                task_ms_frames[k][name] = v

        parts_list = plans.parts
        if any(parts_list):
            for k, parts in enumerate(parts_list):
                for t, c in parts.items():
                    table.fill_parts(t, base + k, c)

        predicted = plans.predicted_task_ms
        if any(d for d in predicted):
            rows_by_task: dict[str, list[int]] = {}
            vals_by_task: dict[str, list[float]] = {}
            for k, d in enumerate(predicted):
                if d:
                    for t, v in d.items():
                        rows = rows_by_task.get(t)
                        if rows is None:
                            rows = rows_by_task[t] = []
                            vals_by_task[t] = []
                        rows.append(base + k)
                        vals_by_task[t].append(v)
            for t, rows in rows_by_task.items():
                table.fill_predicted_task_ms(
                    t, np.asarray(rows), np.asarray(vals_by_task[t])
                )
        return task_ms_frames

    @staticmethod
    def _log_frame(
        table: FrameTable,
        plan: FramePlan,
        analysis: FrameAnalysis,
        frame_res: FrameResult,
        out_ms: float,
    ) -> None:
        """Record one executed frame (column writes, no per-frame log
        object in the hot loop)."""
        prediction = plan.prediction
        table.add_frame(
            index=analysis.index,
            predicted_scenario=(
                prediction.scenario_id
                if prediction is not None
                else analysis.scenario_id
            ),
            actual_scenario=analysis.scenario_id,
            predicted_ms=(
                plan.predicted_ms
                if plan.predicted_ms is not None
                else frame_res.latency_ms
            ),
            serial_ms=float(sum(frame_res.task_ms.values())),
            latency_ms=frame_res.latency_ms,
            output_ms=out_ms,
            cores_used=plan.cores_used,
            parts=plan.parts,
            quality=plan.quality,
            task_ms=frame_res.task_ms,
            predicted_task_ms=(
                prediction.task_ms if prediction is not None else None
            ),
        )


class TripleCPolicy:
    """The paper's semi-automatic parallelization (Section 6).

    Each frame: predict with Triple-C, repartition robustly over the
    plausible scenarios (transition probability at least ``p_min``,
    plus the most likely one), optionally degrade quality when even
    maximal repartitioning misses the budget, then feed the
    measurement back.
    """

    label = "triple-c managed"

    def __init__(
        self,
        triplec: TripleC,
        partitioner: Partitioner,
        budget: LatencyBudget,
        quality_controller=None,
        p_min: float = 0.01,
    ) -> None:
        self.triplec = triplec
        self.partitioner = partitioner
        self.budget = budget
        self.quality_controller = quality_controller
        self.p_min = p_min

    @classmethod
    def for_simulator(
        cls,
        triplec: TripleC,
        simulator: PlatformSimulator,
        partitioner: Partitioner | None = None,
        budget_ms: float | None = None,
        slack: float = 1.08,
        quality_controller=None,
        p_min: float = 0.01,
    ) -> "TripleCPolicy":
        """Build with the simulator's overhead constants (the default
        configuration every driver uses)."""
        return cls(
            triplec,
            partitioner
            or Partitioner(
                simulator.platform,
                triplec.graph,
                fork_ms=simulator.fork_ms,
                join_ms=simulator.join_ms,
                halo_fraction=simulator.halo_fraction,
            ),
            LatencyBudget(target_ms=budget_ms, slack=slack),
            quality_controller=quality_controller,
            p_min=p_min,
        )

    def initialize_budget(self) -> float:
        """Section 6 "Initialization": budget near the average case."""
        if not self.budget.initialized:
            self.budget.initialize(self.triplec.expected_frame_ms())
        return self.budget.require()

    def begin_run(self, engine: FrameEngine) -> LatencyBudget:
        self.initialize_budget()
        self.triplec.start_sequence()
        return self.budget

    def plan_frame(
        self, engine: FrameEngine, pipeline: AnalysisPipeline, img
    ) -> FramePlan:
        budget = self.budget.require()
        scale = engine.simulator.cost_model.pixel_scale
        roi_px = pipeline.roi.pixels if pipeline.roi is not None else img.size
        roi_kpx = roi_px / 1000.0 * scale

        prediction: TripleCPrediction = self.triplec.predict(roi_kpx)
        # Robust repartitioning: cover every plausible scenario of the
        # coming frame, not just the most likely one -- a split task
        # that ends up not running costs nothing.
        scenario_preds = self.triplec.plausible_predictions(roi_kpx, self.p_min)
        decision: PartitionDecision = self.partitioner.choose_robust(
            scenario_preds, budget
        )

        quality_name = "full"
        if self.quality_controller is not None:
            level = self.quality_controller.decide(
                decision.predicted_latency_ms, budget
            )
            pipeline.quality = level
            quality_name = level.name

        return FramePlan(
            mapping=decision.mapping,
            cores_used=decision.cores_used,
            parts=dict(decision.parts),
            quality=quality_name,
            prediction=prediction,
            predicted_ms=prediction.frame_ms,
            roi_kpixels=roi_kpx,
        )

    def observe_frame(
        self, plan: FramePlan, analysis: FrameAnalysis, result: FrameResult
    ) -> None:
        self.triplec.observe(
            analysis.scenario_id, result.task_ms, plan.roi_kpixels
        )

    def supports_batch(self) -> bool:
        """Batchable without quality control, which reacts to each
        frame's decision by mutating the live pipeline -- something a
        recorded tape cannot honor."""
        return self.quality_controller is None

    def plan_frames(
        self, engine: FrameEngine, tape: FrameTape, costs: BatchCosts
    ) -> BatchPlans:
        """Plan a whole tape (vectorized :meth:`plan_frame`)."""
        budget = self.budget.require()
        scale = engine.simulator.cost_model.pixel_scale
        n = len(tape)
        plans = BatchPlans(n)
        roi_kpx = tape.plan_roi_px / 1000.0 * scale
        plans.roi_kpixels[:] = roi_kpx
        sids, frame_preds, plausible = walk_scenario_predictions(
            self.triplec, tape, roi_kpx, costs, plausible=True, p_min=self.p_min
        )
        plans.predicted_scenario[:] = sids
        plans.has_prediction[:] = True
        choose = self.partitioner.choose_robust
        mappings = plans.mappings
        cores_used = plans.cores_used
        predicted_ms = plans.predicted_ms
        parts = plans.parts
        predicted_task_ms = plans.predicted_task_ms
        for k in range(n):
            decision = choose(plausible[k], budget)
            mappings[k] = decision.mapping
            cores_used[k] = decision.cores_used
            parts[k] = dict(decision.parts)
            pred = frame_preds[k]
            predicted_task_ms[k] = pred
            predicted_ms[k] = float(sum(pred.values()))
        return plans

    def observe_frames(
        self,
        engine: FrameEngine,
        tape: FrameTape,
        plans: BatchPlans,
        task_ms_frames: list[dict[str, float]],
    ) -> None:
        """Feed a whole tape's measurements back (vectorized
        :meth:`observe_frame`)."""
        replay_observes(self.triplec, tape, task_ms_frames, plans.roi_kpixels)


class StaticSerialPolicy:
    """Static serial mapping: no repartitioning, no QoS.

    This is the paper's "straightforward mapping" baseline.  With a
    ``model``, the policy additionally runs the strict
    predict-then-observe protocol in the shadow of the run (the
    held-out accuracy evaluations); the mapping stays serial either
    way.  ``frame_setup`` runs before each frame's planning -- e.g.
    fig3's forced full-frame granularity.
    """

    label = "straightforward"

    def __init__(
        self,
        model: TripleC | None = None,
        frame_setup: Callable[[AnalysisPipeline], None] | None = None,
    ) -> None:
        self.model = model
        self.frame_setup = frame_setup

    def begin_run(self, engine: FrameEngine) -> None:
        if self.model is not None:
            self.model.start_sequence()
        return None

    def plan_frame(
        self, engine: FrameEngine, pipeline: AnalysisPipeline, img
    ) -> FramePlan:
        if self.frame_setup is not None:
            self.frame_setup(pipeline)
        if self.model is None:
            return FramePlan(mapping=Mapping.serial())
        scale = engine.simulator.cost_model.pixel_scale
        roi_px = pipeline.roi.pixels if pipeline.roi is not None else img.size
        roi_kpx = roi_px / 1000.0 * scale
        prediction = self.model.predict(roi_kpx)
        return FramePlan(
            mapping=Mapping.serial(),
            prediction=prediction,
            predicted_ms=prediction.frame_ms,
            roi_kpixels=roi_kpx,
        )

    def observe_frame(
        self, plan: FramePlan, analysis: FrameAnalysis, result: FrameResult
    ) -> None:
        if self.model is not None:
            self.model.observe(
                analysis.scenario_id, result.task_ms, plan.roi_kpixels
            )

    def supports_batch(self) -> bool:
        return True

    def plan_frames(
        self, engine: FrameEngine, tape: FrameTape, costs: BatchCosts
    ) -> BatchPlans:
        """Plan a whole tape (vectorized :meth:`plan_frame`)."""
        n = len(tape)
        plans = BatchPlans(n)
        if self.model is None:
            return plans
        scale = engine.simulator.cost_model.pixel_scale
        roi_kpx = tape.plan_roi_px / 1000.0 * scale
        plans.roi_kpixels[:] = roi_kpx
        sids, frame_preds, _ = walk_scenario_predictions(
            self.model, tape, roi_kpx, costs
        )
        plans.predicted_scenario[:] = sids
        plans.has_prediction[:] = True
        predicted_ms = plans.predicted_ms
        predicted_task_ms = plans.predicted_task_ms
        for k in range(n):
            pred = frame_preds[k]
            predicted_task_ms[k] = pred
            predicted_ms[k] = float(sum(pred.values()))
        return plans

    def observe_frames(
        self,
        engine: FrameEngine,
        tape: FrameTape,
        plans: BatchPlans,
        task_ms_frames: list[dict[str, float]],
    ) -> None:
        """Feed a whole tape's measurements back (vectorized
        :meth:`observe_frame`)."""
        if self.model is not None:
            replay_observes(self.model, tape, task_ms_frames, plans.roi_kpixels)


class WorstCaseReservationPolicy:
    """Section 6's strawman: reserve the worst case, pad to it.

    Serial execution; the delay line holds every frame to the
    reserved budget, so the output latency is constant but maximal.
    """

    label = "worst-case reservation"

    def __init__(self, worst_case_ms: float) -> None:
        if worst_case_ms <= 0:
            raise ValueError("worst_case_ms must be positive")
        self.worst_case_ms = float(worst_case_ms)

    def begin_run(self, engine: FrameEngine) -> LatencyBudget:
        return LatencyBudget(target_ms=self.worst_case_ms)

    def plan_frame(
        self, engine: FrameEngine, pipeline: AnalysisPipeline, img
    ) -> FramePlan:
        return FramePlan(
            mapping=Mapping.serial(), predicted_ms=self.worst_case_ms
        )

    def observe_frame(
        self, plan: FramePlan, analysis: FrameAnalysis, result: FrameResult
    ) -> None:
        return None

    def supports_batch(self) -> bool:
        return True

    def plan_frames(
        self, engine: FrameEngine, tape: FrameTape, costs: BatchCosts
    ) -> BatchPlans:
        """Plan a whole tape: serial mapping, the reserved estimate."""
        plans = BatchPlans(len(tape))
        plans.predicted_ms[:] = self.worst_case_ms
        return plans

    def observe_frames(
        self,
        engine: FrameEngine,
        tape: FrameTape,
        plans: BatchPlans,
        task_ms_frames: list[dict[str, float]],
    ) -> None:
        return None


@dataclass(frozen=True)
class CoschedulePolicy:
    """Placement policy for multi-application / pipelined replays.

    Reconstructs per-frame mappings from a managed run's partitioning
    decisions (or plain serial when ``source`` is None), rotates them
    within a ``window`` of cores so consecutive in-flight frames
    overlap, and shifts the whole placement to ``core_base`` -- the
    transform the multiapp (half-platform instances) and throughput
    (full-platform rotation) experiments share.

    Attributes
    ----------
    n_cores:
        Platform core count.
    source:
        Managed run whose per-frame ``parts`` size the partitions.
    core_base:
        First core of the instance's slice of the platform.
    window:
        Cores available to the instance (defaults to ``n_cores``).
        Partitions wider than the window are clipped to it.
    """

    n_cores: int
    source: RunResult | None = None
    core_base: int = 0
    window: int | None = None

    def mapping_for(self, k: int) -> Mapping:
        """The frame-``k`` placement."""
        window = self.window if self.window is not None else self.n_cores
        mapping = Mapping.serial()
        if self.source is not None and k < len(self.source.frames):
            for task, n_parts in self.source.frames[k].parts.items():
                if n_parts > 1:
                    mapping = mapping.with_partition(
                        task, tuple(range(min(n_parts, window)))
                    )
        local = mapping.rotated(k, window)
        if self.core_base == 0:
            return local
        return Mapping(
            assignments={
                t: tuple(c + self.core_base for c in cores)
                for t, cores in local.assignments.items()
            },
            default_core=local.default_core + self.core_base,
        )

    def assign(
        self,
        reports: Sequence[dict],
        key: Callable[[int], object],
    ) -> list[tuple[dict, Mapping, object]]:
        """Pair pre-computed frame reports with their placements,
        ready for :meth:`PlatformSimulator.simulate_stream`."""
        return [
            (rep, self.mapping_for(k), key(k)) for k, rep in enumerate(reports)
        ]


def simulate_report_sweep(
    simulator: PlatformSimulator,
    frames: Iterable[tuple[dict, Mapping, object]],
) -> list[FrameResult]:
    """Simulate hand-built ``(reports, mapping, frame_key)`` frames.

    For sweeps that construct task reports outside a sequence run
    (e.g. fig6's forced-ROI crops); keeps the raw ``simulate_frame``
    loop inside the engine module.
    """
    return [
        simulator.simulate_frame(reports, mapping, frame_key=key)
        for reports, mapping, key in frames
    ]
