"""Columnar planning for the batched frame engine.

The scalar engine loop asks the policy for one
:class:`~repro.runtime.engine.FramePlan` per frame.  The batched
engine instead plans a whole recorded tape at once, and this module
holds the machinery that makes that both fast and *bit-exact*:

:class:`BatchPlans`
    The columnar counterpart of a list of ``FramePlan`` objects --
    numpy columns for the scalar fields, plain lists for mappings and
    per-task dicts.  No per-frame plan objects are allocated in the
    hot loop.

:class:`BatchTaskPredictions`
    Walk-forward task-time predictions for every ``(task, execution
    count)`` pair, precomputed with each predictor's vectorized
    ``predict_series``.  This is where the batch speedup comes from,
    and it is only possible because compute times are
    mapping-independent (under DRAM contention too: a frame's chain
    never overlaps itself): the engine can price every execution
    *before* planning, so the observation series each predictor --
    online-updating chains included -- would have ingested is known
    up front.

:func:`walk_scenario_predictions`
    The scenario-table walk.  The table's transition matrix derives
    from counts that ``observe`` mutates *during* the run, so the
    walk interleaves predict and observe per frame in scalar order --
    reads and writes hit the real table, making its end state and
    every prediction identical to the scalar loop's.

:func:`replay_observes`
    Feeds the measured times back into the computation model after
    the fold, leaving every predictor in the exact state a scalar run
    would have left it in.

Models whose predictions cannot be decomposed this way --
scenario-conditioned predictors or any externally registered
backend -- are detected by :func:`model_batchable` and run the
scalar loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping as TMapping, Sequence

import numpy as np

import repro.obs as obs
from repro.core.computation import (
    ConstantPredictor,
    EwmaMarkovPredictor,
    LastValuePredictor,
    MarkovPredictor,
    PredictionContext,
    RoiLinearMarkovPredictor,
    _MIN_PREDICTION_MS,
    _chain_walk,
)
from repro.core.triplec import TripleC
from repro.hw.mapping import Mapping
from repro.imaging.pipeline import SwitchState
from repro.util.ewma import ewma

if TYPE_CHECKING:
    from repro.hw.cost import BatchCost
    from repro.hw.simulator import PlatformSimulator
    from repro.runtime.tape import FrameTape

__all__ = [
    "BatchCosts",
    "BatchPlans",
    "BatchTaskPredictions",
    "collect_batch_costs",
    "model_batchable",
    "replay_observes",
    "walk_scenario_predictions",
]

#: Predictor classes whose walk-forward series decompose analytically
#: (their ``predict_series`` is independent of later observations).
#: Exact types, not subclasses: an override could change ``predict``.
_BATCHABLE_PREDICTORS = (
    ConstantPredictor,
    LastValuePredictor,
    MarkovPredictor,
    EwmaMarkovPredictor,
    RoiLinearMarkovPredictor,
)


def model_batchable(model) -> bool:
    """Whether every predictor of a computation model is one of the
    decomposable built-ins.

    ``predict_series`` walks forward from reset; the policies' run
    start (``TripleC.start_sequence``) resets every predictor before
    the walk, so warm state from an earlier run never matters.
    """
    return all(
        type(p) in _BATCHABLE_PREDICTORS for p in model.predictors.values()
    )


class BatchCosts:
    """Per-task execution costs of a whole tape, priced up front.

    Attributes
    ----------
    by_task:
        Task -> :class:`~repro.hw.cost.BatchCost` columns, one entry
        per execution of the task (in frame order).
    exec_frames:
        Task -> frame indices of its executions (``intp`` array).
    task_ms:
        Task -> total compute-time column (alias of
        ``by_task[t].total_ms``); the observation series the online
        predictors would have ingested.
    """

    def __init__(
        self,
        by_task: dict[str, "BatchCost"],
        exec_frames: dict[str, np.ndarray],
    ) -> None:
        self.by_task = by_task
        self.exec_frames = exec_frames
        self.task_ms = {t: bc.total_ms for t, bc in by_task.items()}


def collect_batch_costs(
    simulator: "PlatformSimulator", tape: "FrameTape", seq_key: object
) -> BatchCosts:
    """Price every task execution of a tape with the columnar cost path.

    Frame keys are ``(seq_key, analysis.index)`` -- the identity the
    scalar loop hands ``simulate_frame`` -- so the deterministic
    jitter draws are the scalar run's, bit for bit.  The per-task
    report columns come pre-extracted from the tape's cache
    (:meth:`~repro.runtime.tape.FrameTape.cost_columns`), so the only
    per-call python work left is assembling the frame keys.  Under
    DRAM contention each execution is stretched as the simulator
    would stretch it (:meth:`~repro.hw.simulator.PlatformSimulator.contended_costs`).
    """
    cost_model = simulator.cost_model
    by_task: dict[str, "BatchCost"] = {}
    exec_frames: dict[str, np.ndarray] = {}
    for name, tc in tape.cost_columns().items():
        keys = [(seq_key, i) for i in tc.indices]
        by_task[name] = simulator.contended_costs(
            cost_model.time_ms_many(name, tc.reports, keys, columns=tc.columns)
        )
        exec_frames[name] = tc.frames
    return BatchCosts(by_task, exec_frames)


_SERIAL = Mapping.serial()


class BatchPlans:
    """Columnar per-frame policy decisions (cf. ``FramePlan``).

    ``predicted_ms`` uses NaN for "no a-priori estimate" (the scalar
    plan's ``None``); ``has_prediction`` marks frames whose policy
    made a model prediction (scenario id + per-task times).
    """

    def __init__(self, n: int) -> None:
        self.mappings: list[Mapping] = [_SERIAL] * n
        self.cores_used = np.ones(n, dtype=np.int16)
        self.predicted_scenario = np.zeros(n, dtype=np.int16)
        self.has_prediction = np.zeros(n, dtype=bool)
        self.predicted_ms = np.full(n, np.nan)
        self.roi_kpixels = np.zeros(n)
        self.parts: list[dict[str, int]] = [{}] * n
        self.predicted_task_ms: list[dict[str, float] | None] = [None] * n


class BatchTaskPredictions:
    """Per-``(task, execution count)`` walk-forward predictions.

    The scalar protocol's prediction for a task depends only on the
    measurements already observed for it -- its first ``j``
    executions -- plus, for the ROI-linear model, the ROI size of the
    frame being predicted.  Both decompose over the precomputed
    execution series:

    * ROI-oblivious predictors: ``predict_series`` over the series
      padded with one dummy value gives the prediction at every
      ``j`` in ``0..n_exec`` (entry ``j`` never reads ``x[j:]``).
    * ROI-linear: the Markov correction ``corr[j-1]`` is computed
      over the execution-time residuals once; the linear term is
      evaluated per prediction site.

    An online-updating chain is walked over a copy
    (:meth:`~repro.core.markov.MarkovChain.predict_next_online`);
    only :func:`replay_observes` trains the real one.
    """

    def __init__(
        self,
        model,
        series: TMapping[str, np.ndarray],
        roi_at_exec: TMapping[str, np.ndarray],
    ) -> None:
        self._model = model
        self._series = series
        self._roi = roi_at_exec
        self._by_j: dict[str, np.ndarray] = {}
        self._roi_linear: dict[str, tuple[float, float, np.ndarray]] = {}
        self._untrained: set[str] = set()
        self._ready: set[str] = set()

    def _prepare(self, task: str) -> None:
        self._ready.add(task)
        p = self._model.predictors.get(task)
        if p is None:
            self._untrained.add(task)
            return
        x = self._series.get(task)
        if x is None:
            x = np.empty(0)
        if type(p) is RoiLinearMarkovPredictor:
            roi = self._roi.get(task)
            if roi is None:
                roi = np.zeros(x.size)
            residuals = x - (p.slope * roi + p.intercept)
            corr = _chain_walk(p.chain, residuals, p.online_update)
            self._roi_linear[task] = (p.slope, p.intercept, corr)
            return
        self._by_j[task] = p.predict_series(np.append(x, 0.0))

    def predict(self, task: str, j: int, roi_kpixels: float) -> float:
        """The scalar predictor's output after ``j`` observations."""
        if task not in self._ready:
            self._prepare(task)
        if task in self._untrained:
            return 0.0
        rl = self._roi_linear.get(task)
        if rl is not None:
            slope, intercept, corr = rl
            base = slope * roi_kpixels + intercept
            if j == 0:
                return max(_MIN_PREDICTION_MS, base)
            return max(_MIN_PREDICTION_MS, base + corr[j - 1])
        return float(self._by_j[task][j])

    def emit_call_telemetry(
        self, metrics: obs.MetricsRegistry, calls: TMapping[str, TMapping[int, int]]
    ) -> None:
        """Emit the predictor series the scalar ``predict`` calls emit.

        ``calls[task][j]`` counts the scalar protocol's ``predict``
        calls for ``task`` after ``j`` observations.  Each call of a
        Markov-backed predictor past its warm-up counts its quantizer
        state in ``markov_state_total``; the Eq. 1 predictor also
        observes its long-term (EWMA) and short-term (Markov)
        components.  Each distinct ``j`` is evaluated once here and
        weighted by its call count, so the totals equal the scalar
        loop's, and an online chain answers as it stood after ``j``.
        """
        for task, by_j in calls.items():
            p = self._model.predictors.get(task)
            kind = type(p)
            if kind is EwmaMarkovPredictor:
                warm_up = 2  # an EWMA state and a first residual
            elif kind is MarkovPredictor or kind is RoiLinearMarkovPredictor:
                warm_up = 1
            else:
                continue
            js = [j for j in by_j if j >= warm_up]
            if not js:
                continue
            weights = np.array([by_j[j] for j in js])
            last = np.array(js) - 1  # index of the latest observation
            x = self._series[task]
            if kind is MarkovPredictor:
                values = x[last]
            elif kind is RoiLinearMarkovPredictor:
                roi = self._roi[task]
                values = (x - (p.slope * roi + p.intercept))[last]
            else:
                lpf = ewma(x, p.alpha)
                residuals = x[1:] - lpf[:-1]
                values = residuals[last - 1]
            states = p.chain.quantizer.states(values)
            per_state = np.bincount(states, weights=weights)
            for state in np.flatnonzero(per_state).tolist():
                metrics.counter("markov_state_total", state=str(state)).inc(
                    int(per_state[state])
                )
            if kind is EwmaMarkovPredictor:
                short = _chain_walk(p.chain, residuals, p.online_update)[last - 1]
                metrics.histogram(
                    "predict_ewma_component_ms", task=p.task
                ).observe_many(np.repeat(lpf[last], weights).tolist())
                metrics.histogram(
                    "predict_markov_component_ms", task=p.task
                ).observe_many(np.repeat(short, weights).tolist())


def walk_scenario_predictions(
    model: TripleC,
    tape: "FrameTape",
    roi_kpixels: np.ndarray,
    costs: BatchCosts,
    plausible: bool = False,
    p_min: float = 0.01,
) -> tuple[
    np.ndarray,
    list[dict[str, float]],
    list[dict[int, dict[str, float]]] | None,
]:
    """Replay the per-frame predict/observe scenario walk over a tape.

    Returns ``(predicted_sids, frame_preds, plausible_preds)``:
    the predicted scenario id per frame, the prediction's per-task
    times (``TripleC.predict().task_ms``), and -- when ``plausible``
    -- the robust partitioner's per-scenario prediction sets
    (``TripleC.plausible_predictions()``).

    The scenario table is read *and observed* per frame in the scalar
    loop's order: each ``observe`` re-normalises the observed row of
    its transition matrix, so interleaving is what keeps prediction
    ``k`` identical to a scalar run that observed frames ``< k``.

    With observability on, the walk also counts the scalar policies'
    ``predict`` calls per task and observation count -- one for the
    chosen scenario, plus one per plausible scenario when
    ``plausible`` -- and emits the predictor series they would have
    emitted (:meth:`BatchTaskPredictions.emit_call_telemetry`).
    """
    n = len(tape)
    preds = BatchTaskPredictions(
        model.computation,
        series=costs.task_ms,
        roi_at_exec={
            t: roi_kpixels[ks] for t, ks in costs.exec_frames.items()
        },
    )
    scenarios = model.scenarios
    graph = model.graph
    analyses = tape.analyses
    cold_sid = SwitchState(True, False, True).scenario_id
    active: dict[int, Sequence[str]] = {}
    exec_count: dict[str, int] = {}

    sids = np.empty(n, dtype=np.int16)
    frame_preds: list[dict[str, float]] = []
    plausible_preds: list[dict[int, dict[str, float]]] | None = (
        [] if plausible else None
    )
    # Scalar predict() calls per (task, observations so far); counted
    # only for telemetry.
    o = obs.get_obs()
    calls: dict[str, dict[int, int]] | None = {} if o.enabled else None
    current = model._current_scenario
    for k in range(n):
        rk = float(roi_kpixels[k])
        if current is None:
            sid = cold_sid
            frame_sids = [cold_sid]
        else:
            sid = scenarios.predict_next(current)
            if plausible:
                row = scenarios.distribution(current)
                sid_set = {s for s in range(row.size) if row[s] >= p_min}
                sid_set.add(sid)
                frame_sids = sorted(sid_set)
            else:
                frame_sids = [sid]

        scenario_preds: dict[int, dict[str, float]] = {}
        for s in frame_sids:
            tasks = active.get(s)
            if tasks is None:
                tasks = graph.active_tasks(SwitchState.from_scenario_id(s))
                active[s] = tasks
            scenario_preds[s] = {
                t: preds.predict(t, exec_count.get(t, 0), rk) for t in tasks
            }
        if calls is not None:
            # The policies call TripleC.predict() for the chosen
            # scenario and, when planning robustly, plausible_predictions()
            # once more for every plausible scenario.
            for s in (sid, *frame_sids) if plausible else (sid,):
                for t in active[s]:
                    per_j = calls.setdefault(t, {})
                    j = exec_count.get(t, 0)
                    per_j[j] = per_j.get(j, 0) + 1
        sids[k] = sid
        frame_preds.append(scenario_preds[sid])
        if plausible_preds is not None:
            plausible_preds.append(scenario_preds)

        # The frame "executes": advance the walk exactly as
        # TripleC.observe would have.
        actual = analyses[k].scenario_id
        if current is not None:
            scenarios.observe(current, actual)
        current = actual
        for t in analyses[k].reports:
            exec_count[t] = exec_count.get(t, 0) + 1
    if calls is not None:
        preds.emit_call_telemetry(o.metrics, calls)
    return sids, frame_preds, plausible_preds


def replay_observes(
    model: TripleC,
    tape: "FrameTape",
    task_ms_frames: Sequence[TMapping[str, float]],
    roi_kpixels: np.ndarray,
) -> None:
    """Feed every frame's measurements back into the computation model.

    The scenario-table observes already happened during
    :func:`walk_scenario_predictions` (they had to -- predictions
    depend on them), so this replays only the predictor observations
    and the final current-scenario update.
    """
    comp = model.computation
    analyses = tape.analyses
    for k, task_ms in enumerate(task_ms_frames):
        ctx = PredictionContext(
            roi_kpixels=float(roi_kpixels[k]),
            scenario_id=int(analyses[k].scenario_id),
        )
        comp.observe_frame(task_ms, ctx)
    if analyses:
        model._current_scenario = int(analyses[-1].scenario_id)
