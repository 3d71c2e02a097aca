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

:func:`walk_scenario_predictions`
    The scenario-table walk.  Task-time predictions come from each
    predictor's batched walk (:class:`~repro.core.computation.Walk`),
    computed once per task over the task's whole execution series.
    This is where the batch speedup comes from, and it is only
    possible because compute times are mapping-independent (under
    DRAM contention too: a frame's chain never overlaps itself): the
    engine can price every execution *before* planning, so the
    observation series each predictor -- online-updating chains
    included -- would have ingested is known up front.  The table's
    transition matrix derives from counts that ``observe`` mutates
    *during* the run, so the walk interleaves predict and observe per
    frame in scalar order -- reads and writes hit the real table,
    making its end state and every prediction identical to the scalar
    loop's.

:func:`replay_observes`
    Feeds the measured times back into the computation model after
    the fold, leaving every predictor in the exact state a scalar run
    would have left it in.

Every predictor kind in :data:`~repro.core.computation.PREDICTORS`
has a walk, so any trained model takes this path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping as TMapping, Sequence

import numpy as np

import repro.obs as obs
from repro.core.computation import PredictionContext, Walk
from repro.core.triplec import TripleC
from repro.hw.mapping import Mapping
from repro.imaging.pipeline import SwitchState

if TYPE_CHECKING:
    from repro.hw.cost import BatchCost
    from repro.hw.simulator import PlatformSimulator
    from repro.runtime.tape import FrameTape

__all__ = [
    "BatchCosts",
    "BatchPlans",
    "collect_batch_costs",
    "replay_observes",
    "walk_scenario_predictions",
]

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
_NO_FRAMES = np.empty(0, dtype=np.intp)
_NO_TIMES = np.empty(0)


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

    Each task's walk is computed once, over its executions' measured
    times, planning ROI sizes and observed scenario ids
    (:meth:`~repro.core.computation.ComputationModel.walk`); each
    scenario resolves, once, the walk each of its active tasks reads
    (:meth:`~repro.core.computation.Walk.at`), so a prediction is one
    inline evaluation of the walk's formula.

    With observability on, the walk also counts the scalar policies'
    ``predict`` calls per walk and observation count -- one for the
    chosen scenario, plus one per plausible scenario when
    ``plausible`` -- and emits the predictor series they would have
    emitted (:meth:`~repro.core.computation.Walk.emit_telemetry`).
    """
    n = len(tape)
    comp = model.computation
    observed_sids = tape.scenario_ids()
    scenarios = model.scenarios
    graph = model.graph
    analyses = tape.analyses
    cold_sid = SwitchState(True, False, True).scenario_id
    walks: dict[str, Walk] = {}
    # Per scenario, one (task, floor, slope, intercept, offsets, walk)
    # row per active task: the walk its predictions read.
    rows: dict[int, list[tuple[str, float, float, float, list[float], Walk]]] = {}
    exec_count: dict[str, int] = {}

    def scenario_rows(
        s: int,
    ) -> list[tuple[str, float, float, float, list[float], Walk]]:
        out = []
        for t in graph.active_tasks(SwitchState.from_scenario_id(s)):
            w = walks.get(t)
            if w is None:
                ks = costs.exec_frames.get(t, _NO_FRAMES)
                w = walks[t] = comp.walk(
                    t,
                    costs.task_ms.get(t, _NO_TIMES),
                    roi_kpixels[ks],
                    observed_sids[ks],
                )
            w = w.at(s)
            out.append((t, w.floor, w.slope, w.intercept, w.offsets, w))
        return out

    sids = np.empty(n, dtype=np.int16)
    frame_preds: list[dict[str, float]] = []
    plausible_preds: list[dict[int, dict[str, float]]] | None = (
        [] if plausible else None
    )
    # Scalar predict() calls per (walk, task observations so far);
    # counted only for telemetry.
    o = obs.get_obs()
    calls: dict[Walk, dict[int, int]] | None = {} if o.enabled else None
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
            srows = rows.get(s)
            if srows is None:
                srows = rows[s] = scenario_rows(s)
            preds: dict[str, float] = {}
            scenario_preds[s] = preds
            for t, floor, slope, intercept, offsets, _ in srows:
                # The Walk formula; ``max(floor, v)`` spelled out, which
                # halves the cost of this innermost step.
                v = slope * rk + intercept + offsets[exec_count.get(t, 0)]
                preds[t] = v if v > floor else floor
        if calls is not None:
            # The policies call TripleC.predict() for the chosen
            # scenario and, when planning robustly, plausible_predictions()
            # once more for every plausible scenario.
            for s in (sid, *frame_sids) if plausible else (sid,):
                for t, *_, w in rows[s]:
                    per_j = calls.setdefault(w, {})
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
        for w, per_j in calls.items():
            w.emit_telemetry(o.metrics, per_j)
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
