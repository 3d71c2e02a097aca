"""Computation-time prediction (Section 4, Table 2b).

Each task gets the predictor class the paper's Table 2(b) assigns:

==========  ==========================================
Task        Prediction model
==========  ==========================================
RDG FULL    Eq. 1 (EWMA) + Markov chain
RDG ROI     Eq. 3 (linear ROI growth) + Markov chain
MKX EXT     constant (2.5 ms)
CPLS SEL    Eq. 1 (EWMA) + Markov chain
REG         constant (2 ms)
ROI EST     constant (1 ms)
GW EXT      Eq. 1 (EWMA) + Markov chain
ENH         constant (24 ms)
ZOOM        constant (12.5 ms)
==========  ==========================================

All predictors follow a strict *predict-then-observe* protocol: the
prediction for frame ``k`` uses only measurements of frames ``< k``,
exactly what a runtime resource manager has available.

The model classes form one closed table, :data:`PREDICTORS` (kind ->
class).  Each class carries its serialized ``tag``, its fit from
profiling traces (``from_traces``), its JSON round-trip
(``to_dict``/``from_dict``) and its batched walk (``walk``, see
:class:`Walk`); :meth:`ComputationModel.fit` and
:mod:`repro.core.serialize` dispatch through the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Protocol, Sequence

import numpy as np
from numpy.typing import NDArray

import repro.obs as obs
from repro.core.markov import AdaptiveQuantizer, MarkovChain
from repro.profiling.traces import TraceSet
from repro.util.ewma import EwmaFilter, ewma
from repro.util.quantity import Kpixels, Milliseconds

__all__ = [
    "PredictionContext",
    "TaskTimePredictor",
    "ConstantPredictor",
    "LastValuePredictor",
    "MarkovPredictor",
    "EwmaMarkovPredictor",
    "RoiLinearMarkovPredictor",
    "ScenarioConditionedPredictor",
    "granularity_group",
    "predict_series_loop",
    "Walk",
    "PREDICTORS",
    "predictor_class",
    "predictor_to_dict",
    "predictor_from_dict",
    "chain_to_dict",
    "chain_from_dict",
    "ComputationModel",
    "DEFAULT_PREDICTOR_KINDS",
    "PAPER_EWMA_ALPHA",
]

#: EWMA smoothing used for the long-term component (Eq. 1).  The paper
#: does not print its alpha; 0.3 adapts within a few frames while
#: suppressing single-frame noise, matching the Fig. 3 LPF trace.
PAPER_EWMA_ALPHA: float = 0.3

#: Floor applied to every prediction (a task never takes <= 0 ms).
_MIN_PREDICTION_MS: float = 1e-3


@dataclass
class PredictionContext:
    """Per-frame inputs available *before* the frame executes.

    Attributes
    ----------
    roi_kpixels:
        Native-equivalent size of the region the frame will process.
        Known in advance: the ROI is carried over from the previous
        frame's ROI-estimation output (or the full frame).
    scenario_id:
        The switch state the prediction assumes (the scenario table's
        output when predicting; the observed scenario when feeding
        measurements back).  Scenario-conditioned predictors key on
        it; scenario-oblivious predictors ignore it.
    """

    roi_kpixels: Kpixels = 0.0
    scenario_id: int | None = None


class TaskTimePredictor(Protocol):
    """Protocol all per-task predictors implement."""

    #: Human-readable model description for the Table 2(b) summary.
    kind: str
    #: Serialized ``"type"`` tag; the class's key in :data:`PREDICTORS`.
    tag: str

    def predict(self, ctx: PredictionContext) -> Milliseconds:
        """Predicted time (ms) of the task's next execution."""

    def observe(self, ms: Milliseconds, ctx: PredictionContext) -> None:
        """Feed the measured time of the execution just predicted."""

    def reset(self) -> None:
        """Drop online state (called at sequence boundaries)."""

    def predict_series(
        self,
        values: NDArray[np.float64],
        roi_kpixels: NDArray[np.float64] | None = None,
    ) -> NDArray[np.float64]:
        """Batch walk-forward predictions (see :func:`predict_series_loop`)."""

    def walk(
        self,
        values: NDArray[np.float64],
        roi_kpixels: NDArray[np.float64],
        scenario_ids: NDArray[np.integer],
    ) -> "Walk":
        """Every prediction after each observation count (see :class:`Walk`)."""

    def emit_walk_telemetry(
        self,
        metrics: obs.MetricsRegistry,
        values: NDArray[np.float64],
        roi: NDArray[np.float64],
        seen: NDArray[np.intp],
        weights: NDArray[np.intp],
    ) -> None:
        """Emit the telemetry of ``weights[i]`` ``predict`` calls made
        after ``seen[i]`` observations of ``values`` (see :class:`Walk`)."""

    def to_dict(self) -> dict[str, Any]:
        """JSON document of the trained parameters (no online state)."""


def _floor(values: NDArray[np.float64]) -> NDArray[np.float64]:
    return np.maximum(_MIN_PREDICTION_MS, values)


def _chain_walk(
    chain: MarkovChain, values: NDArray[np.float64], online_update: bool
) -> NDArray[np.float64]:
    """The chain's one-step prediction from each of ``values``.

    A frozen chain answers every entry from its trained transitions;
    an online-updating one from the transitions it has folded in by
    then (:meth:`~repro.core.markov.MarkovChain.predict_next_online`).
    Either way the chain itself is left untouched.
    """
    if online_update:
        return chain.predict_next_online(values)
    return chain.predict_next_many(values)


def predict_series_loop(
    predictor: TaskTimePredictor,
    values: NDArray[np.float64],
    roi_kpixels: NDArray[np.float64] | None = None,
) -> NDArray[np.float64]:
    """Reference walk-forward evaluation via the scalar protocol.

    ``out[k]`` is what ``predict()`` returns *before* ``observe()``
    ingests ``values[k]``, starting from reset state -- the protocol
    every ``predict_series`` batch implementation must reproduce.  The
    predictor is reset before and after, but an online-updating chain
    keeps every transition the walk fed it: run the loop on a deep
    copy to leave the predictor as it was.
    """
    x = np.asarray(values, dtype=np.float64)
    out = np.empty(x.size, dtype=np.float64)
    predictor.reset()
    for k in range(x.size):
        ctx = PredictionContext(
            roi_kpixels=0.0 if roi_kpixels is None else float(roi_kpixels[k])
        )
        out[k] = predictor.predict(ctx)
        predictor.observe(float(x[k]), ctx)
    predictor.reset()
    return out


class Walk:
    """A predictor's walk-forward answers over one execution series.

    After the predictor has observed the first ``j`` of the series'
    executions (``j`` in ``0..n``), its scalar ``predict`` for a frame
    of ROI size ``roi`` returns exactly::

        max(floor, slope * roi + intercept + offsets[j])

    The batched engine evaluates that expression inline.  ``values``
    and ``roi`` are the executions the predictor itself observed and
    ``seen[j]`` how many of them it had seen after ``j`` of the series
    (``None``: all of them); :meth:`emit_telemetry` reads them.
    ``groups`` holds a conditioned predictor's per-granularity walks
    (:meth:`at`).
    """

    def __init__(
        self,
        predictor: "TaskTimePredictor | None",
        values: NDArray[np.float64],
        roi: NDArray[np.float64],
        offsets: list[float],
        slope: float = 0.0,
        intercept: float = 0.0,
        floor: float = _MIN_PREDICTION_MS,
    ) -> None:
        self.predictor = predictor
        self.values = values
        self.roi = roi
        self.offsets = offsets
        self.slope = slope
        self.intercept = intercept
        self.floor = floor
        self.seen: NDArray[np.intp] | None = None
        self.groups: dict[int, Walk] = {}

    def at(self, scenario_id: int) -> "Walk":
        """The walk a prediction for ``scenario_id`` reads."""
        return self.groups.get(granularity_group(scenario_id), self)

    def emit_telemetry(
        self, metrics: obs.MetricsRegistry, calls: Mapping[int, int]
    ) -> None:
        """Emit what the scalar ``predict`` calls would have emitted.

        ``calls[j]`` counts the calls answered from this walk after
        ``j`` executions of the series.
        """
        if self.predictor is None:
            return
        js = np.fromiter(calls, dtype=np.intp, count=len(calls))
        weights = np.fromiter(calls.values(), dtype=np.intp, count=len(calls))
        self.predictor.emit_walk_telemetry(
            metrics,
            self.values,
            self.roi,
            js if self.seen is None else self.seen[js],
            weights,
        )


def _count_states(
    metrics: obs.MetricsRegistry,
    chain: MarkovChain,
    values: NDArray[np.float64],
    weights: NDArray[np.intp],
) -> None:
    """``markov_state_total`` of ``chain.predict_next`` from each value,
    called ``weights`` times."""
    per_state = np.bincount(chain.quantizer.states(values), weights=weights)
    for state in np.flatnonzero(per_state).tolist():
        metrics.counter("markov_state_total", state=str(state)).inc(
            int(per_state[state])
        )


class _ScenarioOblivious:
    """Batched-walk defaults of a predictor that ignores the ROI size
    and the predicted scenario."""

    def walk(
        self: TaskTimePredictor,
        values: NDArray[np.float64],
        roi_kpixels: NDArray[np.float64],
        scenario_ids: NDArray[np.integer],  # noqa: ARG002
    ) -> Walk:
        """``predict_series`` over the series padded with one value
        (entry ``j`` never reads ``values[j:]``)."""
        x = np.asarray(values, dtype=np.float64)
        offsets = self.predict_series(np.append(x, 0.0))
        return Walk(self, x, roi_kpixels, offsets.tolist())

    def emit_walk_telemetry(
        self,
        metrics: obs.MetricsRegistry,
        values: NDArray[np.float64],
        roi: NDArray[np.float64],
        seen: NDArray[np.intp],
        weights: NDArray[np.intp],
    ) -> None:
        """None: these predictors emit nothing per call."""
        return None


@dataclass
class ConstantPredictor(_ScenarioOblivious):
    """Fixed prediction: the training mean (Table 2b constants)."""

    value_ms: Milliseconds
    kind: str = "constant"
    tag = "constant"

    @staticmethod
    def fit(series: Sequence[NDArray[np.float64]]) -> "ConstantPredictor":
        values = np.concatenate([np.asarray(s) for s in series])
        return ConstantPredictor(value_ms=float(values.mean()))

    @staticmethod
    def from_traces(
        traces: TraceSet, task: str, alpha: float, online_update: bool  # noqa: ARG004
    ) -> "ConstantPredictor":
        return ConstantPredictor.fit(traces.task_series(task))

    def to_dict(self) -> dict[str, Any]:
        return {"type": self.tag, "value_ms": self.value_ms}

    @staticmethod
    def from_dict(d: Mapping[str, Any]) -> "ConstantPredictor":
        return ConstantPredictor(value_ms=float(d["value_ms"]))

    def predict(self, ctx: PredictionContext) -> Milliseconds:
        return max(_MIN_PREDICTION_MS, self.value_ms)

    def predict_series(
        self,
        values: NDArray[np.float64],
        roi_kpixels: NDArray[np.float64] | None = None,  # noqa: ARG002
    ) -> NDArray[np.float64]:
        """Batch walk-forward predictions (see :func:`predict_series_loop`)."""
        n = np.asarray(values).size
        return _floor(np.full(n, self.value_ms, dtype=np.float64))

    def observe(self, ms: Milliseconds, ctx: PredictionContext) -> None:  # noqa: ARG002
        return None

    def reset(self) -> None:
        return None


@dataclass
class LastValuePredictor(_ScenarioOblivious):
    """Naive persistence baseline: predict the last observed value.

    Not in the paper's Table 2(b); exists as the ablation floor every
    stateful model must beat.
    """

    fallback_ms: Milliseconds
    kind: str = "last-value"
    tag = "last-value"
    _last: float | None = None

    @staticmethod
    def fit(series: Sequence[NDArray[np.float64]]) -> "LastValuePredictor":
        values = np.concatenate([np.asarray(s) for s in series])
        return LastValuePredictor(fallback_ms=float(values.mean()))

    @staticmethod
    def from_traces(
        traces: TraceSet, task: str, alpha: float, online_update: bool  # noqa: ARG004
    ) -> "LastValuePredictor":
        return LastValuePredictor.fit(traces.task_series(task))

    def to_dict(self) -> dict[str, Any]:
        return {"type": self.tag, "fallback_ms": self.fallback_ms}

    @staticmethod
    def from_dict(d: Mapping[str, Any]) -> "LastValuePredictor":
        return LastValuePredictor(fallback_ms=float(d["fallback_ms"]))

    def predict(self, ctx: PredictionContext) -> Milliseconds:  # noqa: ARG002
        value = self.fallback_ms if self._last is None else self._last
        return max(_MIN_PREDICTION_MS, value)

    def predict_series(
        self,
        values: NDArray[np.float64],
        roi_kpixels: NDArray[np.float64] | None = None,  # noqa: ARG002
    ) -> NDArray[np.float64]:
        """Batch walk-forward predictions (see :func:`predict_series_loop`)."""
        x = np.asarray(values, dtype=np.float64)
        out = np.empty(x.size, dtype=np.float64)
        if x.size == 0:
            return out
        out[0] = self.fallback_ms
        out[1:] = x[:-1]
        return _floor(out)

    def observe(self, ms: Milliseconds, ctx: PredictionContext) -> None:  # noqa: ARG002
        self._last = float(ms)

    def reset(self) -> None:
        self._last = None


class MarkovPredictor(_ScenarioOblivious):
    """Pure first-order Markov prediction on raw task times.

    The memoryless model the paper applies where the autocorrelation
    decays exponentially.  Before the first observation it falls back
    to the stationary mean.
    """

    kind = "Markov"
    tag = "markov"

    def __init__(self, chain: MarkovChain, online_update: bool = False) -> None:
        self.chain = chain
        self.online_update = online_update
        self._fallback = float(chain.stationary() @ chain.quantizer.centers)
        self._last: float | None = None

    @staticmethod
    def fit(
        series: Sequence[NDArray[np.float64]], online_update: bool = False
    ) -> "MarkovPredictor":
        return MarkovPredictor(MarkovChain.fit(series), online_update)

    @staticmethod
    def from_traces(
        traces: TraceSet, task: str, alpha: float, online_update: bool  # noqa: ARG004
    ) -> "MarkovPredictor":
        return MarkovPredictor.fit(traces.task_series(task), online_update)

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": self.tag,
            "chain": chain_to_dict(self.chain),
            "online_update": self.online_update,
        }

    @staticmethod
    def from_dict(d: Mapping[str, Any]) -> "MarkovPredictor":
        return MarkovPredictor(
            chain_from_dict(d["chain"]), online_update=bool(d["online_update"])
        )

    def predict(self, ctx: PredictionContext) -> Milliseconds:  # noqa: ARG002
        if self._last is None:
            return max(_MIN_PREDICTION_MS, self._fallback)
        return max(_MIN_PREDICTION_MS, self.chain.predict_next(self._last))

    def predict_series(
        self,
        values: NDArray[np.float64],
        roi_kpixels: NDArray[np.float64] | None = None,
    ) -> NDArray[np.float64]:
        """Batch walk-forward predictions (see :func:`predict_series_loop`).

        With online updating, prediction ``k`` reads the chain as it
        stands after the transitions among ``x[:k]``; the walk runs on
        a copy, so the chain keeps its state.
        """
        x = np.asarray(values, dtype=np.float64)
        out = np.empty(x.size, dtype=np.float64)
        if x.size == 0:
            return out
        out[0] = self._fallback
        out[1:] = _chain_walk(self.chain, x[:-1], self.online_update)
        return _floor(out)

    def emit_walk_telemetry(
        self,
        metrics: obs.MetricsRegistry,
        values: NDArray[np.float64],
        roi: NDArray[np.float64],  # noqa: ARG002
        seen: NDArray[np.intp],
        weights: NDArray[np.intp],
    ) -> None:
        """Each call past the first observation predicts from the
        latest value's state (``markov_state_total``)."""
        warm = seen >= 1
        _count_states(metrics, self.chain, values[seen[warm] - 1], weights[warm])

    def observe(self, ms: Milliseconds, ctx: PredictionContext) -> None:  # noqa: ARG002
        if self.online_update and self._last is not None:
            self.chain.observe_transition(self._last, ms)
        self._last = float(ms)

    def reset(self) -> None:
        self._last = None


class EwmaMarkovPredictor(_ScenarioOblivious):
    """Eq. 1 long-term tracking + Markov chain on the residual.

    "To model the computation time for the current video frame, the
    output of the EWMA filter is used for long-term behavior
    prediction.  On top of that, a Markov chain predicts the
    short-term fluctuations in computation time." (Section 4)

    Training decomposes each profiled series with the same causal
    filter the online phase uses: the residual of frame ``k`` is
    ``x_k - y_{k-1}`` (measurement minus the EWMA state *before*
    observing it), so train and test distributions match.
    """

    kind = "<Eq. 1> + Markov"
    tag = "ewma+markov"
    #: Task label for telemetry; stamped by :meth:`ComputationModel.fit`.
    task = ""

    def __init__(
        self,
        chain: MarkovChain,
        alpha: float = PAPER_EWMA_ALPHA,
        fallback_ms: Milliseconds = 1.0,
        online_update: bool = False,
    ) -> None:
        self.chain = chain
        self.alpha = float(alpha)
        self.online_update = online_update
        self._fallback = float(fallback_ms)
        self._ewma = EwmaFilter(alpha)
        self._last_residual: float | None = None

    @property
    def fallback_ms(self) -> Milliseconds:
        """Pre-warm-up prediction (the training mean); a trained
        parameter, exposed for serialization and inspection."""
        return self._fallback

    @staticmethod
    def causal_residuals(
        series: NDArray[np.float64], alpha: float
    ) -> NDArray[np.float64]:
        """Residuals ``x_k - y_{k-1}`` of the causal EWMA (k >= 1)."""
        x = np.asarray(series, dtype=np.float64)
        if x.size < 2:
            return np.empty(0)
        lpf = ewma(x, alpha)
        return x[1:] - lpf[:-1]

    @staticmethod
    def fit(
        series: Sequence[NDArray[np.float64]],
        alpha: float = PAPER_EWMA_ALPHA,
        n_states: int | None = None,
        online_update: bool = False,
    ) -> "EwmaMarkovPredictor":
        residual_series = [
            EwmaMarkovPredictor.causal_residuals(s, alpha)
            for s in series
        ]
        residual_series = [r for r in residual_series if r.size >= 2]
        if not residual_series:
            # Degenerate training data: behave like a constant model.
            values = np.concatenate([np.asarray(s) for s in series])
            chain = MarkovChain.fit([np.zeros(2)], n_states=2)
            return EwmaMarkovPredictor(
                chain, alpha, fallback_ms=float(values.mean()),
                online_update=online_update,
            )
        chain = MarkovChain.fit(residual_series, n_states=n_states)
        values = np.concatenate([np.asarray(s) for s in series])
        return EwmaMarkovPredictor(
            chain, alpha, fallback_ms=float(values.mean()),
            online_update=online_update,
        )

    @staticmethod
    def from_traces(
        traces: TraceSet, task: str, alpha: float, online_update: bool
    ) -> "EwmaMarkovPredictor":
        return EwmaMarkovPredictor.fit(
            traces.task_series(task), alpha=alpha, online_update=online_update
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": self.tag,
            "chain": chain_to_dict(self.chain),
            "alpha": self.alpha,
            "fallback_ms": self.fallback_ms,
            "online_update": self.online_update,
        }

    @staticmethod
    def from_dict(d: Mapping[str, Any]) -> "EwmaMarkovPredictor":
        return EwmaMarkovPredictor(
            chain_from_dict(d["chain"]),
            alpha=float(d["alpha"]),
            fallback_ms=float(d["fallback_ms"]),
            online_update=bool(d["online_update"]),
        )

    def predict(self, ctx: PredictionContext) -> Milliseconds:  # noqa: ARG002
        if self._ewma.value is None:
            return max(_MIN_PREDICTION_MS, self._fallback)
        long_term = self._ewma.peek()
        if self._last_residual is None:
            return max(_MIN_PREDICTION_MS, long_term)
        short_term = self.chain.predict_next(self._last_residual)
        o = obs.get_obs()
        if o.enabled:
            # How much of each prediction the Eq. 1 filter carries vs
            # the Markov short-term correction (Fig. 3's decomposition).
            o.metrics.histogram(
                "predict_ewma_component_ms", task=self.task
            ).observe(long_term)
            o.metrics.histogram(
                "predict_markov_component_ms", task=self.task
            ).observe(short_term)
        return max(_MIN_PREDICTION_MS, long_term + short_term)

    def predict_series(
        self,
        values: NDArray[np.float64],
        roi_kpixels: NDArray[np.float64] | None = None,
    ) -> NDArray[np.float64]:
        """Batch walk-forward predictions (see :func:`predict_series_loop`).

        With ``lpf`` the causal EWMA of the series, the prediction for
        frame ``k >= 2`` is ``lpf[k-1] + E[next | x[k-1] - lpf[k-2]]``
        -- the same decomposition the scalar protocol walks, evaluated
        over the whole series with one filter pass and one gather (a
        walk over a copy of the chain when it updates online).
        """
        x = np.asarray(values, dtype=np.float64)
        out = np.empty(x.size, dtype=np.float64)
        if x.size == 0:
            return out
        out[0] = self._fallback
        if x.size == 1:
            return _floor(out)
        lpf = ewma(x, self.alpha)
        out[1] = lpf[0]
        if x.size > 2:
            residuals = x[1:-1] - lpf[:-2]
            out[2:] = lpf[1:-1] + _chain_walk(
                self.chain, residuals, self.online_update
            )
        return _floor(out)

    def emit_walk_telemetry(
        self,
        metrics: obs.MetricsRegistry,
        values: NDArray[np.float64],
        roi: NDArray[np.float64],  # noqa: ARG002
        seen: NDArray[np.intp],
        weights: NDArray[np.intp],
    ) -> None:
        """Each call past the warm-up (an EWMA state and a first
        residual) counts the latest residual's state and observes the
        long-term (EWMA) and short-term (Markov) components; an online
        chain answers as it stood after ``seen`` observations."""
        warm = seen >= 2
        if not warm.any():
            return
        last, weights = seen[warm] - 1, weights[warm]
        lpf = ewma(values, self.alpha)
        residuals = values[1:] - lpf[:-1]
        _count_states(metrics, self.chain, residuals[last - 1], weights)
        short = _chain_walk(self.chain, residuals, self.online_update)[last - 1]
        metrics.histogram(
            "predict_ewma_component_ms", task=self.task
        ).observe_many(np.repeat(lpf[last], weights).tolist())
        metrics.histogram(
            "predict_markov_component_ms", task=self.task
        ).observe_many(np.repeat(short, weights).tolist())

    def observe(self, ms: Milliseconds, ctx: PredictionContext) -> None:  # noqa: ARG002
        if self._ewma.value is not None:
            residual = float(ms) - self._ewma.peek()
            if self.online_update and self._last_residual is not None:
                self.chain.observe_transition(self._last_residual, residual)
            self._last_residual = residual
        self._ewma.update(float(ms))

    def reset(self) -> None:
        self._ewma.reset()
        self._last_residual = None


class RoiLinearMarkovPredictor:
    """Eq. 3 linear ROI growth + Markov chain on the residual.

    "Processing-time statistics for different Region-Of-Interest
    sizes show that the RDG task has a linear dependency on the size
    of the ROI.  [...] we have subtracted a linear growth function
    from the obtained statistics.  For the remaining data-dependent
    fluctuations [...] it can again be described with a Markov
    chain." (Section 4)
    """

    kind = "<Eq. 3> + Markov"
    tag = "roi+markov"

    def __init__(
        self,
        slope: float,
        intercept: float,
        chain: MarkovChain,
        online_update: bool = False,
    ) -> None:
        self.slope = float(slope)
        self.intercept = float(intercept)
        self.chain = chain
        self.online_update = online_update
        self._last_residual: float | None = None

    @staticmethod
    def fit(
        roi_series: Sequence[tuple[NDArray[np.float64], NDArray[np.float64]]],
        online_update: bool = False,
    ) -> "RoiLinearMarkovPredictor":
        """Fit from per-run ``(roi_kpixels, time_ms)`` pairs.

        A single sample (a ROI task that ran once in training) fits as
        a constant with a zero-residual chain; no samples raise.
        """
        rois = np.concatenate([r for r, _ in roi_series]) if roi_series else np.empty(0)
        times = np.concatenate([t for _, t in roi_series]) if roi_series else np.empty(0)
        if times.size == 0:
            raise ValueError("need at least 1 sample to fit the ROI model")
        if np.ptp(rois) > 1e-9:
            slope, intercept = np.polyfit(rois, times, 1)
        else:
            # ROI never varied during training (or one sample):
            # constant + Markov.
            slope, intercept = 0.0, float(times.mean())
        residual_series = [
            t - (slope * r + intercept) for r, t in roi_series if t.size >= 2
        ]
        if not residual_series:
            residual_series = [np.zeros(2)]
        chain = MarkovChain.fit(residual_series)
        return RoiLinearMarkovPredictor(
            float(slope), float(intercept), chain, online_update
        )

    @staticmethod
    def from_traces(
        traces: TraceSet, task: str, alpha: float, online_update: bool  # noqa: ARG004
    ) -> "RoiLinearMarkovPredictor":
        return RoiLinearMarkovPredictor.fit(traces.roi_series(task), online_update)

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": self.tag,
            "chain": chain_to_dict(self.chain),
            "slope": self.slope,
            "intercept": self.intercept,
            "online_update": self.online_update,
        }

    @staticmethod
    def from_dict(d: Mapping[str, Any]) -> "RoiLinearMarkovPredictor":
        return RoiLinearMarkovPredictor(
            float(d["slope"]),
            float(d["intercept"]),
            chain_from_dict(d["chain"]),
            online_update=bool(d["online_update"]),
        )

    def growth(self, roi_kpixels: Kpixels) -> Milliseconds:
        """The Eq. 3 linear term for a given ROI size."""
        return self.slope * float(roi_kpixels) + self.intercept

    def predict(self, ctx: PredictionContext) -> Milliseconds:
        base = self.growth(ctx.roi_kpixels)
        if self._last_residual is None:
            return max(_MIN_PREDICTION_MS, base)
        return max(
            _MIN_PREDICTION_MS, base + self.chain.predict_next(self._last_residual)
        )

    def predict_series(
        self,
        values: NDArray[np.float64],
        roi_kpixels: NDArray[np.float64] | None = None,
    ) -> NDArray[np.float64]:
        """Batch walk-forward predictions (see :func:`predict_series_loop`)."""
        x = np.asarray(values, dtype=np.float64)
        if roi_kpixels is None:
            roi = np.zeros(x.size, dtype=np.float64)
        else:
            roi = np.asarray(roi_kpixels, dtype=np.float64)
        base = self.slope * roi + self.intercept
        out = np.empty(x.size, dtype=np.float64)
        if x.size == 0:
            return out
        out[0] = base[0]
        out[1:] = base[1:] + _chain_walk(
            self.chain, x[:-1] - base[:-1], self.online_update
        )
        return _floor(out)

    def walk(
        self,
        values: NDArray[np.float64],
        roi_kpixels: NDArray[np.float64],
        scenario_ids: NDArray[np.integer],  # noqa: ARG002
    ) -> Walk:
        """The Eq. 3 term is the frame's own; the Markov correction
        after ``j`` observations is the chain's answer from residual
        ``j - 1`` (none before the first)."""
        x = np.asarray(values, dtype=np.float64)
        roi = np.asarray(roi_kpixels, dtype=np.float64)
        corr = _chain_walk(
            self.chain, x - (self.slope * roi + self.intercept), self.online_update
        )
        return Walk(self, x, roi, [0.0, *corr.tolist()], self.slope, self.intercept)

    def emit_walk_telemetry(
        self,
        metrics: obs.MetricsRegistry,
        values: NDArray[np.float64],
        roi: NDArray[np.float64],
        seen: NDArray[np.intp],
        weights: NDArray[np.intp],
    ) -> None:
        """Each call past the first observation predicts from the
        latest residual's state (``markov_state_total``)."""
        warm = seen >= 1
        residuals = values - (self.slope * roi + self.intercept)
        _count_states(metrics, self.chain, residuals[seen[warm] - 1], weights[warm])

    def observe(self, ms: Milliseconds, ctx: PredictionContext) -> None:
        residual = float(ms) - self.growth(ctx.roi_kpixels)
        if self.online_update and self._last_residual is not None:
            self.chain.observe_transition(self._last_residual, residual)
        self._last_residual = residual

    def reset(self) -> None:
        self._last_residual = None


def granularity_group(scenario_id: Any) -> Any:
    """The ROI-mode bit of a scenario id (0 = full frame, 1 = ROI);
    elementwise over an integer array.

    This is the *predictable* part of the switch state: the frame's
    processing granularity is pipeline state fixed by the previous
    frame, so a runtime predictor may legitimately condition on it
    (unlike the RDG and registration bits, which the content decides
    during the frame).
    """
    return (scenario_id >> 1) & 1


class ScenarioConditionedPredictor:
    """Per-granularity predictors behind one interface.

    The title's "scenario-based" idea applied at task level: a task
    whose timing regime differs between full-frame and ROI processing
    (CPLS SEL's candidate count, most visibly) gets one inner
    predictor per granularity group, trained only on that group's
    consecutive runs.  A pooled predictor serves as fallback when the
    context carries no scenario or a group never appeared in
    training.
    """

    tag = "scenario-conditioned"

    def __init__(
        self,
        inner: dict[int, TaskTimePredictor],
        pooled: TaskTimePredictor,
    ) -> None:
        self.inner = dict(inner)
        self.pooled = pooled

    @property
    def kind(self) -> str:
        return f"per-granularity {self.pooled.kind}"

    @staticmethod
    def fit(
        traces: "TraceSet",
        task: str,
        alpha: float = PAPER_EWMA_ALPHA,
        online_update: bool = False,
        min_samples: int = 12,
    ) -> "ScenarioConditionedPredictor":
        """Train one EWMA+Markov per granularity group + a pooled one."""
        grouped = traces.task_series_grouped(
            task, lambda r: granularity_group(r.scenario_id)
        )
        inner: dict[int, TaskTimePredictor] = {}
        for key, series in grouped.items():
            total = sum(s.size for s in series)
            if total >= min_samples:
                inner[int(key)] = EwmaMarkovPredictor.fit(
                    series, alpha=alpha, online_update=online_update
                )
        pooled = EwmaMarkovPredictor.fit(
            traces.task_series(task), alpha=alpha, online_update=online_update
        )
        return ScenarioConditionedPredictor(inner, pooled)

    from_traces = fit

    def to_dict(self) -> dict[str, Any]:
        return {
            "type": self.tag,
            "inner": {str(k): predictor_to_dict(v) for k, v in self.inner.items()},
            "pooled": predictor_to_dict(self.pooled),
        }

    @staticmethod
    def from_dict(d: Mapping[str, Any]) -> "ScenarioConditionedPredictor":
        return ScenarioConditionedPredictor(
            inner={int(k): predictor_from_dict(v) for k, v in d["inner"].items()},
            pooled=predictor_from_dict(d["pooled"]),
        )

    def _select(self, ctx: PredictionContext) -> TaskTimePredictor:
        if ctx.scenario_id is None:
            return self.pooled
        return self.inner.get(granularity_group(ctx.scenario_id), self.pooled)

    def predict(self, ctx: PredictionContext) -> Milliseconds:
        return self._select(ctx).predict(ctx)

    def observe(self, ms: Milliseconds, ctx: PredictionContext) -> None:
        selected = self._select(ctx)
        selected.observe(ms, ctx)
        if selected is not self.pooled:
            # Keep the fallback warm too (it sees the mixed stream,
            # which is exactly what it models).
            self.pooled.observe(ms, ctx)

    def reset(self) -> None:
        for p in self.inner.values():
            p.reset()
        self.pooled.reset()

    def predict_series(
        self,
        values: NDArray[np.float64],
        roi_kpixels: NDArray[np.float64] | None = None,
    ) -> NDArray[np.float64]:
        """Batch walk-forward predictions (see :func:`predict_series_loop`).

        A context without a scenario reads and feeds only the pooled
        predictor.
        """
        return self.pooled.predict_series(values, roi_kpixels)

    def walk(
        self,
        values: NDArray[np.float64],
        roi_kpixels: NDArray[np.float64],
        scenario_ids: NDArray[np.integer],
    ) -> Walk:
        """The pooled walk, with one walk per inner predictor.

        Each execution feeds the inner predictor of its *observed*
        granularity group and the pooled one, so ``inner[g]`` walks the
        sub-series observed in group ``g`` and ``pooled`` the whole
        series.  A prediction for scenario ``s`` after ``j``
        executions reads ``inner[group(s)]`` at the number of group
        executions among the first ``j``, and ``pooled`` at ``j``
        where ``group(s)`` has no inner predictor (:meth:`Walk.at`).
        """
        x = np.asarray(values, dtype=np.float64)
        roi = np.asarray(roi_kpixels, dtype=np.float64)
        sids = np.asarray(scenario_ids)
        walk = self.pooled.walk(x, roi, sids)
        groups = granularity_group(sids)
        for g, p in self.inner.items():
            in_group = groups == g
            inner = p.walk(x[in_group], roi[in_group], sids[in_group])
            inner.seen = np.concatenate(([0], np.cumsum(in_group)))
            inner.offsets = np.asarray(inner.offsets)[inner.seen].tolist()
            walk.groups[g] = inner
        return walk


#: The closed set of predictor kinds: kind (= serialized ``"type"``
#: tag) -> class.
PREDICTORS: Mapping[str, type] = {
    ConstantPredictor.tag: ConstantPredictor,
    LastValuePredictor.tag: LastValuePredictor,
    MarkovPredictor.tag: MarkovPredictor,
    EwmaMarkovPredictor.tag: EwmaMarkovPredictor,
    RoiLinearMarkovPredictor.tag: RoiLinearMarkovPredictor,
    ScenarioConditionedPredictor.tag: ScenarioConditionedPredictor,
}


def predictor_class(kind: str) -> Any:
    """The predictor class of ``kind``; unknown kinds raise ``ValueError``."""
    try:
        return PREDICTORS[kind]
    except KeyError:
        raise ValueError(f"unknown predictor kind {kind!r}") from None


def predictor_to_dict(p: TaskTimePredictor) -> dict[str, Any]:
    """Serialize a trained predictor of one of the table's classes."""
    if type(p) not in PREDICTORS.values():
        raise TypeError(f"cannot serialize predictor of type {type(p).__name__}")
    return p.to_dict()


def predictor_from_dict(d: Mapping[str, Any]) -> TaskTimePredictor:
    """Rebuild a predictor from its serialized document."""
    p: TaskTimePredictor = predictor_class(d["type"]).from_dict(d)
    return p


def chain_to_dict(chain: MarkovChain) -> dict[str, Any]:
    """Serialize a fitted Markov chain to plain JSON types."""
    return {
        "edges": chain.quantizer.edges.tolist(),
        "centers": chain.quantizer.centers.tolist(),
        "transition": chain.transition.tolist(),
        "counts": chain.counts.tolist(),
    }


def chain_from_dict(d: Mapping[str, Any]) -> MarkovChain:
    """Inverse of :func:`chain_to_dict`."""
    q = AdaptiveQuantizer(
        edges=np.asarray(d["edges"], dtype=np.float64),
        centers=np.asarray(d["centers"], dtype=np.float64),
    )
    return MarkovChain(
        q,
        np.asarray(d["transition"], dtype=np.float64),
        np.asarray(d["counts"], dtype=np.float64),
    )


#: Which model class each task trains with (Table 2b).
DEFAULT_PREDICTOR_KINDS: Mapping[str, str] = {
    "RDG_DETECT": "constant",
    "RDG_FULL": "ewma+markov",
    "RDG_ROI": "roi+markov",
    "MKX_FULL": "constant",
    "MKX_ROI": "constant",
    "MKX_FULL_RDG": "constant",
    "MKX_ROI_RDG": "constant",
    "CPLS_SEL": "ewma+markov",
    "REG": "constant",
    "ROI_EST": "constant",
    "GW_EXT": "ewma+markov",
    "ENH": "constant",
    "ZOOM": "constant",
}


@dataclass
class ComputationModel:
    """All per-task predictors of one trained Triple-C instance."""

    predictors: dict[str, TaskTimePredictor] = field(default_factory=dict)
    #: Training-mean time per task; the "average case" the runtime
    #: manager initializes its latency budget from (Section 6).
    train_mean_ms: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Label each EWMA+Markov predictor (inner ones of a conditioned
        # predictor too) with its task for the component telemetry; a
        # fitted and a loaded model go through here alike.
        for task, p in self.predictors.items():
            inner = (
                (*p.inner.values(), p.pooled)
                if isinstance(p, ScenarioConditionedPredictor)
                else (p,)
            )
            for q in inner:
                if isinstance(q, EwmaMarkovPredictor):
                    q.task = task

    @staticmethod
    def fit(
        traces: TraceSet,
        predictor_kinds: Mapping[str, str] | None = None,
        alpha: float = PAPER_EWMA_ALPHA,
        online_update: bool = False,
    ) -> "ComputationModel":
        """Train every task's predictor from profiling traces.

        Kind strings resolve through :data:`PREDICTORS`; tasks
        appearing in the traces but not in ``predictor_kinds`` fall
        back to a constant model.
        """
        kinds = dict(DEFAULT_PREDICTOR_KINDS)
        if predictor_kinds:
            kinds.update(predictor_kinds)
        predictors: dict[str, TaskTimePredictor] = {}
        train_mean_ms: dict[str, float] = {}
        for task in traces.tasks():
            series = traces.task_series(task)
            if not series:
                continue
            train_mean_ms[task] = float(
                np.concatenate([np.asarray(s) for s in series]).mean()
            )
            cls = predictor_class(kinds.get(task, "constant"))
            predictors[task] = cls.from_traces(
                traces, task, alpha=alpha, online_update=online_update
            )
        return ComputationModel(predictors, train_mean_ms)

    def predict_tasks(
        self, tasks: Sequence[str], ctx: PredictionContext
    ) -> dict[str, float]:
        """Per-task predictions for the given active-task list.

        Tasks without a trained predictor predict 0 (they never
        appeared during training; the runtime treats them as free and
        the observe step will start training them online).
        """
        out: dict[str, float] = {}
        for t in tasks:
            p = self.predictors.get(t)
            out[t] = p.predict(ctx) if p is not None else 0.0
        return out

    def predict_task_series(
        self,
        task: str,
        values: NDArray[np.float64],
        roi_kpixels: NDArray[np.float64] | None = None,
    ) -> NDArray[np.float64]:
        """Batch walk-forward predictions of one task over a series
        (the predict-then-observe protocol from reset state)."""
        p = self.predictors.get(task)
        if p is None:
            return np.zeros(np.asarray(values).size, dtype=np.float64)
        return p.predict_series(values, roi_kpixels)

    def walk(
        self,
        task: str,
        values: NDArray[np.float64],
        roi_kpixels: NDArray[np.float64],
        scenario_ids: NDArray[np.integer],
    ) -> Walk:
        """The batched walk of one task over its executions' measured
        times, planning ROI sizes and observed scenario ids (see
        :class:`Walk`).  An untrained task predicts 0 throughout."""
        p = self.predictors.get(task)
        if p is None:
            zeros = [0.0] * (np.asarray(values).size + 1)
            return Walk(None, values, roi_kpixels, zeros, floor=0.0)
        return p.walk(values, roi_kpixels, scenario_ids)

    def observe_frame(
        self, task_ms: Mapping[str, float], ctx: PredictionContext
    ) -> None:
        """Feed the measured times of one executed frame."""
        for t, ms in task_ms.items():
            p = self.predictors.get(t)
            if p is not None:
                p.observe(ms, ctx)

    def reset(self) -> None:
        """Reset all per-sequence online state."""
        for p in self.predictors.values():
            p.reset()

    def summary(self) -> list[tuple[str, str]]:
        """(task, model-kind) rows -- the Table 2(b) reproduction."""
        return [(t, p.kind) for t, p in sorted(self.predictors.items())]
