"""Ablations of Triple-C's design choices.

The paper fixes several design parameters by experiment ("we have
experimentally evolved to a model with approximately 2M states",
equal-mass quantization, first-order chains, EWMA filtering).  These
helpers re-run those decisions on our traces so each choice can be
justified quantitatively:

* :func:`alpha_sweep` -- EWMA smoothing factor (Eq. 1);
* :func:`state_factor_sweep` -- M vs 2M vs 4M state counts;
* :func:`quantization_comparison` -- equal-mass vs equal-width bins;
* :func:`predictor_comparison` -- constant / last-value / pure Markov
  / EWMA+Markov, plus the order-2 sparsity diagnostic;
* :func:`order_comparison` -- order-1 vs order-2 accuracy (the
  sparsity penalty the paper predicts);
* :func:`conditioning_comparison` -- pooled vs granularity-conditioned
  task predictors (the title's "scenario-based" at task level);
* :func:`stripe_scaling` -- N-way data partitioning beyond the
  paper's 2-stripe case (extension);
* :func:`partition_policy_comparison` -- robust multi-scenario vs
  most-likely-only repartitioning;
* :func:`scenario_awareness_comparison` -- scenario-based vs pooled
  frame-time prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from repro.core.accuracy import AccuracyReport, prediction_accuracy
from repro.core.computation import (
    ConstantPredictor,
    EwmaMarkovPredictor,
    LastValuePredictor,
    MarkovPredictor,
    PredictionContext,
    TaskTimePredictor,
    predict_series_loop,
)
from repro.core.markov import AdaptiveQuantizer, MarkovChain, MarkovChain2
from repro.experiments.common import ExperimentContext, make_pipeline
from repro.profiling import ProfileConfig, TraceSet, profile_corpus
from repro.runtime import FrameEngine, TripleCPolicy
from repro.runtime.partition import Partitioner
from repro.synthetic import CorpusSpec, generate_corpus

__all__ = [
    "walk_forward_accuracy",
    "alpha_sweep",
    "state_factor_sweep",
    "quantization_comparison",
    "predictor_comparison",
    "order2_sparsity",
    "order_comparison",
    "Order2Predictor",
    "stripe_scaling",
    "partition_policy_comparison",
    "scenario_awareness_comparison",
    "held_out_traces",
]

def held_out_traces(ctx: ExperimentContext, n_sequences: int = 6) -> TraceSet:
    """Profile a disjoint-seed test corpus for ablation evaluation."""
    spec = CorpusSpec(
        n_sequences=n_sequences,
        total_frames=n_sequences * 70,
        base_seed=ctx.corpus_spec.base_seed + 4242,
    )
    return profile_corpus(
        generate_corpus(spec),
        ProfileConfig(
            platform=ctx.platform,
            pixel_scale=ctx.profile_config.pixel_scale,
            seed=ctx.profile_config.seed + 7,
        ),
    )


def walk_forward_accuracy(
    predictor: TaskTimePredictor,
    test_series: Sequence[NDArray[np.float64]],
    warmup: int = 2,
) -> AccuracyReport:
    """Strict predict-then-observe evaluation over held-out series.

    The predictor is reset at each series boundary (sequence change),
    and the first ``warmup`` frames of each series are excluded from
    scoring (state fill-in).
    """
    batch = getattr(predictor, "predict_series", None)
    pred_parts: list[NDArray[np.float64]] = []
    actual_parts: list[NDArray[np.float64]] = []
    for series in test_series:
        x = np.asarray(series, dtype=np.float64)
        if batch is not None:
            p = np.asarray(batch(x), dtype=np.float64)
        else:
            p = predict_series_loop(predictor, x)
        pred_parts.append(p[warmup:])
        actual_parts.append(x[warmup:])
    preds = np.concatenate(pred_parts) if pred_parts else np.empty(0)
    if preds.size == 0:
        raise ValueError("test series too short for the warmup")
    return prediction_accuracy(preds, np.concatenate(actual_parts))


def alpha_sweep(
    train: TraceSet,
    test: TraceSet,
    task: str = "RDG_FULL",
    alphas: Sequence[float] = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9),
) -> list[tuple[float, AccuracyReport]]:
    """Accuracy of the EWMA+Markov predictor across alpha (Eq. 1)."""
    train_series = train.task_series(task)
    test_series = test.task_series(task)
    out = []
    for alpha in alphas:
        p = EwmaMarkovPredictor.fit(train_series, alpha=alpha)
        out.append((float(alpha), walk_forward_accuracy(p, test_series)))
    return out


def state_factor_sweep(
    train: TraceSet,
    test: TraceSet,
    task: str = "CPLS_SEL",
    factors: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
) -> list[tuple[float, int, AccuracyReport]]:
    """Accuracy vs the state-count refinement factor (paper: ~2M).

    Returns (factor, n_states, report) rows for a pure Markov
    predictor over the task's raw times.
    """
    train_series = train.task_series(task)
    test_series = test.task_series(task)
    all_values = np.concatenate([np.asarray(s) for s in train_series])
    out = []
    for factor in factors:
        q = AdaptiveQuantizer.fit(all_values, states_factor=factor)
        chain = MarkovChain.fit(train_series, quantizer=q)
        p = MarkovPredictor(chain)
        out.append((float(factor), q.n_states, walk_forward_accuracy(p, test_series)))
    return out


def quantization_comparison(
    train: TraceSet,
    test: TraceSet,
    task: str = "CPLS_SEL",
    n_states: int = 10,
) -> dict[str, AccuracyReport]:
    """Equal-mass (the paper's choice) vs equal-width intervals."""
    train_series = train.task_series(task)
    test_series = test.task_series(task)
    all_values = np.concatenate([np.asarray(s) for s in train_series])
    out: dict[str, AccuracyReport] = {}
    for name, equal_mass in (("equal-mass", True), ("equal-width", False)):
        q = AdaptiveQuantizer.fit(all_values, n_states=n_states, equal_mass=equal_mass)
        chain = MarkovChain.fit(train_series, quantizer=q)
        out[name] = walk_forward_accuracy(MarkovPredictor(chain), test_series)
    return out


def predictor_comparison(
    train: TraceSet,
    test: TraceSet,
    task: str = "RDG_FULL",
) -> dict[str, AccuracyReport]:
    """Constant / last-value / Markov / EWMA+Markov on one task."""
    train_series = train.task_series(task)
    test_series = test.task_series(task)
    factories: dict[str, Callable[[], TaskTimePredictor]] = {
        "constant": lambda: ConstantPredictor.fit(train_series),
        "last-value": lambda: LastValuePredictor.fit(train_series),
        "markov": lambda: MarkovPredictor.fit(train_series),
        "ewma+markov": lambda: EwmaMarkovPredictor.fit(train_series),
    }
    return {
        name: walk_forward_accuracy(make(), test_series)
        for name, make in factories.items()
    }


class Order2Predictor:
    """Second-order Markov predictor (ablation only).

    Exists to measure, in accuracy terms, the sparsity penalty that
    made the paper reject higher-order chains.
    """

    kind = "Markov (order 2)"

    def __init__(self, chain: MarkovChain2, fallback_ms: float) -> None:
        self.chain = chain
        self._fallback = float(fallback_ms)
        self._prev: float | None = None
        self._last: float | None = None

    @staticmethod
    def fit(series: Sequence[NDArray[np.float64]]) -> "Order2Predictor":
        values = np.concatenate([np.asarray(s) for s in series])
        return Order2Predictor(MarkovChain2.fit(series), float(values.mean()))

    def predict(self, ctx: PredictionContext) -> float:  # noqa: ARG002
        if self._prev is None or self._last is None:
            return self._fallback
        return max(1e-3, self.chain.predict_next(self._prev, self._last))

    def predict_series(
        self,
        values: NDArray[np.float64],
        roi_kpixels: NDArray[np.float64] | None = None,  # noqa: ARG002
    ) -> NDArray[np.float64]:
        """Batch walk-forward predictions (predict-then-observe)."""
        x = np.asarray(values, dtype=np.float64)
        out = np.full(x.size, self._fallback, dtype=np.float64)
        if x.size > 2:
            expected = self.chain.expected_next_values()
            i = self.chain.quantizer.states(x[:-2])
            j = self.chain.quantizer.states(x[1:-1])
            out[2:] = np.maximum(1e-3, expected[i, j])
        return out

    def observe(self, ms: float, ctx: PredictionContext) -> None:  # noqa: ARG002
        self._prev, self._last = self._last, float(ms)

    def reset(self) -> None:
        self._prev = None
        self._last = None


def order_comparison(
    train: TraceSet,
    test: TraceSet,
    task: str = "CPLS_SEL",
) -> dict[str, AccuracyReport]:
    """Order-1 vs order-2 Markov accuracy on held-out series.

    The paper's expectation: despite its larger context, the order-2
    chain does *not* win, because its per-context sample counts are
    too small for reliable estimates ("the number of samples for each
    estimate is very small, even for long data sets").
    """
    train_series = train.task_series(task)
    test_series = test.task_series(task)
    return {
        "order-1": walk_forward_accuracy(
            MarkovPredictor.fit(train_series), test_series
        ),
        "order-2": walk_forward_accuracy(
            Order2Predictor.fit(train_series), test_series
        ),
    }


def order2_sparsity(train: TraceSet, task: str = "CPLS_SEL") -> dict[str, float]:
    """The paper's case against higher-order chains, quantified.

    Returns the fraction of order-2 context rows ever observed and the
    mean samples per observed row, next to the order-1 equivalents.
    """
    series = train.task_series(task)
    all_values = np.concatenate([np.asarray(s) for s in series])
    q = AdaptiveQuantizer.fit(all_values)
    chain1 = MarkovChain.fit(series, quantizer=q)
    chain2 = MarkovChain2.fit(series, quantizer=q)
    frac2, samples2 = chain2.occupancy()
    rows1 = chain1.counts.sum(axis=1) > 0
    samples1 = float(chain1.counts.sum() / max(rows1.sum(), 1))
    return {
        "n_states": float(q.n_states),
        "order1_row_coverage": float(rows1.mean()),
        "order1_samples_per_row": samples1,
        "order2_row_coverage": frac2,
        "order2_samples_per_row": samples2,
    }


@dataclass(frozen=True)
class StripePoint:
    """Latency of one task at one partition width."""

    parts: int
    latency_ms: float
    speedup: float
    efficiency: float


def stripe_scaling(
    ctx: ExperimentContext,
    task: str = "RDG_FULL",
    compute_ms: float = 45.0,
    max_parts: int = 8,
) -> list[StripePoint]:
    """N-way stripe scaling curve (the paper stops at 2 stripes)."""
    part = Partitioner(ctx.platform, ctx.graph, max_parts=max_parts)
    serial = part.task_latency_ms(task, compute_ms, 1)
    out = []
    for k in range(1, max_parts + 1):
        lat = part.task_latency_ms(task, compute_ms, k)
        speedup = serial / lat
        out.append(
            StripePoint(
                parts=k,
                latency_ms=lat,
                speedup=speedup,
                efficiency=speedup / k,
            )
        )
    return out


def conditioning_comparison(
    train: TraceSet,
    test: TraceSet,
    task: str = "CPLS_SEL",
) -> dict[str, AccuracyReport]:
    """Pooled vs granularity-conditioned EWMA+Markov on one task.

    The conditioning key is the ROI-mode bit -- pipeline state that a
    runtime genuinely knows before the frame executes -- so the
    comparison is deployable, not an oracle.
    """
    from repro.core.computation import ScenarioConditionedPredictor

    pooled = EwmaMarkovPredictor.fit(train.task_series(task))
    conditioned = ScenarioConditionedPredictor.fit(train, task)

    out: dict[str, AccuracyReport] = {}
    for name, predictor in (("pooled", pooled), ("conditioned", conditioned)):
        preds: list[float] = []
        actuals: list[float] = []
        prev_seq: int | None = None
        warm = 0
        for rec in test.records:
            if rec.seq != prev_seq:
                predictor.reset()
                prev_seq = rec.seq
                warm = 0
            if task not in rec.task_ms:
                continue
            ctx = PredictionContext(
                roi_kpixels=rec.roi_kpixels, scenario_id=rec.scenario_id
            )
            p = predictor.predict(ctx)
            if warm >= 2:
                preds.append(p)
                actuals.append(rec.task_ms[task])
            warm += 1
            predictor.observe(rec.task_ms[task], ctx)
        out[name] = prediction_accuracy(np.asarray(preds), np.asarray(actuals))
    return out


def scenario_awareness_comparison(
    ctx: ExperimentContext,
    train: TraceSet | None = None,
    test: TraceSet | None = None,
) -> dict[str, AccuracyReport]:
    """The title ablation: *scenario-based* vs scenario-oblivious.

    Triple-C predicts the frame time as the sum of per-task models
    over the tasks of the *predicted scenario*.  The oblivious
    alternative models the frame latency as one pooled EWMA+Markov
    series, ignoring the switch structure entirely.  Scenario switches
    change the frame time by integer multiples of whole tasks
    (ENH+ZOOM appearing/disappearing is a ~37 ms step), which a pooled
    scalar model can only chase after the fact -- this comparison
    quantifies how much the scenario table buys.
    """
    train = train or ctx.traces
    test = test or held_out_traces(ctx)

    # --- scenario-oblivious: pooled frame-latency EWMA+Markov.
    lat_train: list[NDArray[np.float64]] = []
    for seq_id in train.sequences():
        lat_train.append(
            np.asarray(
                [r.latency_ms for r in train.records if r.seq == seq_id]
            )
        )
    pooled = EwmaMarkovPredictor.fit(lat_train)
    lat_test = [
        np.asarray([r.latency_ms for r in test.records if r.seq == seq_id])
        for seq_id in test.sequences()
    ]
    oblivious = walk_forward_accuracy(pooled, lat_test)

    # --- scenario-based: the full Triple-C predict/observe loop over
    # the same held-out records.
    from repro.core.triplec import TripleC

    model = TripleC.fit(train, graph=ctx.graph, platform=ctx.platform)
    preds: list[float] = []
    actuals: list[float] = []
    prev_seq: int | None = None
    warmup_left = 0
    for rec in test.records:
        if rec.seq != prev_seq:
            model.start_sequence()
            prev_seq = rec.seq
            warmup_left = 2
        pred = model.predict(rec.roi_kpixels)
        if warmup_left == 0:
            preds.append(pred.frame_ms)
            actuals.append(sum(rec.task_ms.values()))
        else:
            warmup_left -= 1
        model.observe(rec.scenario_id, rec.task_ms, rec.roi_kpixels)
    scenario_based = prediction_accuracy(np.asarray(preds), np.asarray(actuals))

    return {"scenario-based": scenario_based, "oblivious": oblivious}


def partition_policy_comparison(
    ctx: ExperimentContext, n_frames: int = 150, seed: int = 777
) -> dict[str, dict[str, float]]:
    """Robust multi-scenario vs most-likely-only repartitioning.

    Returns per-policy budget-violation rate and completion-latency
    jitter on the Fig. 7 test sequence.
    """
    from repro.experiments.fig7 import fig7_sequence

    results: dict[str, dict[str, float]] = {}
    for policy in ("robust", "most-likely"):
        sim = ctx.profile_config.make_simulator()
        # A threshold above 1 admits no scenario but the most likely
        # one: the plain (non-robust) chooser.
        p_min = 1.1 if policy == "most-likely" else 0.01
        engine = FrameEngine(
            sim, TripleCPolicy.for_simulator(ctx.fresh_model(), sim, p_min=p_min)
        )
        seq = fig7_sequence(n_frames=n_frames, seed=seed)
        run = engine.run(seq, make_pipeline(seq), seq_key=f"pol-{policy}")
        lat = run.latency()
        budget = run.budget_ms or 0.0
        results[policy] = {
            "budget_ms": budget,
            "violation_rate": float(np.mean(lat > budget + 1e-9)),
            "latency_std": float(np.std(lat)),
            "latency_max": float(lat.max()),
            "mean_cores": run.mean_cores_used(),
        }
    return results
