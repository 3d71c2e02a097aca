"""Per-job runtime estimators feeding scheduler and admission control.

Backfill and admission decisions need an estimate of how long each
job will run *before it runs*.  Three estimators bracket the design
space the ROADMAP's fleet item calls for:

``worst-case``
    The tenant-declared walltime limit, verbatim.  Safe but sloppy
    (traces declare 3-12x the truth), so backfill windows look
    smaller than they are and less work fits into them.
``triplec``
    The paper's EWMA+Markov predictor, one per application class,
    fitted on a warmup prefix of the trace through the
    :func:`repro.core.registry.fit_series_predictor` estimate
    adapter and updated online from completions (predict at submit,
    observe at finish -- the Section 6 feedback loop lifted from
    frames to jobs).
``oracle``
    The true runtime from the trace: the upper bound on what any
    predictor could buy.
"""

from __future__ import annotations

from typing import Mapping, Protocol, Sequence

import numpy as np

from repro.core.computation import PredictionContext, TaskTimePredictor
from repro.core.registry import fit_series_predictor
from repro.fleet.jobs import JobRecord, arrival_key

__all__ = [
    "RuntimeEstimator",
    "WorstCaseEstimator",
    "OracleEstimator",
    "TripleCEstimator",
    "make_estimator",
    "ESTIMATOR_KINDS",
]


class RuntimeEstimator(Protocol):
    """Protocol every fleet runtime estimator implements."""

    #: Estimator family name (appears in reports).
    name: str

    def estimate_ms(self, job: JobRecord) -> float:
        """Estimated reference-core runtime of ``job``."""

    def observe(self, job: JobRecord, actual_ms: float) -> None:
        """Feed the measured runtime once the job completes."""


class WorstCaseEstimator:
    """The declared walltime limit (non-predictive baseline)."""

    name = "worst-case"

    def estimate_ms(self, job: JobRecord) -> float:
        return job.limit_ms

    def observe(self, job: JobRecord, actual_ms: float) -> None:
        return None


class OracleEstimator:
    """Perfect knowledge of the true runtime (upper bound)."""

    name = "oracle"

    def estimate_ms(self, job: JobRecord) -> float:
        return job.runtime_ms

    def observe(self, job: JobRecord, actual_ms: float) -> None:
        return None


class TripleCEstimator:
    """EWMA+Markov per-app runtime prediction with online feedback.

    One registry-fitted predictor per application class.  Estimates
    are floored at 1 ms and capped at the declared limit (a predictor
    may never promise more than the walltime the scheduler would
    enforce).  Classes absent from the warmup fall back to the
    declared limit until their predictor exists.
    """

    name = "triplec"

    def __init__(
        self,
        predictors: Mapping[str, TaskTimePredictor],
        kind: str = "ewma+markov",
    ) -> None:
        self._predictors = dict(predictors)
        self._ctx = PredictionContext()
        self.kind = kind

    @classmethod
    def from_trace(
        cls,
        jobs: Sequence[JobRecord],
        warmup_per_app: int = 40,
        kind: str = "ewma+markov",
        alpha: float = 0.3,
    ) -> "TripleCEstimator":
        """Fit per-app predictors from each class's warmup prefix.

        ``warmup_per_app`` earliest-arriving runtimes per class (in
        the simulator's arrival order, whatever the order of ``jobs``)
        play the role of the profiling corpus; online updating then adapts
        the chain to the live mix as completions are observed.
        """
        series: dict[str, list[float]] = {}
        for job in sorted(jobs, key=arrival_key):
            bucket = series.setdefault(job.app, [])
            if len(bucket) < warmup_per_app:
                bucket.append(job.runtime_ms)
        predictors: dict[str, TaskTimePredictor] = {}
        for app, values in sorted(series.items()):
            predictors[app] = fit_series_predictor(
                kind,
                np.asarray(values, dtype=np.float64),
                alpha=alpha,
                online_update=True,
            )
        return cls(predictors, kind=kind)

    def estimate_ms(self, job: JobRecord) -> float:
        predictor = self._predictors.get(job.app)
        if predictor is None:
            return job.limit_ms
        raw = float(predictor.predict(self._ctx))
        return min(max(raw, 1.0), job.limit_ms)

    def observe(self, job: JobRecord, actual_ms: float) -> None:
        predictor = self._predictors.get(job.app)
        if predictor is not None:
            predictor.observe(float(actual_ms), self._ctx)


#: Estimator kinds :func:`make_estimator` accepts.
ESTIMATOR_KINDS: tuple[str, ...] = ("worst-case", "oracle", "triplec")


def make_estimator(
    kind: str, trace: Sequence[JobRecord]
) -> RuntimeEstimator:
    """Build a fresh estimator of ``kind`` for one simulation run."""
    if kind == "worst-case":
        return WorstCaseEstimator()
    if kind == "oracle":
        return OracleEstimator()
    if kind == "triplec":
        return TripleCEstimator.from_trace(trace)
    raise ValueError(
        f"unknown estimator kind {kind!r}; expected one of {ESTIMATOR_KINDS}"
    )
