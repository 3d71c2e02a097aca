"""Name-keyed registry of computation-time predictor backends.

Every predictor family (Table 2b's constants, the Eq. 1 EWMA+Markov
combination, the Eq. 3 ROI model, ...) is described once, here, by a
:class:`PredictorBackend`: how to *train* it from profiling traces,
how to *serialize* its fitted parameters, and how to rebuild it from
that document.  Training (:meth:`ComputationModel.fit`) and
persistence (:mod:`repro.core.serialize`) both dispatch through this
registry, so adding a predictor is one ``register_predictor`` call --
no isinstance ladders or string switches to extend.

Kind strings are the registry keys.  The canonical names match the
serialized ``"type"`` tags; historical fit-time spellings (e.g.
``"scenario+ewma+markov"``) are registered as aliases of the same
backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.core.computation import (
    ConstantPredictor,
    EwmaMarkovPredictor,
    LastValuePredictor,
    MarkovPredictor,
    RoiLinearMarkovPredictor,
    ScenarioConditionedPredictor,
    TaskTimePredictor,
)
from repro.core.markov import AdaptiveQuantizer, MarkovChain

if TYPE_CHECKING:
    from repro.profiling.traces import TraceSet

__all__ = [
    "PredictorBackend",
    "register_predictor",
    "get_predictor",
    "registered_kinds",
    "predictor_to_dict",
    "predictor_from_dict",
    "chain_to_dict",
    "chain_from_dict",
    "fit_series_predictor",
]


def chain_to_dict(chain: MarkovChain) -> dict[str, Any]:
    """Serialize a fitted Markov chain to plain JSON types."""
    return {
        "edges": chain.quantizer.edges.tolist(),
        "centers": chain.quantizer.centers.tolist(),
        "transition": chain.transition.tolist(),
        "counts": chain.counts.tolist(),
    }


def chain_from_dict(d: dict[str, Any]) -> MarkovChain:
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


@dataclass(frozen=True)
class PredictorBackend:
    """One predictor family's training and persistence hooks.

    Attributes
    ----------
    name:
        Canonical kind string; doubles as the serialized ``"type"``
        tag.
    cls:
        The predictor class; ``predictor_to_dict`` dispatches on the
        exact type of the instance.
    fit:
        ``fit(traces, task, alpha=..., online_update=...)`` trains a
        fresh predictor for one task from profiling traces.  Backends
        that ignore an option simply drop it.
    to_dict / from_dict:
        JSON round-trip of the *trained* parameters (online state is
        per-sequence and never persisted).
    aliases:
        Alternative kind strings resolving to the same backend.
    """

    name: str
    cls: type
    fit: Callable[..., TaskTimePredictor]
    to_dict: Callable[[Any], dict[str, Any]]
    from_dict: Callable[[dict[str, Any]], TaskTimePredictor]
    aliases: tuple[str, ...] = ()


_BY_KIND: dict[str, PredictorBackend] = {}
_BY_CLASS: dict[type, PredictorBackend] = {}


def register_predictor(backend: PredictorBackend) -> PredictorBackend:
    """Register a backend under its name and all aliases."""
    for key in (backend.name, *backend.aliases):
        _BY_KIND[key] = backend
    _BY_CLASS[backend.cls] = backend
    return backend


def get_predictor(kind: str) -> PredictorBackend:
    """Resolve a kind string (or alias) to its backend."""
    try:
        return _BY_KIND[kind]
    except KeyError:
        raise ValueError(f"unknown predictor kind {kind!r}") from None


def registered_kinds() -> list[str]:
    """All registered kind strings (canonical names and aliases)."""
    return sorted(_BY_KIND)


def predictor_to_dict(p: Any) -> dict[str, Any]:
    """Serialize a trained predictor via its registered backend."""
    backend = _BY_CLASS.get(type(p))
    if backend is None:
        raise TypeError(f"cannot serialize predictor of type {type(p).__name__}")
    return backend.to_dict(p)


def predictor_from_dict(d: dict[str, Any]) -> TaskTimePredictor:
    """Rebuild a predictor from its serialized document."""
    kind = d["type"]
    backend = _BY_KIND.get(kind)
    if backend is None:
        raise ValueError(f"unknown predictor type {kind!r}")
    return backend.from_dict(d)


class _SeriesTraces:
    """Minimal trace-set stand-in carrying one bare value series.

    Registry fits consume ``traces.task_series(task)``; consumers
    that hold a plain millisecond series (the fleet layer's per-app
    job-runtime history) wrap it here so any series-only backend can
    train from it.  Backends needing richer traces (ROI columns,
    scenario labels) fail with an explicit error instead of a stray
    ``AttributeError``.
    """

    __slots__ = ("_series",)

    #: The placeholder task name the shim serves.
    TASK = "series"

    def __init__(self, series: "np.ndarray") -> None:
        self._series = [np.asarray(series, dtype=np.float64)]

    def task_series(self, task: str) -> list["np.ndarray"]:
        if task != self.TASK:
            raise KeyError(task)
        return self._series

    def task_values(self, task: str) -> "np.ndarray":
        return np.concatenate(self.task_series(task))


def fit_series_predictor(
    kind: str, series: Any, **options: Any
) -> TaskTimePredictor:
    """Fit a registered backend from a bare value series.

    The estimate adapter for consumers outside the per-task frame
    loop: anything holding an ordered millisecond series (per-app job
    runtimes, per-tenant frame latencies) gets a trained
    :class:`TaskTimePredictor` of the requested ``kind`` with one
    call.  ``options`` pass through to the backend fit (``alpha``,
    ``online_update``, ...).

    Only series-only backends qualify (``constant``, ``last-value``,
    ``markov``, ``ewma+markov``); backends that need full profiling
    traces raise ``ValueError``.
    """
    backend = get_predictor(kind)
    values = np.asarray(series, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("series must be a non-empty 1-D value sequence")
    try:
        return backend.fit(_SeriesTraces(values), _SeriesTraces.TASK, **options)
    except (AttributeError, KeyError) as exc:
        raise ValueError(
            f"predictor kind {kind!r} needs full profiling traces and "
            "cannot be fitted from a bare series"
        ) from exc


def _fit_constant(
    traces: "TraceSet", task: str, **options: Any
) -> ConstantPredictor:
    return ConstantPredictor.fit(traces.task_series(task))


def _fit_last_value(
    traces: "TraceSet", task: str, **options: Any
) -> LastValuePredictor:
    return LastValuePredictor.fit(traces.task_series(task))


def _fit_markov(
    traces: "TraceSet", task: str, *, online_update: bool = False, **options: Any
) -> MarkovPredictor:
    return MarkovPredictor.fit(
        traces.task_series(task), online_update=online_update
    )


def _fit_ewma_markov(
    traces: "TraceSet",
    task: str,
    *,
    alpha: float,
    online_update: bool = False,
    **options: Any,
) -> EwmaMarkovPredictor:
    return EwmaMarkovPredictor.fit(
        traces.task_series(task), alpha=alpha, online_update=online_update
    )


def _fit_roi_markov(
    traces: "TraceSet", task: str, *, online_update: bool = False, **options: Any
) -> RoiLinearMarkovPredictor:
    return RoiLinearMarkovPredictor.fit(
        traces.roi_series(task), online_update=online_update
    )


def _fit_scenario_conditioned(
    traces: "TraceSet",
    task: str,
    *,
    alpha: float,
    online_update: bool = False,
    **options: Any,
) -> ScenarioConditionedPredictor:
    return ScenarioConditionedPredictor.fit(
        traces, task, alpha=alpha, online_update=online_update
    )


register_predictor(
    PredictorBackend(
        name="constant",
        cls=ConstantPredictor,
        fit=_fit_constant,
        to_dict=lambda p: {"type": "constant", "value_ms": p.value_ms},
        from_dict=lambda d: ConstantPredictor(value_ms=float(d["value_ms"])),
    )
)

register_predictor(
    PredictorBackend(
        name="last-value",
        cls=LastValuePredictor,
        fit=_fit_last_value,
        to_dict=lambda p: {"type": "last-value", "fallback_ms": p.fallback_ms},
        from_dict=lambda d: LastValuePredictor(
            fallback_ms=float(d["fallback_ms"])
        ),
    )
)

register_predictor(
    PredictorBackend(
        name="markov",
        cls=MarkovPredictor,
        fit=_fit_markov,
        to_dict=lambda p: {
            "type": "markov",
            "chain": chain_to_dict(p.chain),
            "online_update": p.online_update,
        },
        from_dict=lambda d: MarkovPredictor(
            chain_from_dict(d["chain"]), online_update=bool(d["online_update"])
        ),
    )
)

register_predictor(
    PredictorBackend(
        name="ewma+markov",
        cls=EwmaMarkovPredictor,
        fit=_fit_ewma_markov,
        to_dict=lambda p: {
            "type": "ewma+markov",
            "chain": chain_to_dict(p.chain),
            "alpha": p.alpha,
            "fallback_ms": p.fallback_ms,
            "online_update": p.online_update,
        },
        from_dict=lambda d: EwmaMarkovPredictor(
            chain_from_dict(d["chain"]),
            alpha=float(d["alpha"]),
            fallback_ms=float(d["fallback_ms"]),
            online_update=bool(d["online_update"]),
        ),
    )
)

register_predictor(
    PredictorBackend(
        name="roi+markov",
        cls=RoiLinearMarkovPredictor,
        fit=_fit_roi_markov,
        to_dict=lambda p: {
            "type": "roi+markov",
            "chain": chain_to_dict(p.chain),
            "slope": p.slope,
            "intercept": p.intercept,
            "online_update": p.online_update,
        },
        from_dict=lambda d: RoiLinearMarkovPredictor(
            float(d["slope"]),
            float(d["intercept"]),
            chain_from_dict(d["chain"]),
            online_update=bool(d["online_update"]),
        ),
    )
)

register_predictor(
    PredictorBackend(
        name="scenario-conditioned",
        cls=ScenarioConditionedPredictor,
        fit=_fit_scenario_conditioned,
        to_dict=lambda p: {
            "type": "scenario-conditioned",
            "inner": {str(k): predictor_to_dict(v) for k, v in p.inner.items()},
            "pooled": predictor_to_dict(p.pooled),
        },
        from_dict=lambda d: ScenarioConditionedPredictor(
            inner={
                int(k): predictor_from_dict(v) for k, v in d["inner"].items()
            },
            pooled=predictor_from_dict(d["pooled"]),
        ),
        aliases=("scenario+ewma+markov",),
    )
)
