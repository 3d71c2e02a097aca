"""Job records, the trace-replay corpus format, and synthetic bursts.

A *trace* is the fleet simulator's workload input: a list of job
records with submit time, priority, resource request and deadline --
the ``jobs_info`` shape of prediction-aware cluster evaluators.  The
on-disk format is a single JSON document::

    {"schema": "repro-fleet-trace/1",
     "jobs": [{"job_id": ..., "tenant": ..., "tier": ...,
               "app": ..., "submit_ms": ..., "cores": ...,
               "runtime_ms": ..., "limit_ms": ...,
               "deadline_ms": ..., "priority": ...}, ...]}

``runtime_ms`` is the job's true execution time on one reference-
speed node (ground truth for the simulator and the oracle estimator);
``limit_ms`` is the tenant-declared worst-case walltime (what a
non-predictive scheduler packs against).

:func:`synthetic_burst_trace` generates the evaluation workload:
thousands of streams from three tenants/QoS tiers and one application
class per registered workload (parameters from each workload's
:class:`~repro.workloads.FleetParams`), with Markov-modulated per-app
runtime dynamics (so the Triple-C EWMA+Markov estimator has structure
to learn) and burst windows during which the arrival rate multiplies.
All randomness flows through :func:`repro.util.rng.rng_stream`.
Real (non-synthetic) job streams come from
:mod:`repro.fleet.replay`, which converts profiled workload traces
into the same :class:`JobRecord` shape.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.util.rng import rng_stream

__all__ = [
    "TRACE_SCHEMA",
    "JobRecord",
    "arrival_key",
    "AppClass",
    "APP_CLASSES",
    "TENANTS",
    "app_classes_from_registry",
    "save_trace",
    "load_trace",
    "synthetic_burst_trace",
    "trace_summary",
]

#: Schema tag of the on-disk trace document.
TRACE_SCHEMA = "repro-fleet-trace/1"


@dataclass(frozen=True)
class JobRecord:
    """One submitted job (immutable trace input).

    Attributes
    ----------
    job_id:
        Unique identifier, ordered by submission.
    tenant, tier:
        Paying customer and its QoS tier name.
    app:
        Application class; the Triple-C estimator keys its per-class
        runtime predictor on it.
    submit_ms:
        Simulated submission instant.
    cores:
        Rigid single-node core request.
    runtime_ms:
        True reference-core execution time (ground truth).
    limit_ms:
        Declared worst-case walltime (>= runtime_ms in honest
        traces; the worst-case estimator uses it verbatim).
    deadline_ms:
        Absolute completion deadline.
    priority:
        Scheduling precedence (higher first), from the tier.
    """

    job_id: str
    tenant: str
    tier: str
    app: str
    submit_ms: float
    cores: int
    runtime_ms: float
    limit_ms: float
    deadline_ms: float
    priority: int

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError(f"{self.job_id}: cores must be positive")
        if self.runtime_ms <= 0:
            raise ValueError(f"{self.job_id}: runtime_ms must be positive")
        if self.limit_ms < self.runtime_ms:
            raise ValueError(f"{self.job_id}: limit_ms below runtime_ms")
        if self.submit_ms < 0:
            raise ValueError(f"{self.job_id}: submit_ms must be non-negative")


@dataclass(frozen=True)
class AppClass:
    """Runtime dynamics of one application family.

    Runtimes follow a small Markov chain over load states (the
    scenario-switching structure of the paper's pipelines): each job
    draws its state from the class's transition matrix conditioned on
    the previous job's state, then multiplies the state's base
    runtime by lognormal jitter.
    """

    name: str
    cores_choices: tuple[int, ...]
    #: Base runtime per Markov load state (ms on a reference core).
    state_base_ms: tuple[float, ...]
    #: Row-stochastic transition matrix between load states.
    transition: tuple[tuple[float, ...], ...]
    #: Sigma of the multiplicative lognormal jitter.
    jitter_sigma: float
    #: Weight in the workload mix.
    weight: float


def app_classes_from_registry() -> tuple[AppClass, ...]:
    """One :class:`AppClass` per registered workload.

    The fleet's application families *are* the workload registry
    entries: each workload carries its own
    :class:`~repro.workloads.FleetParams` (load-state Markov chain,
    core requests, mix weight), and the synthetic trace generator
    draws from exactly those classes, keyed by registry name -- so a
    replayed real corpus and a synthetic burst share the same ``app``
    vocabulary.
    """
    from repro.workloads import all_workloads

    return tuple(
        AppClass(
            name=wl.name,
            cores_choices=wl.fleet.cores_choices,
            state_base_ms=wl.fleet.state_base_ms,
            transition=wl.fleet.transition,
            jitter_sigma=wl.fleet.jitter_sigma,
            weight=wl.fleet.weight,
        )
        for wl in all_workloads()
    )


#: The application classes of the synthetic mix, one per registered
#: workload (resolved at import time from the registry).
APP_CLASSES: tuple[AppClass, ...] = app_classes_from_registry()

#: (tenant, tier, weight) of the synthetic customer mix.
TENANTS: tuple[tuple[str, str, float], ...] = (
    ("hospital-a", "gold", 0.30),
    ("hospital-b", "silver", 0.40),
    ("clinic-c", "bronze", 0.30),
)

#: Deadline slack multiplier (x runtime, added to the wait allowance)
#: per tier -- gold expects the tightest turnaround.
_DEADLINE_SLACK: dict[str, float] = {"gold": 4.0, "silver": 7.0, "bronze": 12.0}


def save_trace(jobs: Sequence[JobRecord], path: str | Path) -> Path:
    """Write a trace document (sorted keys, byte-stable)."""
    doc = {"schema": TRACE_SCHEMA, "jobs": [asdict(j) for j in jobs]}
    p = Path(path)
    p.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return p


def arrival_key(job: JobRecord) -> tuple[float, str]:
    """Arrival order of a trace: submit time, then job id."""
    return (job.submit_ms, job.job_id)


def load_trace(path: str | Path) -> list[JobRecord]:
    """Read a trace document; jobs come back in submit order."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict) or doc.get("schema") != TRACE_SCHEMA:
        raise ValueError(f"{path}: expected schema {TRACE_SCHEMA!r}")
    jobs = [JobRecord(**row) for row in doc["jobs"]]
    jobs.sort(key=arrival_key)
    return jobs


def _rate_multiplier(t_frac: float) -> float:
    """Arrival-rate modulation over the normalized horizon [0, 1).

    Three burst windows (6 % of the horizon each) at 5x the baseline
    rate -- the overload periods that exercise backfill and shedding.
    """
    for start in (0.20, 0.50, 0.78):
        if start <= t_frac < start + 0.06:
            return 5.0
    return 1.0


#: Core count of the reference evaluation fleet (``default_fleet()``)
#: and the baseline average load the default horizon targets.
_REFERENCE_CORES = 72
_TARGET_LOAD = 0.9


def _mean_core_ms(apps: Sequence[AppClass]) -> float:
    """Rough mean core-demand (core-ms) of one job of the mix."""
    total = 0.0
    weight = 0.0
    for a in apps:
        mean_ms = sum(a.state_base_ms) / len(a.state_base_ms)
        mean_cores = sum(a.cores_choices) / len(a.cores_choices)
        total += a.weight * mean_ms * mean_cores
        weight += a.weight
    return total / weight


def synthetic_burst_trace(
    n_jobs: int = 1000,
    seed: int = 7,
    horizon_ms: float | None = None,
    apps: Sequence[AppClass] = APP_CLASSES,
    tenants: Sequence[tuple[str, str, float]] = TENANTS,
) -> list[JobRecord]:
    """Generate a bursty multi-tenant trace (deterministic per seed).

    The default horizon scales with the mix's mean per-job core
    demand so the reference fleet sees ~80 % average load (bursts
    overload it transiently) regardless of which application classes
    the workload registry currently provides.
    """
    if n_jobs <= 0:
        raise ValueError("n_jobs must be positive")
    if horizon_ms is None:
        horizon_ms = (
            n_jobs * _mean_core_ms(apps) / (_REFERENCE_CORES * _TARGET_LOAD)
        )
    arrival_rng = rng_stream(seed, "fleet", "arrivals")
    tenant_rng = rng_stream(seed, "fleet", "tenants")
    app_rng = rng_stream(seed, "fleet", "apps")
    limit_rng = rng_stream(seed, "fleet", "limits")

    app_weights = np.array([a.weight for a in apps], dtype=np.float64)
    app_weights /= app_weights.sum()
    tenant_weights = np.array([w for _, _, w in tenants], dtype=np.float64)
    tenant_weights /= tenant_weights.sum()

    # Baseline rate chosen so n_jobs arrivals roughly fill the
    # horizon given the burst windows' extra mass.
    burst_mass = sum(
        _rate_multiplier(f / 1000.0) for f in range(1000)
    ) / 1000.0
    base_rate = n_jobs / (horizon_ms * burst_mass)

    # Per-app Markov runtime state, advanced in submit order.
    app_state = {a.name: 0 for a in apps}
    runtime_rng = {
        a.name: rng_stream(seed, "fleet", "runtime", a.name) for a in apps
    }

    jobs: list[JobRecord] = []
    t = 0.0
    width = len(str(n_jobs - 1))
    for i in range(n_jobs):
        rate = base_rate * _rate_multiplier(min(t / horizon_ms, 0.999))
        t += float(arrival_rng.exponential(1.0 / rate))
        app = apps[int(app_rng.choice(len(apps), p=app_weights))]
        tenant, tier, _ = tenants[
            int(tenant_rng.choice(len(tenants), p=tenant_weights))
        ]

        rng = runtime_rng[app.name]
        row = np.asarray(app.transition[app_state[app.name]], dtype=np.float64)
        state = int(rng.choice(len(row), p=row))
        app_state[app.name] = state
        jitter = float(rng.lognormal(mean=0.0, sigma=app.jitter_sigma))
        runtime = app.state_base_ms[state] * jitter
        cores = int(app.cores_choices[int(rng.integers(len(app.cores_choices)))])

        # Declared limits are sloppy: 3-12x the truth, rounded up to
        # a 100 ms grid -- tenants pad their walltime requests heavily
        # (the inaccurate-user-estimate regime prediction-aware
        # backfill exists to exploit).
        raw_limit = runtime * float(limit_rng.uniform(3.0, 12.0))
        limit = float(np.ceil(raw_limit / 100.0) * 100.0)
        slack = _DEADLINE_SLACK[tier]
        deadline = t + runtime * slack + 500.0

        jobs.append(
            JobRecord(
                job_id=f"job-{i:0{width}d}",
                tenant=tenant,
                tier=tier,
                app=app.name,
                submit_ms=round(t, 3),
                cores=cores,
                runtime_ms=round(runtime, 3),
                limit_ms=limit,
                deadline_ms=round(deadline, 3),
                priority={"gold": 2, "silver": 1, "bronze": 0}[tier],
            )
        )
    return jobs


def trace_summary(jobs: Sequence[JobRecord]) -> dict[str, object]:
    """JSON-able workload digest (for the SLO report header)."""
    by_app: dict[str, int] = {}
    by_tier: dict[str, int] = {}
    for j in jobs:
        by_app[j.app] = by_app.get(j.app, 0) + 1
        by_tier[j.tier] = by_tier.get(j.tier, 0) + 1
    total_work = sum(j.cores * j.runtime_ms for j in jobs)
    horizon = max(j.submit_ms for j in jobs) - min(j.submit_ms for j in jobs)
    return {
        "n_jobs": len(jobs),
        "by_app": dict(sorted(by_app.items())),
        "by_tier": dict(sorted(by_tier.items())),
        "total_core_ms": round(total_work, 3),
        "submit_horizon_ms": round(horizon, 3),
    }
