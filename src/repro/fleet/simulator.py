"""The event-driven fleet simulator and its SLO accounting.

One :class:`FleetSimulator` run replays a job trace against a fleet
under one (scheduler, estimator) pairing:

1. every trace record becomes an arrival event;
2. per event batch (one simulated instant), completions release
   cores and feed the estimator's online loop, arrivals pass the
   admission controller;
3. the scheduler then plans placements against the freed state, each
   placement pushing its completion event.

Everything downstream of the seeded trace is deterministic -- the
event queue's total order, best-fit placement and the estimators are
all tie-broken explicitly -- so a run's SLO summary is byte-stable.

The run is instrumented through :mod:`repro.obs` (a ``fleet.run``
span, queue-depth gauges, shed/deadline-miss counters, a wait-time
histogram); with observability off the instruments are the shared
no-op singletons.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

import repro.obs as obs
from repro.fleet.admission import (
    AdmissionController,
    AdmissionDecision,
    default_tiers,
)
from repro.fleet.estimates import RuntimeEstimator
from repro.fleet.events import EventKind, EventQueue
from repro.fleet.jobs import JobRecord, arrival_key
from repro.fleet.nodes import Fleet
from repro.fleet.policies import (
    PendingJob,
    RunningJob,
    Scheduler,
    queue_key,
)
from repro.runtime.qos import QosTier

__all__ = ["JobOutcome", "FleetResult", "FleetSimulator"]

#: Floor applied to runtimes in the slowdown denominator, so very
#: short jobs cannot dominate the percentile (bounded slowdown).
_SLOWDOWN_FLOOR_MS = 10.0


@dataclass(frozen=True)
class JobOutcome:
    """Per-job result row."""

    job_id: str
    tenant: str
    tier: str
    app: str
    cores: int
    state: str  # "done" | "shed"
    submit_ms: float
    start_ms: float
    finish_ms: float
    wait_ms: float
    node: str
    estimate_ms: float
    actual_ms: float
    missed_deadline: bool


@dataclass
class _Running:
    job: PendingJob
    start_ms: float
    finish_ms: float
    #: What the scheduler sees of this job, built once at its start.
    view: RunningJob


@dataclass
class FleetResult:
    """One (policy, estimator) run's outcomes and aggregates."""

    policy: str
    estimator: str
    outcomes: list[JobOutcome] = field(default_factory=list)
    makespan_ms: float = 0.0
    busy_core_ms: float = 0.0
    total_cores: int = 0
    max_pending_depth: int = 0
    tier_report: dict[str, dict[str, float | int]] = field(default_factory=dict)

    @property
    def completed(self) -> list[JobOutcome]:
        return [o for o in self.outcomes if o.state == "done"]

    @property
    def shed(self) -> list[JobOutcome]:
        return [o for o in self.outcomes if o.state == "shed"]

    def utilization(self) -> float:
        """Busy core time over offered core time across the run."""
        if self.makespan_ms <= 0 or self.total_cores == 0:
            return 0.0
        return self.busy_core_ms / (self.total_cores * self.makespan_ms)

    def slo_summary(self) -> dict[str, object]:
        """The deterministic SLO digest the CLI and bench emit."""
        done = self.completed
        waits = np.array([o.wait_ms for o in done], dtype=np.float64)
        slowdowns = np.array(
            [
                (o.wait_ms + o.actual_ms)
                / max(o.actual_ms, _SLOWDOWN_FLOOR_MS)
                for o in done
            ],
            dtype=np.float64,
        )
        misses = sum(1 for o in done if o.missed_deadline)

        def pct(arr: np.ndarray, q: float) -> float:
            return round(float(np.percentile(arr, q)), 3) if arr.size else 0.0

        shed_by_tier: dict[str, int] = {}
        for o in self.shed:
            shed_by_tier[o.tier] = shed_by_tier.get(o.tier, 0) + 1
        return {
            "policy": self.policy,
            "estimator": self.estimator,
            "jobs": {
                "submitted": len(self.outcomes),
                "completed": len(done),
                "shed": len(self.shed),
                "shed_by_tier": dict(sorted(shed_by_tier.items())),
            },
            "wait_ms": {
                "p50": pct(waits, 50),
                "p95": pct(waits, 95),
                "p99": pct(waits, 99),
                "mean": round(float(waits.mean()), 3) if waits.size else 0.0,
                "max": round(float(waits.max()), 3) if waits.size else 0.0,
            },
            "slowdown": {
                "p50": pct(slowdowns, 50),
                "p99": pct(slowdowns, 99),
            },
            "utilization": round(self.utilization(), 6),
            "makespan_ms": round(self.makespan_ms, 3),
            "max_pending_depth": self.max_pending_depth,
            "deadline": {
                "missed": misses,
                "miss_rate": round(misses / len(done), 6) if done else 0.0,
            },
            "tiers": self.tier_report,
        }


class FleetSimulator:
    """Replays one trace under one scheduler/estimator pairing."""

    def __init__(
        self,
        fleet: Fleet,
        scheduler: Scheduler,
        estimator: RuntimeEstimator,
        tiers: Mapping[str, QosTier] | None = None,
        app_caps: Mapping[str, int] | None = None,
    ) -> None:
        """``app_caps`` optionally feeds the statically-proven
        per-app feasibility envelope (from the schedulability
        checker) into admission as an in-flight precheck."""
        self.fleet = fleet
        self.scheduler = scheduler
        self.estimator = estimator
        self.tiers = dict(tiers) if tiers is not None else default_tiers()
        self.app_caps = dict(app_caps) if app_caps else None

    def run(self, trace: Sequence[JobRecord]) -> FleetResult:
        """Simulate the whole trace to drain; returns the result."""
        if not trace:
            raise ValueError("empty trace")
        o = obs.get_obs()
        fleet = self.fleet
        fleet.reset()
        admission = AdmissionController(
            self.tiers, fleet.total_core_speed, app_caps=self.app_caps
        )
        result = FleetResult(
            policy=self.scheduler.name,
            estimator=self.estimator.name,
            total_cores=fleet.total_cores,
        )

        jobs = {j.job_id: j for j in trace}
        if len(jobs) != len(trace):
            raise ValueError("duplicate job ids in trace")
        queue = EventQueue()
        for job in sorted(trace, key=arrival_key):
            queue.push(job.submit_ms, EventKind.ARRIVAL, job.job_id)

        # Kept in queue order (insort on queue_key), as select expects.
        pending: list[PendingJob] = []
        running: dict[str, _Running] = {}
        # Admission projects wait from the *declared* (limit) backlog
        # so the shed decisions are identical across estimators and
        # the policy comparison replays one population; the scheduler
        # is what consumes the per-policy estimates.
        declared_backlog_core_ms = 0.0
        t_start = min(j.submit_ms for j in trace)
        max_cores = fleet.max_node_cores
        last_event_ms = t_start
        seq = 0

        depth_gauge = o.metrics.gauge("fleet_pending_depth_max")
        shed_counter = o.metrics.counter
        wait_hist = o.metrics.histogram(
            "fleet_wait_ms",
            buckets=(10.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
                     5000.0, 10000.0, 25000.0),
        )

        with o.tracer.span("fleet.run") as span:
            while queue:
                batch = queue.pop_batch()
                now = batch[0].time_ms
                last_event_ms = max(last_event_ms, now)
                for event in batch:
                    job = jobs[event.job_id]
                    if event.kind is EventKind.COMPLETION:
                        run = running.pop(event.job_id)
                        node = fleet.node(run.view.node)
                        held = run.finish_ms - run.start_ms
                        node.release(job.cores, held)
                        declared_backlog_core_ms -= job.limit_ms * job.cores
                        self.estimator.observe(job, job.runtime_ms)
                        admission.on_finish(job, run.finish_ms)
                        missed = run.finish_ms > job.deadline_ms
                        if missed:
                            shed_counter(
                                "fleet_deadline_miss_total", tier=job.tier
                            ).inc()
                        result.outcomes.append(
                            JobOutcome(
                                job_id=job.job_id,
                                tenant=job.tenant,
                                tier=job.tier,
                                app=job.app,
                                cores=job.cores,
                                state="done",
                                submit_ms=job.submit_ms,
                                start_ms=run.start_ms,
                                finish_ms=run.finish_ms,
                                wait_ms=run.start_ms - job.submit_ms,
                                node=run.view.node,
                                estimate_ms=run.job.estimate_ms,
                                actual_ms=run.finish_ms - run.start_ms,
                                missed_deadline=missed,
                            )
                        )
                    else:  # ARRIVAL
                        if job.cores > max_cores:
                            # No node will ever fit it: reject at the
                            # door instead of stalling the drain.
                            decision = AdmissionDecision(False, "infeasible")
                        else:
                            decision = admission.on_submit(
                                job, declared_backlog_core_ms
                            )
                        if decision.admitted:
                            estimate = self.estimator.estimate_ms(job)
                            insort(
                                pending, PendingJob(job, estimate, seq), key=queue_key
                            )
                            seq += 1
                            declared_backlog_core_ms += job.limit_ms * job.cores
                        else:
                            shed_counter(
                                "fleet_jobs_shed_total", tier=job.tier
                            ).inc()
                            result.outcomes.append(
                                JobOutcome(
                                    job_id=job.job_id,
                                    tenant=job.tenant,
                                    tier=job.tier,
                                    app=job.app,
                                    cores=job.cores,
                                    state="shed",
                                    submit_ms=job.submit_ms,
                                    start_ms=-1.0,
                                    finish_ms=-1.0,
                                    wait_ms=0.0,
                                    node="",
                                    estimate_ms=0.0,
                                    actual_ms=0.0,
                                    missed_deadline=False,
                                )
                            )

                if pending:
                    placements = self.scheduler.select(
                        now, pending, fleet, [r.view for r in running.values()]
                    )
                    placed_ids = set()
                    for placement in placements:
                        pj = placement.job
                        job = pj.record
                        node = fleet.node(placement.node)
                        node.allocate(job.cores)
                        finish = now + node.runtime_ms(job.runtime_ms)
                        est_finish = now + node.runtime_ms(pj.estimate_ms)
                        view = RunningJob(
                            job.job_id, placement.node, job.cores, est_finish
                        )
                        running[job.job_id] = _Running(pj, now, finish, view)
                        queue.push(finish, EventKind.COMPLETION, job.job_id)
                        wait = now - job.submit_ms
                        admission.on_start(job, wait)
                        wait_hist.observe(wait)
                        placed_ids.add(job.job_id)
                    if placed_ids:
                        pending = [
                            p
                            for p in pending
                            if p.record.job_id not in placed_ids
                        ]

                depth = len(pending)
                result.max_pending_depth = max(result.max_pending_depth, depth)
                depth_gauge.set_max(depth)

            if o.enabled:
                span.set(
                    policy=self.scheduler.name,
                    estimator=self.estimator.name,
                    jobs=len(trace),
                    completed=len(result.completed),
                )
            o.metrics.counter(
                "fleet_jobs_completed_total", policy=self.scheduler.name
            ).inc(len(result.completed))

        result.makespan_ms = last_event_ms - t_start
        result.busy_core_ms = fleet.busy_core_ms
        result.tier_report = admission.tier_report()
        if pending:
            raise RuntimeError(
                f"simulation stalled with {len(pending)} jobs pending"
            )
        return result
