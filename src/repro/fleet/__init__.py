"""repro.fleet -- fleet-scale discrete-event cluster simulation.

The paper predicts one stream's resource usage so a runtime can map
it onto one 8-core platform; this package stress-tests that predictor
at the scale the ROADMAP's north star demands.  An event-driven
simulator places thousands of concurrent StentBoost-like jobs from a
trace-replay corpus onto a heterogeneous fleet of platform nodes,
with per-job runtime estimates flowing from the paper's
EWMA+Markov predictor (:mod:`repro.core.computation`) into EASY-style
backfill and predictive admission control with per-tenant QoS tiers.

Modules
-------
:mod:`repro.fleet.events`
    Deterministic event clock and queue.
:mod:`repro.fleet.nodes`
    Heterogeneous node/fleet model over :mod:`repro.hw.spec`.
:mod:`repro.fleet.jobs`
    Job records, the trace corpus format, synthetic burst traces.
:mod:`repro.fleet.replay`
    Replay corpora: profiled workload traces -> job streams.
:mod:`repro.fleet.estimates`
    Worst-case / Triple-C / oracle runtime estimators.
:mod:`repro.fleet.policies`
    FCFS and EASY-backfill schedulers.
:mod:`repro.fleet.admission`
    QoS-tier admission control and load shedding.
:mod:`repro.fleet.simulator`
    The event loop and SLO accounting.
:mod:`repro.fleet.cli`
    ``python -m repro.fleet`` policy comparison.
"""

from repro.fleet.admission import AdmissionController, default_tiers
from repro.fleet.estimates import (
    OracleEstimator,
    RuntimeEstimator,
    TripleCEstimator,
    WorstCaseEstimator,
    make_estimator,
)
from repro.fleet.events import Event, EventKind, EventQueue
from repro.fleet.jobs import (
    JobRecord,
    load_trace,
    save_trace,
    synthetic_burst_trace,
    trace_summary,
)
from repro.fleet.nodes import Fleet, FleetNode, default_fleet
from repro.fleet.replay import (
    WORKLOAD_TRACE_SCHEMA,
    jobs_from_workload_trace,
    load_workload_trace,
    save_workload_trace,
    workload_trace_doc,
)
from repro.fleet.policies import (
    BackfillScheduler,
    FcfsScheduler,
    Placement,
    PendingJob,
    RunningJob,
    Scheduler,
)
from repro.fleet.simulator import FleetResult, FleetSimulator, JobOutcome

__all__ = [
    "AdmissionController",
    "default_tiers",
    "OracleEstimator",
    "RuntimeEstimator",
    "TripleCEstimator",
    "WorstCaseEstimator",
    "make_estimator",
    "Event",
    "EventKind",
    "EventQueue",
    "JobRecord",
    "load_trace",
    "save_trace",
    "synthetic_burst_trace",
    "trace_summary",
    "Fleet",
    "FleetNode",
    "default_fleet",
    "WORKLOAD_TRACE_SCHEMA",
    "workload_trace_doc",
    "save_workload_trace",
    "load_workload_trace",
    "jobs_from_workload_trace",
    "BackfillScheduler",
    "FcfsScheduler",
    "Placement",
    "PendingJob",
    "RunningJob",
    "Scheduler",
    "FleetResult",
    "FleetSimulator",
    "JobOutcome",
]
