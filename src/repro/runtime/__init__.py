"""Semi-automatic parallelization runtime (Section 6).

Exploits Triple-C predictions for on-the-fly repartitioning of the
flow graph so the per-frame output latency stays pinned near the
average case:

* :mod:`repro.runtime.partition` -- chooses how many cores each
  predicted-expensive task gets (data-parallel striping for streaming
  tasks, functional partitioning for feature tasks);
* :mod:`repro.runtime.qos` -- the latency budget and the delay line
  that equalizes output timing;
* :mod:`repro.runtime.engine` -- the single per-frame
  predict -> repartition -> execute -> observe loop
  (:class:`FrameEngine`) and the :class:`SchedulingPolicy` objects
  expressing each run mode: the managed run (:class:`TripleCPolicy`)
  and the baselines the paper compares it against, the
  straightforward static mapping (:class:`StaticSerialPolicy`) and
  the worst-case reservation (:class:`WorstCaseReservationPolicy`);
* :mod:`repro.runtime.coschedule` -- the "execute more functions on
  the same platform" pay-off: a background workload consuming the
  cores the manager's predictions free up.
"""

from repro.runtime.coschedule import BackgroundFunction, CoScheduleResult
from repro.runtime.engine import (
    CoschedulePolicy,
    FrameEngine,
    FrameLog,
    FramePlan,
    RunResult,
    SchedulingPolicy,
    StaticSerialPolicy,
    TripleCPolicy,
    WorstCaseReservationPolicy,
)
from repro.runtime.frametable import FrameTable
from repro.runtime.partition import PartitionDecision, Partitioner
from repro.runtime.qos import DelayLine, LatencyBudget, MissBudget, QosTier
from repro.runtime.quality import QUALITY_LEVELS, QualityController, QualityLevel
from repro.runtime.tape import FrameTape, record_tape

__all__ = [
    "FrameTable",
    "FrameTape",
    "record_tape",
    "Partitioner",
    "PartitionDecision",
    "DelayLine",
    "LatencyBudget",
    "MissBudget",
    "QosTier",
    "FrameEngine",
    "FramePlan",
    "SchedulingPolicy",
    "TripleCPolicy",
    "StaticSerialPolicy",
    "WorstCaseReservationPolicy",
    "CoschedulePolicy",
    "FrameLog",
    "RunResult",
    "BackgroundFunction",
    "CoScheduleResult",
    "QualityLevel",
    "QualityController",
    "QUALITY_LEVELS",
]
