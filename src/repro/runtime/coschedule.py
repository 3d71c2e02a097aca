"""Co-scheduling: "execute more functions on the same platform".

The motivation the paper repeats throughout: accurate predictions let
the manager reserve only what the imaging pipeline needs, so the
remaining cores can host additional functions.  This module
quantifies that pay-off: a :class:`BackgroundFunction` (a divisible
batch workload, e.g. an offline reconstruction or a second analysis
chain) consumes whatever core-milliseconds the managed run leaves
idle each frame period.

Comparing the background throughput under (a) worst-case reservation
and (b) Triple-C management is the "more functions" experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.obs as obs
from repro.hw.spec import PlatformSpec
from repro.runtime.engine import RunResult
from repro.util.units import MS_PER_S

__all__ = ["BackgroundFunction", "CoScheduleResult"]


@dataclass(frozen=True)
class BackgroundFunction:
    """A divisible background workload.

    Attributes
    ----------
    name:
        Label for reports.
    work_ms_per_item:
        Core-milliseconds one work item costs.
    """

    name: str = "background-recon"
    work_ms_per_item: float = 5.0

    def __post_init__(self) -> None:
        if self.work_ms_per_item <= 0:
            raise ValueError("work_ms_per_item must be positive")


@dataclass(frozen=True)
class CoScheduleResult:
    """Background throughput achieved next to a pipeline run."""

    label: str
    idle_core_ms_per_frame: float
    items_per_frame: float
    items_per_second: float


def idle_core_ms(
    run: RunResult,
    platform: PlatformSpec,
    frame_period_ms: float,
    reserved_cores: int | None = None,
) -> np.ndarray:
    """Idle core-milliseconds per frame period of a run.

    Each frame period offers ``n_cores * period`` core-ms.  Under
    prediction-driven management only the cores the partitioner
    actually granted are blocked, and only for the frame's real span.
    A static worst-case reservation instead pins ``reserved_cores``
    for the entire period of every frame, whether the content needed
    them or not -- pass the core count such a deployment would have
    to reserve (the partitioning that meets the latency budget under
    the *worst-case* scenario).
    """
    total = platform.n_cores * frame_period_ms
    if reserved_cores is not None:
        if not 0 < reserved_cores <= platform.n_cores:
            raise ValueError("reserved_cores outside the platform")
        blocked = np.full(len(run), reserved_cores * frame_period_ms)
    else:
        cores = run.table.column("cores_used")
        blocked = cores * np.minimum(run.table.column("latency_ms"), frame_period_ms)
    return np.maximum(0.0, total - blocked)


def coschedule(
    run: RunResult,
    platform: PlatformSpec,
    background: BackgroundFunction,
    frame_rate_hz: float = 30.0,
    reserved_cores: int | None = None,
) -> CoScheduleResult:
    """Throughput of ``background`` on a run's leftover capacity.

    Pass ``reserved_cores`` to model a static worst-case reservation
    (see :func:`idle_core_ms`); omit it for prediction-driven runs.
    """
    period_ms = MS_PER_S / frame_rate_hz
    idle = idle_core_ms(run, platform, period_ms, reserved_cores)
    items = idle / background.work_ms_per_item
    o = obs.get_obs()
    if o.enabled:
        o.metrics.gauge(
            "coschedule_items_per_second", label=run.label or "unlabeled"
        ).set(float(items.mean() * frame_rate_hz))
        o.metrics.gauge(
            "coschedule_idle_core_ms_per_frame", label=run.label or "unlabeled"
        ).set(float(idle.mean()))
    return CoScheduleResult(
        label=run.label,
        idle_core_ms_per_frame=float(idle.mean()),
        items_per_frame=float(items.mean()),
        items_per_second=float(items.mean() * frame_rate_hz),
    )
