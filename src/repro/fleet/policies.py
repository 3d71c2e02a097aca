"""Fleet scheduling policies: FCFS and EASY-style backfill.

The scheduler runs once per event batch: given the pending queue,
the fleet's free cores and the estimated finish times of running
jobs, it returns the placements to start *now*.  Pending jobs arrive
already in :func:`queue_order` -- the simulator keeps its queue
sorted on :func:`queue_key` as jobs are admitted -- so a cycle never
re-sorts the backlog.  Schedulers never mutate fleet state -- they
plan against a free-core snapshot and the simulator applies the plan
-- and they never see true runtimes, only estimates.

``fcfs``
    Strict head-of-line: place jobs in queue order, stop at the
    first that does not fit anywhere.  No estimates consulted.
``easy-backfill``
    Place in order until blocked, compute the blocked head's
    *reservation* (earliest instant enough cores free on some node,
    using estimated finish times), then let later jobs jump the
    queue only where they cannot delay that reservation: on the
    reserved node a backfilled job must be estimated to finish
    before the shadow time; other nodes are fair game.

Prediction-aware backfill is this same policy fed by the Triple-C
estimator instead of declared walltime limits: tighter estimates
widen the backfill windows, which is exactly the effect the SLO
comparison measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.fleet.jobs import JobRecord
from repro.fleet.nodes import Fleet, FleetNode

__all__ = [
    "PendingJob",
    "RunningJob",
    "Placement",
    "Scheduler",
    "FcfsScheduler",
    "BackfillScheduler",
    "queue_key",
    "queue_order",
]

#: Slack when comparing estimated finish against a reservation.
_EPS_MS = 1e-9


@dataclass
class PendingJob:
    """A queued job with its admission-time runtime estimate."""

    record: JobRecord
    estimate_ms: float
    seq: int


@dataclass(frozen=True)
class RunningJob:
    """What the scheduler may know about a running job."""

    job_id: str
    node: str
    cores: int
    est_finish_ms: float


@dataclass(frozen=True)
class Placement:
    """One start-now decision."""

    job: PendingJob
    node: str


def queue_key(job: PendingJob) -> tuple[int, float, int]:
    """Sort key of the queue order: priority desc, then submit, then seq."""
    return (-job.record.priority, job.record.submit_ms, job.seq)


def queue_order(pending: Sequence[PendingJob]) -> list[PendingJob]:
    """Deterministic queue order: priority desc, then submit, then seq."""
    return sorted(pending, key=queue_key)


class Scheduler(Protocol):
    """Protocol both fleet schedulers implement."""

    #: Policy identifier (appears in reports).
    name: str

    def select(
        self,
        now_ms: float,
        pending: Sequence[PendingJob],
        fleet: Fleet,
        running: Sequence[RunningJob],
    ) -> list[Placement]:
        """Placements to start at ``now_ms`` (pending left unchanged).

        ``pending`` must be in :func:`queue_order`; schedulers walk it
        as given and do not re-sort it.
        """


def _best_fit(fleet: Fleet, free: dict[str, int], cores: int) -> FleetNode | None:
    """Best-fit among nodes with ``cores`` free (fewest leftover)."""
    best: FleetNode | None = None
    best_left = -1
    for node in fleet.nodes:
        left = free[node.name] - cores
        if left < 0:
            continue
        if best is None or left < best_left:
            best, best_left = node, left
    return best


class FcfsScheduler:
    """Strict first-come-first-served (no backfill, no estimates)."""

    name = "fcfs"

    def select(
        self,
        now_ms: float,
        pending: Sequence[PendingJob],
        fleet: Fleet,
        running: Sequence[RunningJob],
    ) -> list[Placement]:
        free = {n.name: n.free_cores for n in fleet.nodes}
        max_cores = fleet.max_node_cores
        placements: list[Placement] = []
        for job in pending:
            if job.record.cores > max_cores:
                continue  # infeasible anywhere, ever: never block the line
            node = _best_fit(fleet, free, job.record.cores)
            if node is None:
                break
            free[node.name] -= job.record.cores
            placements.append(Placement(job, node.name))
        return placements


class BackfillScheduler:
    """EASY backfill: one reservation for the blocked head."""

    name = "easy-backfill"

    def select(
        self,
        now_ms: float,
        pending: Sequence[PendingJob],
        fleet: Fleet,
        running: Sequence[RunningJob],
    ) -> list[Placement]:
        free = {n.name: n.free_cores for n in fleet.nodes}
        max_cores = fleet.max_node_cores
        placements: list[Placement] = []

        # Phase 1: in-order placement until the head blocks.
        queue = iter(pending)
        for head in queue:
            if head.record.cores > max_cores:
                continue  # infeasible anywhere, ever: never block the line
            node = _best_fit(fleet, free, head.record.cores)
            if node is None:
                break
            free[node.name] -= head.record.cores
            placements.append(Placement(head, node.name))
        else:
            return placements

        # Phase 2: reservation for the blocked head -- the earliest
        # estimated instant enough cores drain on one node.  Running
        # jobs and this cycle's phase-1 placements occupy cores.
        occupancy: dict[str, list[tuple[float, int]]] = {
            n.name: [] for n in fleet.nodes
        }
        for r in running:
            occupancy[r.node].append((r.est_finish_ms, r.cores))
        for p in placements:
            est_finish = now_ms + fleet.node(p.node).runtime_ms(p.job.estimate_ms)
            occupancy[p.node].append((est_finish, p.job.record.cores))
        reserved: str | None = None
        shadow = float("inf")
        for node in fleet.nodes:
            if node.n_cores < head.record.cores:
                continue
            avail = free[node.name]
            t_avail = now_ms
            for t, cores in sorted(occupancy[node.name]):
                if avail >= head.record.cores:
                    break
                avail += cores
                t_avail = t
            if avail >= head.record.cores and t_avail < shadow:
                reserved, shadow = node.name, t_avail

        # Phase 3: backfill jobs behind the head where they cannot
        # delay the reservation: best fit among the nodes with room,
        # the reserved one only for jobs estimated to finish by the
        # shadow time.  Free cores only fall, so only nodes with a hole
        # are scanned, a job wider than the widest hole fits nowhere,
        # and a full fleet ends the cycle.
        holes = [n for n in fleet.nodes if free[n.name]]
        max_free = max(free.values())
        for job in queue:
            if max_free == 0:
                break
            cores = job.record.cores
            if cores > max_free:
                continue
            best: FleetNode | None = None
            best_left = -1
            for node in holes:
                left = free[node.name] - cores
                if left < 0 or (best is not None and left >= best_left):
                    continue
                if (
                    node.name != reserved
                    or now_ms + node.runtime_ms(job.estimate_ms) <= shadow + _EPS_MS
                ):
                    best, best_left = node, left
            if best is not None:
                free[best.name] -= cores
                placements.append(Placement(job, best.name))
                if free[best.name] == 0:
                    holes.remove(best)
                max_free = max(free.values())
        return placements
