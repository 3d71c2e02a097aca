"""Reference fleet schedulers: the straightforward whole-fleet scan.

Test-only oracle for the differential test.  Each cycle sorts the
pending queue itself, filters it against ``fleet.max_node_cores`` per
job, and in the backfill phase builds the full allowed-node set for
every job behind the blocked head before a separate best-fit pass.
The production schedulers in :mod:`repro.fleet.policies` must return
the same placements, in the same order, for queue-ordered input.
"""

from __future__ import annotations

from typing import Sequence

from repro.fleet.nodes import Fleet, FleetNode
from repro.fleet.policies import Placement, PendingJob, RunningJob, queue_order

#: Slack when comparing estimated finish against a reservation.
_EPS_MS = 1e-9


def _best_fit(
    fleet: Fleet, free: dict[str, int], cores: int, allowed: set[str] | None = None
) -> FleetNode | None:
    """Best-fit among nodes with ``cores`` free (fewest leftover)."""
    best: FleetNode | None = None
    best_left = -1
    for node in fleet.nodes:
        if allowed is not None and node.name not in allowed:
            continue
        left = free[node.name] - cores
        if left < 0:
            continue
        if best is None or left < best_left:
            best, best_left = node, left
    return best


class ReferenceFcfs:
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
        placements: list[Placement] = []
        for job in queue_order(pending):
            if job.record.cores > fleet.max_node_cores:
                continue  # infeasible anywhere, ever: never block the line
            node = _best_fit(fleet, free, job.record.cores)
            if node is None:
                break
            free[node.name] -= job.record.cores
            placements.append(Placement(job, node.name))
        return placements


class ReferenceBackfill:
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
        # (node, est_finish, cores) of everything occupying cores,
        # including placements made earlier in this very cycle.
        occupancy: dict[str, list[tuple[float, int]]] = {
            n.name: [] for n in fleet.nodes
        }
        for r in running:
            occupancy[r.node].append((r.est_finish_ms, r.cores))

        placements: list[Placement] = []

        def place(job: PendingJob, node: FleetNode) -> None:
            free[node.name] -= job.record.cores
            est_finish = now_ms + node.runtime_ms(job.estimate_ms)
            occupancy[node.name].append((est_finish, job.record.cores))
            placements.append(Placement(job, node.name))

        order = [
            j
            for j in queue_order(pending)
            if j.record.cores <= fleet.max_node_cores
        ]

        # Phase 1: in-order placement until the head blocks.
        i = 0
        while i < len(order):
            node = _best_fit(fleet, free, order[i].record.cores)
            if node is None:
                break
            place(order[i], node)
            i += 1
        if i >= len(order):
            return placements

        # Phase 2: reservation for the blocked head -- the earliest
        # estimated instant enough cores drain on one node.
        head = order[i]
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
        # delay the reservation.
        for job in order[i + 1 :]:
            allowed = {
                n.name
                for n in fleet.nodes
                if free[n.name] >= job.record.cores
                and (
                    n.name != reserved
                    or now_ms + n.runtime_ms(job.estimate_ms)
                    <= shadow + _EPS_MS
                )
            }
            if not allowed:
                continue
            node = _best_fit(fleet, free, job.record.cores, allowed)
            if node is not None:
                place(job, node)
        return placements
