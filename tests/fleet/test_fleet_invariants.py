"""Fleet simulator invariants on random traces and random fleets.

Whatever the trace, the fleet and the policy, a run must:

* never start a job before it was submitted;
* never hold more cores on a node than it has, at any instant;
* account for every job exactly once (completed + shed == submitted)
  and drain, leaving every node fully free;
* never shed a gold job a node could run (gold is shed only when it
  is wider than every node);
* under EASY backfill, only let a job that jumps the blocked head
  onto the head's reserved node if it is estimated to finish by the
  reservation's shadow time.
"""

from __future__ import annotations

from typing import Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.cli import POLICIES
from repro.fleet.estimates import make_estimator
from repro.fleet.jobs import JobRecord, synthetic_burst_trace
from repro.fleet.nodes import Fleet, FleetNode, default_fleet
from repro.fleet.policies import (
    BackfillScheduler,
    PendingJob,
    Placement,
    RunningJob,
    Scheduler,
)
from repro.fleet.simulator import FleetResult, FleetSimulator

_TIERS = {"gold": 2, "silver": 1, "bronze": 0}


def _shadow(
    head: PendingJob,
    fleet: Fleet,
    free: dict[str, int],
    occupancy: dict[str, list[tuple[float, int]]],
) -> tuple[str | None, float]:
    """The head's reservation, from its definition: the earliest
    estimated finish instant at which a node's free cores plus the
    cores of every job estimated to finish by then reach the head's
    request (first node in fleet order on ties)."""
    need = head.record.cores
    reserved: str | None = None
    shadow = float("inf")
    for node in fleet.nodes:
        if node.n_cores < need:
            continue
        finishes = occupancy[node.name]
        for t in sorted({f for f, _ in finishes}):
            drained = sum(c for f, c in finishes if f <= t)
            if free[node.name] + drained >= need:
                if t < shadow:
                    reserved, shadow = node.name, t
                break
    return reserved, shadow


class SpyBackfill:
    """Runs :class:`BackfillScheduler` and checks every cycle's
    placements against the reservation they must respect."""

    name = BackfillScheduler.name

    def __init__(self) -> None:
        self.inner = BackfillScheduler()
        #: Backfilled placements checked against a reserved node.
        self.checked = 0

    def select(
        self,
        now_ms: float,
        pending: Sequence[PendingJob],
        fleet: Fleet,
        running: Sequence[RunningJob],
    ) -> list[Placement]:
        placements = self.inner.select(now_ms, pending, fleet, running)
        widest = fleet.max_node_cores
        by_seq = {p.job.seq: p for p in placements}
        feasible = [j for j in pending if j.record.cores <= widest]
        blocked = [i for i, j in enumerate(feasible) if j.seq not in by_seq]
        if not blocked:
            return placements
        head_at = blocked[0]
        head = feasible[head_at]
        free = {n.name: n.free_cores for n in fleet.nodes}
        occupancy: dict[str, list[tuple[float, int]]] = {
            n.name: [] for n in fleet.nodes
        }
        for r in running:
            occupancy[r.node].append((r.est_finish_ms, r.cores))
        for job in feasible[:head_at]:
            p = by_seq[job.seq]
            free[p.node] -= job.record.cores
            est = now_ms + fleet.node(p.node).runtime_ms(job.estimate_ms)
            occupancy[p.node].append((est, job.record.cores))
        reserved, shadow = _shadow(head, fleet, free, occupancy)
        for job in feasible[head_at + 1 :]:
            p = by_seq.get(job.seq)
            if p is None or p.node != reserved:
                continue
            finish = now_ms + fleet.node(p.node).runtime_ms(job.estimate_ms)
            assert finish <= shadow + 1e-9, (
                f"{job.record.job_id} backfilled on reserved node {reserved} "
                f"finishes at {finish}, after the shadow time {shadow}"
            )
            self.checked += 1
        return placements


@st.composite
def fleets(draw: st.DrawFn) -> Fleet:
    n = draw(st.integers(1, 4))
    return Fleet(
        [
            FleetNode(
                name=f"n{i}",
                n_cores=draw(st.integers(1, 16)),
                speed=draw(st.sampled_from([0.6, 1.0, 1.25])),
            )
            for i in range(n)
        ]
    )


@st.composite
def traces(draw: st.DrawFn) -> list[JobRecord]:
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 10.0, 25.0]) | st.floats(0.0, 500.0),
                st.sampled_from(sorted(_TIERS)),
                st.sampled_from(["a", "b", "c"]),
                st.integers(1, 18),
                st.floats(1.0, 400.0),
                st.floats(1.0, 12.0),
            ),
            min_size=1,
            max_size=80,
        )
    )
    return [
        JobRecord(
            job_id=f"job-{i:03d}",
            tenant=tier,
            tier=tier,
            app=app,
            submit_ms=submit,
            cores=cores,
            runtime_ms=runtime,
            limit_ms=runtime * pad,
            deadline_ms=submit + runtime * 4.0,
            priority=_TIERS[tier],
        )
        for i, (submit, tier, app, cores, runtime, pad) in enumerate(rows)
    ]


def _run(
    trace: list[JobRecord], fleet: Fleet, policy: str
) -> tuple[FleetResult, Scheduler]:
    scheduler_cls, estimator_kind = POLICIES[policy]
    scheduler: Scheduler = (
        SpyBackfill() if scheduler_cls is BackfillScheduler else scheduler_cls()
    )
    sim = FleetSimulator(fleet, scheduler, make_estimator(estimator_kind, trace))
    return sim.run(trace), scheduler


def assert_invariants(trace: list[JobRecord], fleet: Fleet, result: FleetResult) -> None:
    ids = sorted(j.job_id for j in trace)
    assert sorted(o.job_id for o in result.outcomes) == ids
    assert len(result.completed) + len(result.shed) == len(trace)
    assert all(n.free_cores == n.n_cores for n in fleet.nodes)  # drained

    for o in result.completed:
        assert o.start_ms >= o.submit_ms, o.job_id

    widest = fleet.max_node_cores
    for o in result.shed:
        assert o.tier != "gold" or o.cores > widest, o.job_id

    # Sweep each node's starts and finishes; a finish at the same
    # instant as a start releases its cores first.
    events: dict[str, list[tuple[float, int]]] = {n.name: [] for n in fleet.nodes}
    for o in result.completed:
        events[o.node].append((o.start_ms, o.cores))
        events[o.node].append((o.finish_ms, -o.cores))
    for node in fleet.nodes:
        held = 0
        for _, delta in sorted(events[node.name]):
            held += delta
            assert 0 <= held <= node.n_cores, node.name


@settings(max_examples=100, deadline=None)
@given(trace=traces(), fleet=fleets(), policy=st.sampled_from(sorted(POLICIES)))
def test_invariants_hold_on_random_runs(
    trace: list[JobRecord], fleet: Fleet, policy: str
) -> None:
    result, _ = _run(trace, fleet, policy)
    assert_invariants(trace, fleet, result)


def test_invariants_hold_on_burst_trace() -> None:
    """The same checks on the 400-job burst, where the reservation
    check is known to fire: EASY backfill on declared limits places
    jobs behind the blocked head on its reserved node."""
    trace = synthetic_burst_trace(n_jobs=400, seed=7)
    fleet = default_fleet()
    result, spy = _run(trace, fleet, "easy")
    assert_invariants(trace, fleet, result)
    assert isinstance(spy, SpyBackfill) and spy.checked > 0
