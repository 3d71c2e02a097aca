"""Differential test: the schedulers against the whole-fleet-scan oracle.

``tests/fleet/reference_policies.py`` keeps the straightforward
scheduling cycle (sort the queue, filter it per job against the fleet
width, build every backfill candidate's allowed-node set before a
separate best-fit pass).  The production schedulers prune that work;
on any fleet state and any queue they must return the same
placements, in the same order, on the same nodes.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.jobs import JobRecord
from repro.fleet.nodes import Fleet, FleetNode
from repro.fleet.policies import (
    BackfillScheduler,
    FcfsScheduler,
    PendingJob,
    Placement,
    RunningJob,
    queue_order,
)
from tests.fleet.reference_policies import ReferenceBackfill, ReferenceFcfs

#: Instants running jobs are estimated to finish at.  On a unit-speed
#: node at ``now = 0``, an estimate of a grid point plus 0, 1 or 2 times
#: the 1e-9 ms slack finishes exactly at a shadow time, at shadow + slack
#: (still allowed) or just past it.
_GRID = (0.0, 40.0, 100.0, 250.0)
_ESTIMATES = st.one_of(
    st.sampled_from([t + k * 1e-9 for t in _GRID for k in (0, 1, 2)]),
    st.floats(min_value=0.5, max_value=2_000.0),
)


def _job(jid: str, cores: int, priority: int, submit: float) -> JobRecord:
    return JobRecord(
        job_id=jid,
        tenant="t",
        tier="bronze",
        app="a",
        submit_ms=submit,
        cores=cores,
        runtime_ms=1.0,
        limit_ms=1.0,
        deadline_ms=1e9,
        priority=priority,
    )


@st.composite
def cycles(
    draw: st.DrawFn,
) -> tuple[float, list[PendingJob], Fleet, list[RunningJob]]:
    """One scheduling cycle's inputs: fleet state, running jobs, queue."""
    n_nodes = draw(st.integers(1, 8))
    nodes = [
        FleetNode(
            name=f"n{i}",
            n_cores=draw(st.integers(1, 16)),
            speed=draw(st.sampled_from([1.0, 1.0, 0.6, 1.25, 2.0])),
        )
        for i in range(n_nodes)
    ]
    fleet = Fleet(nodes)
    now = draw(st.sampled_from([0.0, 0.0, 30.0, 1234.5]))
    running: list[RunningJob] = []
    for node in nodes:
        busy = draw(st.integers(0, node.n_cores))
        node.allocate(busy)
        # Split the busy cores into running jobs; some busy cores may
        # stay unaccounted, so no reservation drains enough cores.
        while busy > 0:
            cores = draw(st.integers(1, busy))
            busy -= cores
            if draw(st.integers(0, 9)) == 0:
                continue
            finish = draw(
                st.one_of(
                    st.sampled_from(_GRID),
                    st.floats(min_value=-50.0, max_value=3_000.0),
                )
            )
            running.append(RunningJob(f"r{len(running)}", node.name, cores, finish))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(1, 20),  # wider than any node: infeasible
                st.integers(0, 2),
                st.sampled_from([0.0, 0.0, 5.0, 10.0]),
                _ESTIMATES,
            ),
            max_size=200,
        )
    )
    pending = [
        PendingJob(_job(f"j{i}", cores, priority, submit), estimate, seq=i)
        for i, (cores, priority, submit, estimate) in enumerate(rows)
    ]
    shuffled = list(pending)
    draw(st.randoms(use_true_random=False)).shuffle(shuffled)
    return now, shuffled, fleet, running


def _key(placements: list[Placement]) -> list[tuple[int, str]]:
    return [(p.job.seq, p.node) for p in placements]


@settings(max_examples=400, deadline=None)
@given(cycles())
def test_backfill_matches_reference(cycle) -> None:
    now, pending, fleet, running = cycle
    expected = ReferenceBackfill().select(now, pending, fleet, running)
    got = BackfillScheduler().select(now, queue_order(pending), fleet, running)
    assert _key(got) == _key(expected)


@settings(max_examples=200, deadline=None)
@given(cycles())
def test_fcfs_matches_reference(cycle) -> None:
    now, pending, fleet, running = cycle
    expected = ReferenceFcfs().select(now, pending, fleet, running)
    got = FcfsScheduler().select(now, queue_order(pending), fleet, running)
    assert _key(got) == _key(expected)


def test_finish_at_shadow_plus_eps_is_allowed_and_past_it_is_not() -> None:
    """The one-ulp edge of the reservation test, on both schedulers'
    paths: 100 + 1e-9 equals shadow + eps and backfills; 100 + 2e-9
    does not."""
    fleet = Fleet(
        [
            FleetNode(name="n0", n_cores=8, speed=1.0),
            FleetNode(name="n1", n_cores=2, speed=1.0),
        ]
    )
    fleet.node("n0").allocate(6)
    fleet.node("n1").allocate(2)
    running = [
        RunningJob("r0", "n0", 6, est_finish_ms=100.0),
        RunningJob("r1", "n1", 2, est_finish_ms=500.0),
    ]
    head = PendingJob(_job("head", 8, 0, 0.0), 50.0, 0)
    at = PendingJob(_job("at", 2, 0, 0.0), 100.0 + 1e-9, 1)
    past = PendingJob(_job("past", 2, 0, 0.0), 100.0 + 2e-9, 2)
    for queue, placed in (([head, at], ["at"]), ([head, past], [])):
        got = BackfillScheduler().select(0.0, queue, fleet, running)
        expected = ReferenceBackfill().select(0.0, queue, fleet, running)
        assert [p.job.record.job_id for p in got] == placed
        assert _key(got) == _key(expected)


def test_no_reservation_still_backfills_everywhere() -> None:
    """If no node's known finishes ever free enough cores for the
    head, there is no reserved node and every node takes backfill."""
    fleet = Fleet([FleetNode(name="n0", n_cores=8, speed=1.0)])
    fleet.node("n0").allocate(6)  # no running job accounts for them
    head = PendingJob(_job("head", 8, 0, 0.0), 50.0, 0)
    slow = PendingJob(_job("slow", 2, 0, 0.0), 5_000.0, 1)
    got = BackfillScheduler().select(0.0, [head, slow], fleet, [])
    expected = ReferenceBackfill().select(0.0, [head, slow], fleet, [])
    assert [(p.job.record.job_id, p.node) for p in got] == [("slow", "n0")]
    assert _key(got) == _key(expected)
