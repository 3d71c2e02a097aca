"""Pre-priced frames take the same chain walk as live-priced ones.

``simulate_costed_frame`` fed the columnar prices
(``contended_costs(time_ms_many(...))``) must schedule a frame exactly
as ``simulate_frame`` does when it prices each report itself: same
latency, per-task times and traffic totals, and the same ledger.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import build_stentboost_graph
from repro.hw.cost import DEFAULT_TASK_COSTS, CostModel
from repro.hw.mapping import Mapping
from repro.hw.simulator import PlatformSimulator
from repro.hw.spec import blackford
from repro.imaging.common import BufferAccess, WorkReport
from repro.util.units import MIB

GRAPH = build_stentboost_graph()
TASKS = sorted(t for t in DEFAULT_TASK_COSTS if t in GRAPH.tasks)
DIVISIBLE = frozenset(t for t in TASKS if GRAPH.tasks[t].divisible)
N_CORES = blackford().n_cores

BYTES = st.sampled_from([0, 100_000, 8 * MIB, 512 * MIB])
BUFFERS = st.sampled_from(
    [
        (),
        (BufferAccess("fits", 1 * MIB),),
        # Overflows the 4 MiB L2: evicts, so the task stalls on DRAM.
        (BufferAccess("big", 64 * MIB, passes=3.0),),
    ]
)


@st.composite
def frames(draw):
    names = draw(st.lists(st.sampled_from(TASKS), min_size=1, max_size=5, unique=True))
    reports = {
        name: WorkReport(
            task=name,
            pixels=draw(st.integers(0, 300_000)),
            bytes_in=draw(BYTES),
            bytes_out=draw(BYTES),
            buffers=draw(BUFFERS),
        )
        for name in names
    }
    core = st.integers(0, N_CORES - 1)
    kind = draw(st.sampled_from(["serial", "cross-cluster", "partitioned"]))
    if kind == "serial":
        mapping = Mapping.serial(draw(core))
    elif kind == "cross-cluster":
        mapping = Mapping(
            assignments={name: (draw(core),) for name in names},
            default_core=draw(core),
        )
    else:
        mapping = Mapping.serial(draw(core))
        for name in sorted(DIVISIBLE.intersection(names)):
            if draw(st.booleans()):
                cores = draw(st.permutations(range(N_CORES)))
                mapping = mapping.with_partition(
                    name, tuple(cores[: draw(st.integers(2, 4))])
                )
    return reports, mapping


def make_sim(contention: bool, pixel_scale: float) -> PlatformSimulator:
    cm = CostModel(blackford(), pixel_scale=pixel_scale, seed=3)
    return PlatformSimulator(
        blackford(), cm, graph=GRAPH, dram_contention=contention
    )


@given(
    frames(),
    st.floats(0.0, 1000.0),
    st.booleans(),
    st.sampled_from([1.0, 16.0]),
    st.integers(0, 50),
)
@settings(max_examples=150, deadline=None)
def test_costed_frame_equals_simulate_frame(
    frame, start_ms, contention, pixel_scale, frame_idx
):
    reports, mapping = frame
    key = ("walk", frame_idx)
    live_sim = make_sim(contention, pixel_scale)
    live = live_sim.simulate_frame(reports, mapping, key, start_ms)

    costed_sim = make_sim(contention, pixel_scale)
    costs = {}
    for name, report in reports.items():
        bc = costed_sim.contended_costs(
            costed_sim.cost_model.time_ms_many(name, [report], [key])
        )
        costs[name] = (
            bc.total_ms[0],
            int(bc.eviction_bytes[0]),
            int(bc.external_bytes[0]),
        )
    costed = costed_sim.simulate_costed_frame(reports, mapping, costs, start_ms)

    assert costed.latency_ms == live.latency_ms
    assert costed.task_ms == live.task_ms
    assert list(costed.task_ms) == list(live.task_ms)
    assert costed.eviction_bytes == live.eviction_bytes
    assert costed.external_bytes == live.external_bytes
    for link in ("dram", "l2", "bus"):
        assert costed_sim.ledger.total_bytes(link) == live_sim.ledger.total_bytes(link)
    assert costed_sim.ledger.total_bytes() == live_sim.ledger.total_bytes()
    assert costed_sim.ledger.frames == live_sim.ledger.frames == 1
