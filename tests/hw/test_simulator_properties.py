"""Property-style invariants of the platform simulator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.cost import CostModel, TaskCostSpec
from repro.hw.mapping import Mapping
from repro.hw.simulator import PlatformSimulator
from repro.hw.spec import blackford
from repro.imaging.common import WorkReport


def sim_with_tasks(durations: dict[str, float]) -> PlatformSimulator:
    costs = {t: TaskCostSpec(fixed_ms=d) for t, d in durations.items()}
    cm = CostModel(
        blackford(), pixel_scale=1.0, jitter_sigma=1e-12, spike_prob=0.0,
        task_costs=costs,
    )
    return PlatformSimulator(blackford(), cm)


durations_st = st.dictionaries(
    st.sampled_from(["A", "B", "C", "D", "E"]),
    st.floats(min_value=0.1, max_value=80.0),
    min_size=1,
    max_size=5,
)


class TestInvariants:
    @given(durations_st)
    @settings(max_examples=40, deadline=None)
    def test_serial_latency_equals_busy_time(self, durations):
        sim = sim_with_tasks(durations)
        reports = {t: WorkReport(task=t) for t in durations}
        res = sim.simulate_frame(reports, Mapping.serial())
        assert res.latency_ms == pytest.approx(sum(durations.values()), rel=1e-9)
        assert sum(res.task_ms.values()) == pytest.approx(res.latency_ms, rel=1e-9)

    @given(durations_st, st.integers(min_value=2, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_partition_never_beats_ideal_speedup(self, durations, k):
        """Splitting one task k ways saves at most (1 - 1/k) of it."""
        sim_serial = sim_with_tasks(durations)
        sim_split = sim_with_tasks(durations)
        reports = {t: WorkReport(task=t) for t in durations}
        task = max(durations, key=durations.get)
        serial = sim_serial.simulate_frame(reports, Mapping.serial())
        split = sim_split.simulate_frame(
            reports, Mapping.serial().with_partition(task, tuple(range(k)))
        )
        ideal_saving = durations[task] * (1.0 - 1.0 / k)
        actual_saving = serial.latency_ms - split.latency_ms
        assert actual_saving <= ideal_saving + 1e-9
        # And the split never *increases* latency by more than the
        # fork/join overhead.
        assert split.latency_ms <= serial.latency_ms + sim_split.fork_ms + sim_split.join_ms + 1e-9

    def test_ledger_accumulates_across_frames(self):
        sim = sim_with_tasks({"A": 1.0})
        reports = {
            "A": WorkReport(task="A", bytes_in=1000, bytes_out=500)
        }
        for _ in range(5):
            sim.simulate_frame(reports, Mapping.serial())
        assert sim.ledger.frames == 5
        assert sim.ledger.total_bytes("dram") == 5 * 1500

    def test_jitter_changes_latency_not_structure(self):
        cm = CostModel(blackford(), pixel_scale=1.0, seed=0)
        sim = PlatformSimulator(blackford(), cm)
        reports = {"REG": WorkReport(task="REG")}
        res1 = sim.simulate_frame(reports, Mapping.serial(), frame_key=(1,))
        res2 = sim.simulate_frame(reports, Mapping.serial(), frame_key=(2,))
        assert list(res1.task_ms) == list(res2.task_ms)
        assert res1.latency_ms != res2.latency_ms  # different jitter draw

    def test_deterministic_per_frame_key(self):
        def run():
            cm = CostModel(blackford(), pixel_scale=1.0, seed=0)
            sim = PlatformSimulator(blackford(), cm)
            reports = {"ENH": WorkReport(task="ENH", pixels=100_000)}
            return sim.simulate_frame(reports, Mapping.serial(), frame_key=("x", 3))

        assert run().latency_ms == run().latency_ms
