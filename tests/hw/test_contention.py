"""Tests for the optional DRAM-contention model."""

from __future__ import annotations

import pytest

from repro.hw.cost import CostModel, TaskCostSpec
from repro.hw.mapping import Mapping
from repro.hw.simulator import PlatformSimulator
from repro.hw.spec import blackford
from repro.imaging.common import BufferAccess, WorkReport
from repro.util.units import MIB


def heavy_report(task="T"):
    """A task whose working set evicts hard (memory-bound)."""
    return WorkReport(
        task=task,
        bytes_in=8 * MIB,
        bytes_out=8 * MIB,
        buffers=(BufferAccess("big", 64 * MIB, passes=3.0),),
    )


def make_sim(dram_contention: bool) -> PlatformSimulator:
    cm = CostModel(
        blackford(),
        pixel_scale=1.0,
        jitter_sigma=1e-12,
        spike_prob=0.0,
        task_costs={"T": TaskCostSpec(fixed_ms=5.0)},
    )
    return PlatformSimulator(blackford(), cm, dram_contention=dram_contention)


def frames(n, core_fn):
    return [
        ({"T": heavy_report()}, Mapping.serial(core=core_fn(k)), ("c", k))
        for k in range(n)
    ]


class TestDramContention:
    def test_single_task_unaffected(self):
        """One task alone never oversubscribes the channels."""
        off = make_sim(False).simulate_frame({"T": heavy_report()}, Mapping.serial())
        on = make_sim(True).simulate_frame({"T": heavy_report()}, Mapping.serial())
        assert on.latency_ms == pytest.approx(off.latency_ms)

    def test_overlapping_heavy_tasks_slow_down(self):
        """Several memory-bound tasks in flight stretch each other."""
        n = 8
        no_cont = make_sim(False).simulate_stream(
            frames(n, lambda k: k), period_ms=0.5
        )
        with_cont = make_sim(True).simulate_stream(
            frames(n, lambda k: k), period_ms=0.5
        )
        # Later frames overlap earlier ones: contention inflates them.
        assert with_cont[-1].latency_ms > no_cont[-1].latency_ms
        # The first frame sees an empty platform either way.
        assert with_cont[0].latency_ms == pytest.approx(no_cont[0].latency_ms)

    def test_serialized_tasks_do_not_contend(self):
        """Far-apart frames never overlap: no inflation."""
        no_cont = make_sim(False).simulate_stream(
            frames(4, lambda k: k), period_ms=500.0
        )
        with_cont = make_sim(True).simulate_stream(
            frames(4, lambda k: k), period_ms=500.0
        )
        for a, b in zip(no_cont, with_cont):
            assert b.latency_ms == pytest.approx(a.latency_ms)

    def test_repeated_frames_identical(self):
        """Each ``simulate_frame`` sees an otherwise idle platform: no
        demand carries over from earlier calls."""
        sim = make_sim(True)
        latencies = [
            sim.simulate_frame({"T": heavy_report()}, Mapping.serial()).latency_ms
            for _ in range(5)
        ]
        assert latencies == [latencies[0]] * 5

    def test_pre_priced_costs_match_simulate_frame(self):
        """A task that alone oversubscribes the channels is stretched;
        the pre-priced path stretches it identically."""
        report = WorkReport(
            task="T",
            bytes_in=512 * MIB,
            bytes_out=512 * MIB,
            buffers=(BufferAccess("big", 64 * MIB, passes=3.0),),
        )
        key = ("c", 0)
        off = make_sim(False).simulate_frame({"T": report}, Mapping.serial(), key)
        sim = make_sim(True)
        live = sim.simulate_frame({"T": report}, Mapping.serial(), key)
        assert live.latency_ms > off.latency_ms
        cost = sim.contended_costs(
            sim.cost_model.time_ms_many("T", [report], [key])
        )
        priced = {
            "T": (
                cost.total_ms[0],
                int(cost.eviction_bytes[0]),
                int(cost.external_bytes[0]),
            )
        }
        pre = sim.simulate_costed_frame({"T": report}, Mapping.serial(), priced)
        assert pre.latency_ms == live.latency_ms
        assert pre.task_ms == live.task_ms

    def test_slowdown_factor_bounds(self):
        sim = make_sim(True)
        assert sim._dram_slowdown(0.0, 10.0, 1.0, []) == 1.0
        assert sim._dram_slowdown(5.0, 5.0, 1e12, []) == 1.0  # empty window
        capacity = blackford().total_dram_stream_bw / 1e3
        assert sim._dram_slowdown(0.0, 10.0, 2 * capacity, []) == pytest.approx(2.0)
        # Posted demand overlapping half the window adds half its rate.
        demand = [(5.0, 20.0, 2 * capacity)]
        assert sim._dram_slowdown(0.0, 10.0, capacity, demand) == pytest.approx(2.0)
