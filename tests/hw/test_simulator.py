"""Tests for the discrete-event platform simulator."""

from __future__ import annotations

import pytest

from repro.graph import build_stentboost_graph
from repro.hw.cost import CostModel, TaskCostSpec
from repro.hw.mapping import Mapping
from repro.hw.simulator import PlatformSimulator
from repro.hw.spec import blackford
from repro.imaging.common import BufferAccess, WorkReport


def make_sim(**kwargs):
    plat = blackford()
    costs = {
        "A": TaskCostSpec(fixed_ms=10.0),
        "B": TaskCostSpec(fixed_ms=20.0),
        "C": TaskCostSpec(fixed_ms=5.0),
    }
    cm = CostModel(plat, pixel_scale=1.0, jitter_sigma=1e-9, spike_prob=0.0, task_costs=costs)
    return PlatformSimulator(plat, cm, **kwargs)


def chain_reports(out_bytes=0):
    return {
        "A": WorkReport(task="A", bytes_out=out_bytes),
        "B": WorkReport(task="B", bytes_out=out_bytes),
        "C": WorkReport(task="C"),
    }


class TestSerialChain:
    def test_latency_is_sum(self):
        sim = make_sim()
        res = sim.simulate_frame(chain_reports(), Mapping.serial())
        assert res.latency_ms == pytest.approx(35.0, abs=0.01)
        assert list(res.task_ms) == ["A", "B", "C"]

    def test_timings_sequential(self):
        """Each task waits for its producer, even on its own core: the
        latency is the sum of the task times, not their maximum."""
        sim = make_sim()
        spread = Mapping(assignments={"B": (1,), "C": (2,)}, default_core=0)
        res = sim.simulate_frame(chain_reports(), spread)
        assert res.latency_ms == pytest.approx(sum(res.task_ms.values()), rel=1e-12)
        assert res.latency_ms == pytest.approx(35.0, abs=0.01)

    def test_start_offset(self):
        """The chain starts at ``start_ms`` and its latency is measured
        from there (a chain started at 0 would read 35 - 100)."""
        sim = make_sim()
        at_zero = sim.simulate_frame(chain_reports(), Mapping.serial())
        res = sim.simulate_frame(chain_reports(), Mapping.serial(), start_ms=100.0)
        assert res.latency_ms == pytest.approx(35.0, abs=0.01)
        assert res.latency_ms == pytest.approx(at_zero.latency_ms, rel=1e-12)
        assert res.task_ms == at_zero.task_ms


class TestPartitioning:
    def test_two_way_split_halves_compute(self):
        sim = make_sim()
        mapping = Mapping.serial().with_partition("B", (0, 1))
        res = sim.simulate_frame(chain_reports(), mapping)
        # B now costs ~10 + fork/join instead of 20.
        assert res.latency_ms < 35.0
        assert res.latency_ms == pytest.approx(
            10 + (20 / 2 + sim.fork_ms + sim.join_ms) + 5, abs=0.05
        )

    def test_graph_validation_rejects_indivisible(self):
        graph = build_stentboost_graph()
        plat = blackford()
        cm = CostModel(plat, pixel_scale=1.0)
        sim = PlatformSimulator(plat, cm, graph=graph)
        reports = {"REG": WorkReport(task="REG")}
        mapping = Mapping.serial().with_partition("REG", (0, 1))
        with pytest.raises(ValueError):
            sim.simulate_frame(reports, mapping)

    def test_graph_allows_divisible(self):
        graph = build_stentboost_graph()
        plat = blackford()
        cm = CostModel(plat, pixel_scale=1.0)
        sim = PlatformSimulator(plat, cm, graph=graph)
        reports = {"ENH": WorkReport(task="ENH", pixels=1000)}
        mapping = Mapping.serial().with_partition("ENH", (0, 1, 2, 3))
        res = sim.simulate_frame(reports, mapping)
        assert res.latency_ms > 0

    def test_mapping_beyond_core_count_rejected(self):
        sim = make_sim()
        mapping = Mapping.serial().with_partition("A", tuple(range(9)))
        with pytest.raises(ValueError):
            sim.simulate_frame(chain_reports(), mapping)


class TestCommunication:
    def test_cross_cluster_comm_charged(self):
        sim_same = make_sim()
        sim_cross = make_sim()
        nbytes = 50_000_000  # 50 MB so the transfer time is visible
        reports = chain_reports(out_bytes=nbytes)
        same = sim_same.simulate_frame(reports, Mapping.serial())
        cross_map = Mapping(assignments={"B": (4,)}, default_core=0)
        cross = sim_cross.simulate_frame(reports, cross_map)
        assert cross.latency_ms > same.latency_ms
        assert sim_cross.ledger.total_bytes("bus") > 0
        assert sim_same.ledger.total_bytes("bus") == 0

    def test_dram_traffic_recorded(self):
        sim = make_sim()
        reports = {
            "A": WorkReport(
                task="A",
                bytes_in=1000,
                bytes_out=500,
                buffers=(BufferAccess("x", 1000),),
            )
        }
        res = sim.simulate_frame(reports, Mapping.serial())
        assert res.external_bytes == 1500
        assert sim.ledger.total_bytes("dram") == 1500
        assert sim.ledger.frames == 1


class TestFrameResult:
    def test_busy_ms(self):
        """The core-busy compute time of a frame is its task times' sum."""
        sim = make_sim()
        res = sim.simulate_frame(chain_reports(), Mapping.serial())
        assert sum(res.task_ms.values()) == pytest.approx(35.0, abs=0.01)

    def test_empty_frame(self):
        sim = make_sim()
        res = sim.simulate_frame({}, Mapping.serial())
        assert res.latency_ms == 0.0
        assert res.task_ms == {}
        assert res.external_bytes == 0
        assert sim.ledger.frames == 1
        assert sim.ledger.total_bytes("dram") == 0
