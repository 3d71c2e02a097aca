"""Tests for the greedy repartitioner."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import build_stentboost_graph
from repro.hw.spec import blackford
from repro.runtime.partition import Partitioner


@pytest.fixture(scope="module")
def part():
    return Partitioner(blackford(), build_stentboost_graph(), max_parts=4)


class TestTaskLatency:
    def test_serial_is_compute(self, part):
        assert part.task_latency_ms("RDG_FULL", 40.0, 1) == 40.0

    def test_split_adds_overhead(self, part):
        t2 = part.task_latency_ms("RDG_FULL", 40.0, 2)
        assert 20.0 < t2 < 22.0  # half + fork/join/halo

    def test_diminishing_returns(self, part):
        gains = []
        for k in range(1, 4):
            gains.append(
                part.task_latency_ms("RDG_FULL", 40.0, k)
                - part.task_latency_ms("RDG_FULL", 40.0, k + 1)
            )
        assert gains[0] > gains[1] > gains[2]

    def test_splittable_classification(self, part):
        assert part.splittable("RDG_FULL") and part.splittable("ENH")
        assert part.splittable("CPLS_SEL") and part.splittable("GW_EXT")
        assert not part.splittable("REG") and not part.splittable("ROI_EST")
        assert not part.splittable("UNKNOWN_TASK")


class TestChoose:
    """``choose_robust`` over a single scenario: the plain budget fit."""

    TASKS = {"RDG_FULL": 45.0, "MKX_FULL_RDG": 4.0, "REG": 2.0, "ENH": 24.0, "ZOOM": 12.0}

    def choose(self, part, budget_ms):
        return part.choose_robust({5: self.TASKS}, budget_ms=budget_ms)

    def test_serial_when_budget_loose(self, part):
        d = self.choose(part, 200.0)
        assert all(k == 1 for k in d.parts.values())
        assert d.cores_used == 1

    def test_splits_until_budget_met(self, part):
        d = self.choose(part, 50.0)
        assert d.predicted_latency_ms <= 50.0
        assert d.parts["RDG_FULL"] > 1  # biggest gain first

    def test_infeasible_budget_gives_best_effort(self, part):
        d = self.choose(part, 1.0)
        assert d.predicted_latency_ms > 1.0
        # Everything splittable should be maxed out.
        assert d.parts["RDG_FULL"] == 4
        assert d.parts["ENH"] == 4
        # REG is not splittable and stays serial.
        assert d.parts["REG"] == 1

    def test_invalid_budget(self, part):
        with pytest.raises(ValueError):
            self.choose(part, 0.0)

    @given(st.floats(min_value=10.0, max_value=200.0))
    @settings(max_examples=30, deadline=None)
    def test_property_mapping_consistent(self, part, budget):
        d = self.choose(part, budget)
        for t, k in d.parts.items():
            assert d.mapping.partitions(t) == k
        assert d.cores_used <= 4
        assert d.predicted_latency_ms == pytest.approx(
            part.frame_latency_ms(self.TASKS, d.parts)
        )


class TestChooseRobust:
    def test_covers_worst_scenario(self, part):
        scenarios = {
            3: {"MKX_ROI": 0.5, "REG": 2.0, "ENH": 24.0, "ZOOM": 12.0},
            7: {"RDG_ROI": 5.0, "MKX_ROI_RDG": 0.5, "REG": 2.0, "ENH": 24.0, "ZOOM": 12.0},
            5: {"RDG_FULL": 45.0, "MKX_FULL_RDG": 4.0, "REG": 2.0, "ENH": 24.0, "ZOOM": 12.0},
        }
        d = part.choose_robust(scenarios, budget_ms=48.0)
        for tm in scenarios.values():
            assert part.frame_latency_ms(tm, d.parts) <= 48.0
        # The cheap scenario alone would not have needed the RDG split.
        assert d.parts["RDG_FULL"] > 1

    def test_empty_scenarios_rejected(self, part):
        with pytest.raises(ValueError):
            part.choose_robust({}, budget_ms=10.0)
