"""Tests for co-scheduling ("more functions on the same platform")."""

from __future__ import annotations

import pytest

from repro.hw.spec import blackford
from repro.runtime.coschedule import BackgroundFunction, coschedule, idle_core_ms
from repro.runtime.engine import RunResult
from repro.runtime.frametable import FrameTable


def make_run(label, budget_ms, frames):
    """A run of ``(serial_ms, latency_ms, cores)`` frames."""
    table = FrameTable()
    for serial_ms, latency_ms, cores in frames:
        table.add_frame(
            index=0,
            predicted_scenario=3,
            actual_scenario=3,
            predicted_ms=serial_ms,
            serial_ms=serial_ms,
            latency_ms=latency_ms,
            output_ms=latency_ms,
            cores_used=cores,
            parts={},
        )
    return RunResult(table, budget_ms=budget_ms, label=label)


class TestBackgroundFunction:
    def test_validation(self):
        with pytest.raises(ValueError):
            BackgroundFunction(work_ms_per_item=0.0)


class TestIdleCoreMs:
    def test_managed_run_frees_unused_cores(self):
        run = make_run("triple-c managed", 50.0, [(40.0, 40.0, 2)])
        plat = blackford()
        idle = idle_core_ms(run, plat, frame_period_ms=33.3)
        # 8 cores * 33.3 - 2 cores * 33.3 (latency clamped to period).
        assert idle[0] == pytest.approx(8 * 33.3 - 2 * 33.3)

    def test_static_reservation_blocks_cores_for_whole_period(self):
        run = make_run("worst-case reservation", 100.0, [(40.0, 40.0, 1)])
        plat = blackford()
        idle = idle_core_ms(run, plat, frame_period_ms=33.3, reserved_cores=6)
        assert idle[0] == pytest.approx((8 - 6) * 33.3)
        # Reserving the whole platform leaves nothing.
        idle_all = idle_core_ms(run, plat, 33.3, reserved_cores=8)
        assert idle_all[0] == 0.0

    def test_invalid_reserved_cores(self):
        # An empty run is checked too: the reservation is validated
        # before any frame is read.
        for frames in ([(40.0, 40.0, 1)], []):
            run = make_run("worst-case reservation", 100.0, frames)
            with pytest.raises(ValueError):
                idle_core_ms(run, blackford(), 33.3, reserved_cores=9)


class TestCoschedule:
    def test_managed_beats_static_reservation(self):
        plat = blackford()
        # Managed: 2 cores for 30 ms; static: 6 cores pinned.
        managed = make_run("triple-c managed", 50.0, [(30.0, 30.0, 2)] * 10)
        reserved = make_run("worst-case reservation", 120.0, [(30.0, 30.0, 1)] * 10)
        bg = BackgroundFunction(work_ms_per_item=5.0)
        res_mg = coschedule(managed, plat, bg)
        res_wc = coschedule(reserved, plat, bg, reserved_cores=6)
        assert res_mg.items_per_second > res_wc.items_per_second
        assert res_mg.items_per_frame == pytest.approx(
            res_mg.idle_core_ms_per_frame / 5.0
        )
