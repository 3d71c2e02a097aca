"""Tests for ``python -m repro.analysis schedcheck``.

Exit-code semantics, byte-identical output across runs, the
feasibility-envelope file, and the subcommand dispatch through the
main analysis CLI.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.analysis.schedcheck_cli import main, matrix_mixes
from repro.graph.flowgraph import Edge, FlowGraph
from repro.workloads import base as workload_base
from repro.workloads import get_workload

FEASIBLE = ["--apps", "stentboost,stentboost", "--cores", "8"]
INFEASIBLE = [
    "--apps",
    "stentboost,stentboost,stentboost,stentboost",
    "--cores",
    "1",
]


class TestExitCodes:
    def test_feasible_default_mix_exits_zero(self, capsys):
        assert main(FEASIBLE) == 0
        out = capsys.readouterr().out
        assert "sched/l2-pressure" in out  # pressure reported, not fatal

    def test_overloaded_mix_exits_nonzero(self, capsys):
        assert main(INFEASIBLE) == 1
        out = capsys.readouterr().out
        assert "sched/compute-budget" in out
        assert "sched/deadline" in out
        assert "witness (" in out and "stationary p=" in out

    def test_unknown_workload_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["--apps", "no-such-app"])
        capsys.readouterr()

    def test_activation_order_violation_is_one_error_line(
        self, monkeypatch, capsys
    ):
        """An edge the activation list runs backwards (LOC is listed
        after FEAT_FULL) is reported, not raised as a traceback."""
        robot = get_workload("robotvision")

        def build_graph() -> FlowGraph:
            g = robot.build_graph()
            return FlowGraph(
                g.tasks,
                [*g.edges, Edge("LOC", "FEAT_FULL", 0.5)],
                g._activation,
            )

        bad = dataclasses.replace(robot, name="rvbackedge", build_graph=build_graph)
        monkeypatch.setitem(workload_base._REGISTRY, bad.name, bad)
        with pytest.raises(SystemExit) as exc:
            main(["--apps", "rvbackedge"])
        capsys.readouterr()
        message = str(exc.value.code)
        assert message.startswith("repro.analysis schedcheck: error: ")
        assert "\n" not in message
        assert "'rvbackedge'" in message
        assert "LOC -> FEAT_FULL" in message


class TestMatrix:
    def test_matrix_mixes_shape(self):
        mixes = matrix_mixes(["a", "b"])
        assert mixes == [("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "b")]

    def test_default_matrix_exits_zero(self, capsys):
        # The acceptance gate: every registered workload alone and in
        # pairs fits the reference platform.
        assert main([]) == 0
        capsys.readouterr()


class TestDeterminism:
    def test_text_is_byte_identical_across_runs(self, capsys):
        assert main(FEASIBLE) == 0
        first = capsys.readouterr().out
        assert main(FEASIBLE) == 0
        assert capsys.readouterr().out == first
        assert "sched/l2-pressure" in first


class TestEnvelope:
    def test_envelope_file_round_trips_into_the_fleet(self, tmp_path, capsys):
        out = tmp_path / "envelope.json"
        assert (
            main(
                [
                    "--apps",
                    "stentboost",
                    "--envelope",
                    str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["schema"] == "repro-sched-envelope/1"
        assert all(cap >= 1 for cap in doc["max_instances"].values())

        from repro.fleet.cli import _load_envelope

        caps = _load_envelope(out)
        assert caps == doc["max_instances"]


class TestDispatch:
    def test_main_cli_dispatches_subcommand(self, capsys):
        from repro.analysis.cli import main as analysis_main

        code = analysis_main(["schedcheck"] + FEASIBLE)
        assert code == 0
        capsys.readouterr()
