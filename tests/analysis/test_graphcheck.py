"""Tests for the flow-graph static checks."""

from __future__ import annotations

from repro.analysis.findings import Severity
from repro.analysis.graphcheck import (
    check_buffers,
    check_flowgraph,
    check_scenarios,
)
from repro.graph.flowgraph import Edge, FlowGraph
from repro.graph.stentboost import build_stentboost_graph
from repro.graph.task import PhaseSpec, TaskSpec
from repro.imaging.pipeline import SwitchState

from tests.analysis.fixtures.bad_graph import (
    build_cyclic_graph,
    build_uncovered_graph,
)


def _task(name: str, **kw) -> TaskSpec:
    base = dict(kind="stream", input_kb=64.0, intermediate_kb=64.0, output_kb=64.0)
    base.update(kw)
    return TaskSpec(name, **base)


def rules_of(findings) -> set[str]:
    return {f.rule for f in findings}


class TestTopology:
    def test_cycle_detected(self):
        # A cycle among co-active tasks breaks the activation order of
        # every scenario, so it is a coverage hole.
        findings = check_flowgraph(build_cyclic_graph())
        assert rules_of(findings) == {"graph/switch-coverage"}
        assert all(f.severity is Severity.ERROR for f in findings)
        assert all("violates dependency" in f.message for f in findings)

    def test_clean_chain(self):
        tasks = {"A": _task("A"), "B": _task("B")}
        edges = [
            Edge(FlowGraph.INPUT, "A", 1.0),
            Edge("A", "B", 1.0),
            Edge("B", FlowGraph.OUTPUT, 1.0),
        ]
        g = FlowGraph(tasks, edges, lambda state: ["A", "B"])
        assert check_flowgraph(g) == []


class TestScenarios:
    def test_uncovered_switch_state(self):
        findings = check_scenarios(build_uncovered_graph())
        holes = [f for f in findings if f.rule == "graph/switch-coverage"]
        # reg_success is bit 0: odd scenario ids are the uncovered ones.
        assert {f.location for f in holes} == {
            f"scenario {i}" for i in (1, 3, 5, 7)
        }
        assert all(f.severity is Severity.ERROR for f in holes)

    def test_empty_activation_is_a_hole(self):
        g = build_uncovered_graph()
        g._activation = lambda state: []
        findings = check_scenarios(g, scenario_ids=[0])
        assert rules_of(findings) == {"graph/switch-coverage"}
        (hole,) = [f for f in findings if f.rule == "graph/switch-coverage"]
        assert "no tasks" in hole.message

    def test_starved_task(self):
        tasks = {"A": _task("A"), "B": _task("B"), "C": _task("C")}
        edges = [
            Edge(FlowGraph.INPUT, "A", 64.0),
            Edge("A", "B", 64.0),
            Edge("B", "C", 64.0),
        ]
        # B inactive: C keeps running but nothing feeds it.
        g = FlowGraph(tasks, edges, lambda state: ["A", "C"])
        findings = check_scenarios(g, scenario_ids=[0])
        starved = [f for f in findings if f.rule == "graph/starved-task"]
        assert len(starved) == 1 and "task C" in starved[0].location

    def test_edge_over_producer_capacity(self):
        tasks = {"A": _task("A", output_kb=32.0), "B": _task("B")}
        edges = [
            Edge(FlowGraph.INPUT, "A", 64.0),
            Edge("A", "B", 48.0),  # producer only outputs 32 KiB
        ]
        g = FlowGraph(tasks, edges, lambda state: ["A", "B"])
        findings = check_scenarios(g, scenario_ids=[0])
        caps = [f for f in findings if f.rule == "graph/edge-capacity"]
        assert len(caps) == 1 and "outputs only 32" in caps[0].message

    def test_edge_over_consumer_capacity(self):
        tasks = {"A": _task("A"), "B": _task("B", input_kb=16.0)}
        edges = [
            Edge(FlowGraph.INPUT, "A", 64.0),
            Edge("A", "B", 64.0),  # consumer only accepts 16 KiB
        ]
        g = FlowGraph(tasks, edges, lambda state: ["A", "B"])
        findings = check_scenarios(g, scenario_ids=[0])
        caps = [f for f in findings if f.rule == "graph/edge-capacity"]
        assert len(caps) == 1 and "accepts only 16" in caps[0].message


class TestBudgets:
    def test_phase_exceeding_table1_total_is_error(self):
        big_phase = PhaseSpec("huge", (("buf", 1024.0),))
        t = TaskSpec(
            "T",
            kind="stream",
            input_kb=64.0,
            intermediate_kb=64.0,
            output_kb=64.0,
            phases=(big_phase,),
        )
        g = FlowGraph(
            {"T": t}, [Edge(FlowGraph.INPUT, "T", 64.0)], lambda state: ["T"]
        )
        findings = check_buffers(g)
        assert rules_of(findings) == {"graph/phase-budget"}
        assert findings[0].severity is Severity.ERROR


class TestFullGraph:
    def test_stentboost_has_no_errors(self):
        assert check_flowgraph(build_stentboost_graph()) == []

    def test_worst_case_scenario_is_heaviest(self):
        """Sanity: the Section 5.2 worst case carries the most bandwidth."""
        g = build_stentboost_graph()
        totals = {
            sid: g.total_bandwidth_mbps(SwitchState.from_scenario_id(sid))
            for sid in range(8)
        }
        worst = SwitchState(rdg_on=True, roi_mode=False, reg_success=True)
        assert max(totals, key=totals.__getitem__) == worst.scenario_id
