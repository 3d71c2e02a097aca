"""Graph fixtures for the analysis CLI and graphcheck unit tests.

Each factory returns a deliberately broken
:class:`~repro.graph.flowgraph.FlowGraph`; the tests pass them to
``check_flowgraph`` directly.
"""

from __future__ import annotations

from repro.graph.flowgraph import Edge, FlowGraph
from repro.graph.task import TaskSpec
from repro.imaging.pipeline import SwitchState


def _task(name: str, out_kb: float = 64.0) -> TaskSpec:
    return TaskSpec(
        name, kind="stream", input_kb=64.0, intermediate_kb=64.0, output_kb=out_kb
    )


def build_cyclic_graph() -> FlowGraph:
    """A -> B -> A: violates the DAG invariant of Fig. 2."""
    tasks = {"A": _task("A"), "B": _task("B")}
    edges = [
        Edge(FlowGraph.INPUT, "A", 64.0),
        Edge("A", "B", 64.0),
        Edge("B", "A", 64.0),
        Edge("B", FlowGraph.OUTPUT, 64.0),
    ]

    def activation(state: SwitchState) -> list[str]:
        return ["A", "B"]

    return FlowGraph(tasks, edges, activation)


def build_uncovered_graph() -> FlowGraph:
    """Activation has a hole: registration-success states are undefined."""
    tasks = {"A": _task("A"), "B": _task("B")}
    edges = [
        Edge(FlowGraph.INPUT, "A", 64.0),
        Edge("A", "B", 64.0),
        Edge("B", FlowGraph.OUTPUT, 64.0),
    ]

    def activation(state: SwitchState) -> list[str]:
        if state.reg_success:
            raise KeyError(f"no schedule defined for scenario {state.scenario_id}")
        return ["A", "B"]

    return FlowGraph(tasks, edges, activation)
