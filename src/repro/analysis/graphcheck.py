"""Static checks over a switched flow graph and its scenario table.

A compile-time version of the paper's resource arguments: everything
here is knowable from the :class:`~repro.graph.flowgraph.FlowGraph`
structure and the Table 1 buffer sizes -- before a single frame is
rendered or simulated.  Each rule keeps a recorded mutant that tier-1
misses and the gate catches (``docs/analysis.md``).

Checks (rule ids):

``graph/switch-coverage``
    Every switch state must yield a non-empty activation whose order
    respects every edge between its tasks -- the scenario table of
    Section 5.2 covers all 2^3 scenarios, and a hole here means a
    frame could arrive with no defined schedule.  A cycle among
    co-active tasks always breaks the order, so it lands here.
``graph/starved-task``
    Under every scenario, each active task needs at least one active
    incoming edge (from ``INPUT`` or another active task); a starved
    task would stall the frame.
``graph/edge-capacity``
    An edge cannot carry more KiB per frame than its producer's
    output buffer or its consumer's input buffer holds (bandwidth
    conservation at task boundaries, Table 1).
``graph/phase-budget``
    A phase's live buffer set may not exceed the task's declared
    Table 1 total (input + intermediate + output); if it does, the
    phase decomposition and the table disagree.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.findings import Finding, Severity
from repro.graph.flowgraph import FlowGraph
from repro.imaging.pipeline import SwitchState

__all__ = [
    "scenario_ids_for",
    "check_scenarios",
    "check_buffers",
    "check_flowgraph",
]


def scenario_ids_for(switch_names: Sequence[str]) -> tuple[int, ...]:
    """Every scenario id of an application with the given switches.

    The scenario space is the full assignment space of the binary
    switches -- ``2 ** len(switch_names)`` ids.  Deriving the range
    from the workload's ``switch_names`` (instead of assuming the
    StentBoost eight) keeps the checks correct for workloads with a
    different switch count.
    """
    return tuple(range(2 ** len(switch_names)))


#: All eight switch states of the Fig. 2 graph (three switches).
ALL_SCENARIO_IDS: tuple[int, ...] = scenario_ids_for(("b2", "b1", "b0"))


def _task_kb(task: object, attr: str) -> float | None:
    """Duck-typed Table 1 column of a task spec (``None`` if absent)."""
    value = getattr(task, attr, None)
    if isinstance(value, (int, float)):
        return float(value)
    return None


# -- scenario coverage and conservation --------------------------------------


def check_scenarios(
    graph: FlowGraph, scenario_ids: Sequence[int] = ALL_SCENARIO_IDS
) -> list[Finding]:
    """Switch coverage and per-scenario conservation."""
    findings: list[Finding] = []

    for sid in scenario_ids:
        state = SwitchState.from_scenario_id(sid)
        loc = f"scenario {sid}"
        try:
            order = graph.execution_order(state)
        except Exception as exc:  # noqa: BLE001 - any failure is a coverage hole
            findings.append(
                Finding(
                    rule="graph/switch-coverage",
                    severity=Severity.ERROR,
                    location=loc,
                    message=f"activation failed for switch state {sid}: {exc}",
                )
            )
            continue
        if not order:
            findings.append(
                Finding(
                    rule="graph/switch-coverage",
                    severity=Severity.ERROR,
                    location=loc,
                    message="activation returned no tasks for this switch state",
                )
            )
            continue

        active_edges = graph.active_edges(state)
        fed = {e.dst for e in active_edges}
        for name in order:
            if name not in fed:
                findings.append(
                    Finding(
                        rule="graph/starved-task",
                        severity=Severity.ERROR,
                        location=f"{loc}, task {name}",
                        message=(
                            "active task has no active incoming edge "
                            "(neither INPUT nor an active producer feeds it)"
                        ),
                    )
                )

    # Edge payload vs producer/consumer buffer capacity (Table 1).
    for e in graph.edges:
        src_out = _task_kb(graph.tasks.get(e.src), "output_kb")
        dst_in = _task_kb(graph.tasks.get(e.dst), "input_kb")
        if src_out is not None and e.kb_per_frame > src_out:
            findings.append(
                Finding(
                    rule="graph/edge-capacity",
                    severity=Severity.ERROR,
                    location=f"edge {e.src}->{e.dst}",
                    message=(
                        f"carries {e.kb_per_frame:g} KiB/frame but producer "
                        f"{e.src} outputs only {src_out:g} KiB"
                    ),
                )
            )
        if dst_in is not None and e.kb_per_frame > dst_in:
            findings.append(
                Finding(
                    rule="graph/edge-capacity",
                    severity=Severity.ERROR,
                    location=f"edge {e.src}->{e.dst}",
                    message=(
                        f"carries {e.kb_per_frame:g} KiB/frame but consumer "
                        f"{e.dst} accepts only {dst_in:g} KiB"
                    ),
                )
            )
    return findings


# -- Table 1 budgets ---------------------------------------------------------


def check_buffers(graph: FlowGraph) -> list[Finding]:
    """Each phase's live buffer set vs its task's Table 1 total."""
    findings: list[Finding] = []
    for name, task in sorted(graph.tasks.items()):
        total_kb = _task_kb(task, "total_kb")
        if total_kb is None:
            continue
        for phase in getattr(task, "phases", ()) or ():
            live_kb = float(phase.total_kb)
            if live_kb > total_kb:
                findings.append(
                    Finding(
                        rule="graph/phase-budget",
                        severity=Severity.ERROR,
                        location=f"task {name}, phase {phase.name}",
                        message=(
                            f"phase keeps {live_kb:g} KiB live, more than "
                            f"the task's declared Table 1 total "
                            f"({total_kb:g} KiB)"
                        ),
                    )
                )
    return findings


def check_flowgraph(
    graph: FlowGraph, scenario_ids: Sequence[int] = ALL_SCENARIO_IDS
) -> list[Finding]:
    """Run every graph check; the one-call entry point used by the CLI."""
    return check_scenarios(graph, scenario_ids) + check_buffers(graph)
