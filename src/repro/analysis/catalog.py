"""The complete rule catalog of the analysis suite.

One place that knows every rule id, its default severity and a
one-line description -- consumed by ``--list-rules``, by the SARIF
exporter (``tool.driver.rules`` metadata) and cross-checked against
the rule catalog in ``docs/analysis.md`` by the doc test.

Lint rules self-describe (each :class:`~repro.analysis.astlint.
LintRule` carries ``rule_id`` and ``description``); graph, sched,
dataflow and meta rules are declared here because their checkers are plain
functions.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.findings import Severity
from repro.analysis.rules import default_rules

__all__ = ["RuleInfo", "rule_catalog"]

RuleInfo = tuple[Severity, str]

#: Graph-invariant rules (:mod:`repro.analysis.graphcheck`).
_GRAPH_RULES: Mapping[str, RuleInfo] = {
    "graph/dangling": (
        Severity.ERROR,
        "edge references a task absent from the task table",
    ),
    "graph/cycle": (
        Severity.ERROR,
        "the task graph has a dependency cycle",
    ),
    "graph/switch-coverage": (
        Severity.ERROR,
        "a switch state activates no tasks or an unknown task",
    ),
    "graph/starved-task": (
        Severity.ERROR,
        "active task has no active input edge in some scenario",
    ),
    "graph/dead-task": (
        Severity.WARNING,
        "task is never activated by any switch state",
    ),
    "graph/edge-capacity": (
        Severity.ERROR,
        "edge payload disagrees with the producing task's output size",
    ),
    "graph/phase-budget": (
        Severity.INFO,
        "a task phase's working set overflows the L2 capacity",
    ),
    "graph/buffer-budget": (
        Severity.INFO,
        "a task's total buffer footprint overflows the L2 capacity",
    ),
    "graph/bandwidth-budget": (
        Severity.ERROR,
        "scenario bandwidth exceeds the platform's bus/DRAM budget",
    ),
}

#: Scenario-space schedulability rules (:mod:`repro.analysis.schedcheck`).
_SCHED_RULES: Mapping[str, RuleInfo] = {
    "sched/compute-budget": (
        Severity.ERROR,
        "a joint scenario's aggregate compute lower bound exceeds the "
        "core supply within one frame period",
    ),
    "sched/deadline": (
        Severity.ERROR,
        "an application scenario's critical path misses the frame "
        "period even fully parallelized",
    ),
    "sched/bus-budget": (
        Severity.ERROR,
        "a joint scenario's aggregate inter-task bandwidth exceeds "
        "the weakest platform link",
    ),
    "sched/l2-pressure": (
        Severity.WARNING,
        "a joint scenario's aggregate stream working set exceeds the "
        "platform's total L2 capacity",
    ),
    "sched/report-cap": (
        Severity.INFO,
        "violating joint scenarios beyond the per-rule report cap "
        "were counted, not listed",
    ),
}

#: Unit-inference rules (:mod:`repro.analysis.dataflow.unitcheck`).
_DATAFLOW_RULES: Mapping[str, RuleInfo] = {
    "dataflow/unit-mix": (
        Severity.ERROR,
        "adds, subtracts or compares two values of different units",
    ),
    "dataflow/unit-assign": (
        Severity.ERROR,
        "assigns a value to a variable whose name/annotation claims "
        "a different unit",
    ),
    "dataflow/unit-arg": (
        Severity.ERROR,
        "passes a value to a parameter annotated with a different unit",
    ),
    "dataflow/unit-return": (
        Severity.ERROR,
        "returns a value contradicting the annotated return unit",
    ),
}

#: Meta rules emitted by the reporting layer itself.
_META_RULES: Mapping[str, RuleInfo] = {
    "analysis/unsuppressed-ignore": (
        Severity.WARNING,
        "a '# repro: ignore[...]' marker suppresses no finding",
    ),
}


def rule_catalog() -> dict[str, RuleInfo]:
    """Every rule id -> (default severity, one-line description)."""
    catalog: dict[str, RuleInfo] = {}
    for rule in default_rules():
        catalog[rule.rule_id] = (Severity.ERROR, rule.description)
    catalog.update(_GRAPH_RULES)
    catalog.update(_SCHED_RULES)
    catalog.update(_DATAFLOW_RULES)
    catalog.update(_META_RULES)
    return dict(sorted(catalog.items()))
