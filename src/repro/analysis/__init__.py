"""Static-analysis suite: flow-graph invariants, lint rules, unit inference.

Three passes, one findings model:

* :mod:`repro.analysis.graphcheck` verifies the paper's structural
  invariants on a :class:`~repro.graph.flowgraph.FlowGraph` -- DAG-ness,
  switch-state coverage, bandwidth conservation, Table 1 buffer budgets
  against the platform's L2 -- before anything executes;
* :mod:`repro.analysis.astlint` lints the sources for the bug classes
  the repository has hit (direct RNG calls, decimal/binary byte-unit
  mixing, StentBoost hard-wired outside the workload registry);
* :mod:`repro.analysis.dataflow` infers units across the whole program
  and flags seconds-vs-milliseconds style mismatches.

Run all three with ``python -m repro.analysis``.
"""

from __future__ import annotations

from repro.analysis.astlint import (
    LintContext,
    LintRule,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.analysis.findings import (
    Finding,
    Severity,
    count_at_least,
    findings_to_json,
    format_findings,
    max_severity,
)
from repro.analysis.graphcheck import (
    check_bandwidth,
    check_buffers,
    check_flowgraph,
    check_scenarios,
    check_topology,
)
from repro.analysis.rules import default_rules

__all__ = [
    "Finding",
    "Severity",
    "max_severity",
    "count_at_least",
    "format_findings",
    "findings_to_json",
    "LintContext",
    "LintRule",
    "lint_source",
    "lint_file",
    "lint_paths",
    "default_rules",
    "check_topology",
    "check_scenarios",
    "check_buffers",
    "check_bandwidth",
    "check_flowgraph",
]
