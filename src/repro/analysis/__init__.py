"""Static-analysis suite: flow-graph invariants, lint rules, unit inference.

Three passes, one findings model:

* :mod:`repro.analysis.graphcheck` verifies the paper's structural
  invariants on a :class:`~repro.graph.flowgraph.FlowGraph` -- switch
  coverage, fed tasks, edge payloads against Table 1 buffers, phase
  working sets against Table 1 totals -- before anything executes;
* :mod:`repro.analysis.astlint` lints the sources for the bug classes
  the repository has hit (direct RNG calls, decimal/binary byte-unit
  mixing, StentBoost hard-wired outside the workload registry);
* :mod:`repro.analysis.dataflow` infers units across the whole program
  and flags seconds-vs-milliseconds style mismatches.

Run all three with ``python -m repro.analysis``: it prints the
findings as text and exits 1 if any is an ``error``.
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
    format_findings,
    report,
)
from repro.analysis.graphcheck import (
    check_buffers,
    check_flowgraph,
    check_scenarios,
)
from repro.analysis.rules import default_rules

__all__ = [
    "Finding",
    "Severity",
    "count_at_least",
    "format_findings",
    "report",
    "LintContext",
    "LintRule",
    "lint_source",
    "lint_file",
    "lint_paths",
    "default_rules",
    "check_scenarios",
    "check_buffers",
    "check_flowgraph",
]
