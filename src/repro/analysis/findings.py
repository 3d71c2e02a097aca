"""Structured findings shared by the static-analysis passes.

Both the flow-graph checker (:mod:`repro.analysis.graphcheck`) and the
AST lint (:mod:`repro.analysis.astlint`) report problems as
:class:`Finding` values rather than raising or printing.  Both CLIs
end in :func:`report`: the findings are printed as sorted text and
the exit status is 1 exactly when one of them is an ``error``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "Severity",
    "Finding",
    "count_at_least",
    "sort_key",
    "format_findings",
    "report",
]


class Severity(enum.IntEnum):
    """Ordered severity of a finding.

    ``INFO`` records expected-but-notable facts (e.g. violations past
    schedcheck's report cap, counted but not listed); ``WARNING``
    marks suspicious constructs; ``ERROR`` marks invariant violations
    that would corrupt predictions at runtime, and only those fail
    the gate.
    """

    INFO = 0
    WARNING = 1
    ERROR = 2


@dataclass(frozen=True)
class Finding:
    """One problem located by a static-analysis pass.

    Attributes
    ----------
    rule:
        Stable rule identifier (``graph/starved-task``, ``lint/banned-random`` ...).
    severity:
        How bad it is; only ``ERROR`` findings fail the CLI.
    location:
        Where: ``path:line`` for lint findings, a graph element
        description (edge, task, scenario) for graph findings.
    message:
        Human-readable, single-line explanation.
    """

    rule: str
    severity: Severity
    location: str
    message: str

    def render(self) -> str:
        """``location: severity [rule] message`` -- one line."""
        return (
            f"{self.location}: {self.severity.name.lower()} "
            f"[{self.rule}] {self.message}"
        )


def count_at_least(findings: Iterable[Finding], threshold: Severity) -> int:
    """Number of findings at or above ``threshold``."""
    return sum(1 for f in findings if f.severity >= threshold)


def sort_key(finding: Finding) -> tuple[str, int, str, str]:
    """``(path, line, rule, message)`` ordering key.

    Numeric line components sort numerically (``:9`` before ``:10``),
    graph-element locations sort as line 0 of their description, so
    repeated runs and CI diffs are byte-stable.
    """
    head, sep, tail = finding.location.rpartition(":")
    if sep and tail.isdigit():
        return (head, int(tail), finding.rule, finding.message)
    return (finding.location, 0, finding.rule, finding.message)


def format_findings(findings: Sequence[Finding]) -> str:
    """Render findings as text, sorted by (path, line, rule)."""
    ordered = sorted(findings, key=sort_key)
    lines = [f.render() for f in ordered]
    counts = {
        sev: sum(1 for f in findings if f.severity == sev) for sev in Severity
    }
    summary = ", ".join(
        f"{counts[sev]} {sev.name.lower()}" for sev in reversed(Severity) if counts[sev]
    )
    lines.append(f"{len(findings)} finding(s): {summary}" if findings else "clean")
    return "\n".join(lines)


def report(findings: Sequence[Finding]) -> int:
    """Print ``findings`` as text; the exit status of both CLIs.

    Returns 1 when any finding is an ``error``, else 0.
    """
    print(format_findings(findings))
    return 1 if count_at_least(findings, Severity.ERROR) else 0
