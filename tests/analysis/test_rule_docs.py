"""``docs/analysis.md`` states each rule with the severity the code emits."""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
ANALYSIS = REPO / "src" / "repro" / "analysis"

#: A rule table row: ``| `rule/id` | severity ...``.
_ROW = re.compile(r"^\| `([a-z]+/[a-z0-9-]+)` \| ([a-z]+)\b", re.MULTILINE)


def emitted_severities() -> dict[str, set[str]]:
    """Every ``Finding(rule="...", severity=Severity.X)`` literal."""
    found: dict[str, set[str]] = {}
    for path in sorted(ANALYSIS.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Finding"
            ):
                continue
            kw = {k.arg: k.value for k in node.keywords}
            rule, severity = kw.get("rule"), kw.get("severity")
            if (
                isinstance(rule, ast.Constant)
                and isinstance(severity, ast.Attribute)
                and isinstance(severity.value, ast.Name)
                and severity.value.id == "Severity"
            ):
                found.setdefault(rule.value, set()).add(severity.attr.lower())
    return found


def documented_severities() -> dict[str, set[str]]:
    text = (REPO / "docs" / "analysis.md").read_text(encoding="utf-8")
    found: dict[str, set[str]] = {}
    for rule, severity in _ROW.findall(text):
        found.setdefault(rule, set()).add(severity)
    return found


def test_docs_state_each_rule_severity():
    emitted = emitted_severities()
    assert "graph/phase-budget" in emitted  # the scan sees the literals
    documented = documented_severities()
    wrong = {
        rule: (sorted(severities), sorted(documented.get(rule, ())))
        for rule, severities in emitted.items()
        if not severities <= documented.get(rule, set())
    }
    assert wrong == {}
