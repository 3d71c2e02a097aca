"""Tests for the shared findings model."""

from __future__ import annotations

from repro.analysis.findings import (
    Finding,
    Severity,
    count_at_least,
    format_findings,
    report,
)


def _f(rule: str, sev: Severity, loc: str = "x:1", msg: str = "m") -> Finding:
    return Finding(rule=rule, severity=sev, location=loc, message=msg)


class TestSeverity:
    def test_ordering(self):
        assert Severity.INFO < Severity.WARNING < Severity.ERROR


class TestAggregation:
    def test_count_at_least(self):
        fs = [
            _f("a", Severity.INFO),
            _f("b", Severity.WARNING),
            _f("c", Severity.ERROR),
        ]
        assert count_at_least(fs, Severity.INFO) == 3
        assert count_at_least(fs, Severity.WARNING) == 2
        assert count_at_least(fs, Severity.ERROR) == 1


class TestRendering:
    def test_render_line(self):
        f = _f("graph/cycle", Severity.ERROR, "graph", "has a cycle")
        assert f.render() == "graph: error [graph/cycle] has a cycle"

    def test_format_sorts_by_path_line_rule(self):
        # Deterministic (path, line, rule) order -- byte-stable output
        # across runs regardless of discovery order.
        fs = [
            _f("b", Severity.ERROR, "y.py:2"),
            _f("z", Severity.INFO, "x.py:10"),
            _f("a", Severity.INFO, "x.py:2"),
            _f("a", Severity.ERROR, "x.py:2"),
        ]
        text = format_findings(fs)
        assert (
            text.index("x.py:2")
            < text.index("x.py:10")
            < text.index("y.py:2")
        )
        assert "4 finding(s): 2 error, 2 info" in text

    def test_format_empty_is_clean(self):
        assert format_findings([]) == "clean"


class TestReport:
    def test_only_an_error_fails(self, capsys):
        assert report([]) == 0
        assert report([_f("a", Severity.INFO), _f("b", Severity.WARNING)]) == 0
        assert report([_f("a", Severity.INFO), _f("c", Severity.ERROR)]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "clean"
        assert out.endswith("2 finding(s): 1 error, 1 info\n")
