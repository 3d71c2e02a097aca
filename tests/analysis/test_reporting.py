"""SARIF export, inline suppressions, and the findings baseline."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.baseline import (
    filter_baselined,
    fingerprint,
    load_baseline,
    write_baseline,
)
from repro.analysis.catalog import rule_catalog
from repro.analysis.findings import Finding, Severity
from repro.analysis.sarif import (
    SARIF_SCHEMA,
    SARIF_VERSION,
    findings_to_sarif,
    findings_to_sarif_json,
)
from repro.analysis.suppress import (
    UNSUPPRESSED_IGNORE,
    apply_suppressions,
    scan_suppressions,
    split_location,
)


def _f(rule="dataflow/unit-mix", sev=Severity.ERROR, loc="src/x.py:12", msg="m"):
    return Finding(rule=rule, severity=sev, location=loc, message=msg)


class TestSarif:
    def test_envelope_structure(self):
        doc = findings_to_sarif([_f()])
        assert doc["version"] == SARIF_VERSION == "2.1.0"
        assert doc["$schema"] == SARIF_SCHEMA
        (run,) = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro.analysis"
        assert {r["id"] for r in driver["rules"]} == {"dataflow/unit-mix"}
        (result,) = run["results"]
        assert result["ruleId"] == "dataflow/unit-mix"
        assert result["level"] == "error"
        assert result["message"]["text"] == "m"

    def test_severity_level_mapping(self):
        doc = findings_to_sarif(
            [
                _f(sev=Severity.INFO, rule="a/i"),
                _f(sev=Severity.WARNING, rule="a/w"),
                _f(sev=Severity.ERROR, rule="a/e"),
            ]
        )
        levels = {
            r["ruleId"]: r["level"] for r in doc["runs"][0]["results"]
        }
        assert levels == {"a/i": "note", "a/w": "warning", "a/e": "error"}

    def test_physical_location_for_path_line(self):
        doc = findings_to_sarif([_f(loc="src/repro/hw/cost.py:236")])
        (loc,) = doc["runs"][0]["results"][0]["locations"]
        phys = loc["physicalLocation"]
        assert phys["artifactLocation"]["uri"] == "src/repro/hw/cost.py"
        assert phys["region"]["startLine"] == 236

    def test_logical_location_for_graph_findings(self):
        doc = findings_to_sarif([_f(loc="scenario 3, task BG_ANALYTICS")])
        (loc,) = doc["runs"][0]["results"][0]["locations"]
        assert "physicalLocation" not in loc
        (logical,) = loc["logicalLocations"]
        assert logical["fullyQualifiedName"] == "scenario 3, task BG_ANALYTICS"

    def test_rule_descriptions_from_catalog(self):
        catalog = rule_catalog()
        doc = findings_to_sarif(
            [_f()],
            rule_descriptions={k: v[1] for k, v in catalog.items()},
        )
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        # Every catalog rule is declared, each with its description.
        assert {r["id"] for r in rules} >= set(catalog)
        assert all(r["shortDescription"]["text"] for r in rules)

    def test_json_output_is_byte_stable(self):
        findings = [_f(), _f(rule="graph/cycle", loc="graph")]
        assert findings_to_sarif_json(findings) == findings_to_sarif_json(
            list(reversed(findings))
        )
        json.loads(findings_to_sarif_json(findings))  # must parse


class TestSuppressions:
    def test_split_location(self):
        assert split_location("src/x.py:12") == ("src/x.py", 12)
        assert split_location("graph") is None
        assert split_location("scenario 3, task T") is None

    def test_marker_suppresses_matching_finding(self, tmp_path: Path):
        mod = tmp_path / "m.py"
        mod.write_text(
            "import random\n"
            "def w():\n"
            "    return random.random()  # repro: ignore[lint/banned-random]\n"
        )
        markers = scan_suppressions([mod])
        assert len(markers) == 1
        finding = _f(
            rule="lint/banned-random", loc=f"{mod}:3", msg="direct random call"
        )
        assert apply_suppressions([finding], markers) == []

    def test_tail_segment_matches(self, tmp_path: Path):
        mod = tmp_path / "m.py"
        mod.write_text("x = 1  # repro: ignore[banned-random]\n")
        markers = scan_suppressions([mod])
        finding = _f(rule="lint/banned-random", loc=f"{mod}:1")
        assert apply_suppressions([finding], markers) == []

    def test_unused_marker_is_reported(self, tmp_path: Path):
        mod = tmp_path / "m.py"
        mod.write_text("x = 1  # repro: ignore[dataflow/unit-mix]\n")
        markers = scan_suppressions([mod])
        out = apply_suppressions([], markers)
        assert [f.rule for f in out] == [UNSUPPRESSED_IGNORE]
        assert out[0].severity == Severity.WARNING

    def test_docstring_mentions_are_not_markers(self, tmp_path: Path):
        mod = tmp_path / "m.py"
        mod.write_text(
            '"""Docs: use `# repro: ignore[dataflow/unit-mix]` inline."""\n'
            "x = 1\n"
        )
        assert scan_suppressions([mod]) == []

    def test_comma_separated_rule_list(self, tmp_path: Path):
        mod = tmp_path / "m.py"
        mod.write_text(
            "x = 1  # repro: ignore[dataflow/unit-mix, dataflow/unit-assign]\n"
        )
        (marker,) = scan_suppressions([mod])
        a = _f(rule="dataflow/unit-mix", loc=f"{mod}:1")
        b = _f(rule="dataflow/unit-assign", loc=f"{mod}:1")
        assert apply_suppressions([a, b], [marker]) == []


class TestBaseline:
    def test_round_trip(self, tmp_path: Path):
        path = tmp_path / "baseline.json"
        findings = [_f(), _f(rule="graph/cycle", loc="graph", msg="cyc")]
        write_baseline(path, findings)
        base = load_baseline(path)
        assert base == {fingerprint(f) for f in findings}
        assert filter_baselined(findings, base) == []

    def test_fingerprint_ignores_line_numbers(self):
        a = _f(loc="src/x.py:12")
        b = _f(loc="src/x.py:99")
        assert fingerprint(a) == fingerprint(b)

    def test_new_findings_survive_baseline(self, tmp_path: Path):
        path = tmp_path / "baseline.json"
        write_baseline(path, [_f()])
        base = load_baseline(path)
        fresh = _f(rule="dataflow/unit-arg", msg="new")
        assert filter_baselined([_f(), fresh], base) == [fresh]

    def test_baseline_file_is_byte_stable(self, tmp_path: Path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        findings = [_f(), _f(rule="graph/cycle", loc="graph")]
        write_baseline(p1, findings)
        write_baseline(p2, list(reversed(findings)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_committed_baseline_is_empty(self):
        repo = Path(__file__).resolve().parents[2]
        doc = json.loads((repo / "analysis-baseline.json").read_text())
        assert doc == {"findings": [], "version": 1}


class TestCatalog:
    def test_every_finding_rule_is_documented(self):
        catalog = rule_catalog()
        # All rules the engines can emit must carry a description.
        for rule_id, (severity, description) in catalog.items():
            assert "/" in rule_id
            assert isinstance(severity, Severity)
            assert description
        for expected in (
            "dataflow/unit-mix",
            "lint/banned-random",
            "lint/app-hardcode",
            "graph/cycle",
            UNSUPPRESSED_IGNORE,
        ):
            assert expected in catalog

    def test_docs_document_every_rule(self):
        repo = Path(__file__).resolve().parents[2]
        text = (repo / "docs" / "analysis.md").read_text()
        missing = [r for r in rule_catalog() if f"`{r}`" not in text]
        assert missing == []
