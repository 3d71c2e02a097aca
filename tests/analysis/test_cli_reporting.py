"""CLI surface of the unit-inference pass: SARIF, baseline, suppressions.

Subprocess-level tests of ``python -m repro.analysis`` covering the
reporting features on top of the lint and unit-inference passes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.baseline import filter_baselined, load_baseline
from repro.analysis.findings import Severity, count_at_least
from repro.analysis.sarif import findings_to_sarif_json

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def run_cli(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )


class TestDataflowFixtures:
    def test_unit_fixture_fails_with_dataflow_rules(self):
        proc = run_cli(str(FIXTURES / "bad_units.py"), "--no-graph")
        assert proc.returncode == 1
        assert "dataflow/unit-mix" in proc.stdout
        assert "bad_units.py:15" in proc.stdout

    def test_no_dataflow_flag_skips_the_pass(self):
        proc = run_cli(
            str(FIXTURES / "bad_units.py"), "--no-graph", "--no-dataflow"
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "dataflow/" not in proc.stdout

    def test_output_order_is_byte_stable(self):
        args = (
            str(FIXTURES / "bad_units.py"),
            str(FIXTURES / "bad_rng.py"),
            str(FIXTURES / "app_hardcoded.py"),
            "--no-graph",
        )
        assert run_cli(*args).stdout == run_cli(*args).stdout
        lines = [
            ln for ln in run_cli(*args).stdout.splitlines() if ":" in ln
        ]
        assert lines == sorted(lines)


class TestSarifOutput:
    def test_sarif_is_valid_and_fails_on_errors(self):
        proc = run_cli(
            str(FIXTURES / "bad_units.py"), "--no-graph", "--format", "sarif"
        )
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-2.1.0.json")
        results = doc["runs"][0]["results"]
        assert any(r["ruleId"] == "dataflow/unit-mix" for r in results)
        assert all(r["level"] in ("note", "warning", "error") for r in results)

    def test_default_repo_sarif_has_no_errors(self, repo_analysis):
        # SARIF level "error" is exactly severity ERROR (the mapping is
        # exercised on a fixture by test_sarif_is_valid_and_fails_on_errors).
        returncode, findings = repo_analysis
        assert returncode == 0
        doc = json.loads(findings_to_sarif_json(findings, {}))
        levels = {r["level"] for r in doc["runs"][0]["results"]}
        assert "error" not in levels

    def test_rules_metadata_present(self):
        proc = run_cli(
            str(FIXTURES / "bad_rng.py"),
            "--no-graph",
            "--format",
            "sarif",
        )
        doc = json.loads(proc.stdout)
        rules = doc["runs"][0]["tool"]["driver"]["rules"]
        ids = {r["id"] for r in rules}
        emitted = {r["ruleId"] for r in doc["runs"][0]["results"]}
        assert emitted <= ids  # every result's ruleId is declared


class TestBaselineWorkflow:
    def test_write_then_check_is_clean(self, tmp_path: Path):
        baseline = tmp_path / "baseline.json"
        write = run_cli(
            str(FIXTURES / "bad_units.py"),
            "--no-graph",
            "--write-baseline",
            str(baseline),
        )
        assert write.returncode == 0, write.stdout + write.stderr
        check = run_cli(
            str(FIXTURES / "bad_units.py"),
            "--no-graph",
            "--baseline",
            str(baseline),
        )
        assert check.returncode == 0, check.stdout + check.stderr

    def test_new_violation_escapes_baseline(self, tmp_path: Path):
        baseline = tmp_path / "baseline.json"
        run_cli(
            str(FIXTURES / "bad_units.py"),
            "--no-graph",
            "--write-baseline",
            str(baseline),
        )
        proc = run_cli(
            str(FIXTURES / "bad_units.py"),
            str(FIXTURES / "bad_rng.py"),
            "--no-graph",
            "--baseline",
            str(baseline),
        )
        assert proc.returncode == 1
        assert "lint/banned-random" in proc.stdout
        assert "dataflow/unit-mix" not in proc.stdout  # baselined away

    def test_repo_passes_with_committed_empty_baseline(self, repo_analysis):
        # ``--baseline`` subtracts exactly what filter_baselined does
        # (the flag is exercised on fixtures by the two tests above).
        _, findings = repo_analysis
        baseline = load_baseline(REPO / "analysis-baseline.json")
        remaining = filter_baselined(findings, baseline)
        assert count_at_least(remaining, Severity.ERROR) == 0


class TestSuppressionWorkflow:
    def test_inline_suppression_silences_finding(self, tmp_path: Path):
        mod = tmp_path / "suppressed.py"
        mod.write_text(
            "from repro.util.quantity import KBytes, Milliseconds\n"
            "\n"
            "\n"
            "def total(latency_ms: Milliseconds, payload_kb: KBytes) -> float:\n"
            "    return latency_ms + payload_kb  # repro: ignore[dataflow/unit-mix]\n"
        )
        proc = run_cli(str(mod), "--no-graph")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "unit-mix" not in proc.stdout

    def test_unused_suppression_is_flagged(self, tmp_path: Path):
        mod = tmp_path / "stale.py"
        mod.write_text("X = 1  # repro: ignore[dataflow/unit-mix]\n")
        proc = run_cli(str(mod), "--no-graph", "--fail-on", "warning")
        assert proc.returncode == 1
        assert "analysis/unsuppressed-ignore" in proc.stdout

    def test_lint_rules_are_suppressible_too(self, tmp_path: Path):
        mod = tmp_path / "rng.py"
        mod.write_text(
            "import random\n"
            "\n"
            "x = random.random()  # repro: ignore[lint/banned-random]\n"
        )
        proc = run_cli(str(mod), "--no-graph")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "banned-random" not in proc.stdout


class TestListRules:
    def test_catalog_covers_dataflow_and_meta_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in (
            "dataflow/unit-mix",
            "dataflow/unit-arg",
            "dataflow/unit-assign",
            "dataflow/unit-return",
            "graph/bandwidth-budget",
            "analysis/unsuppressed-ignore",
        ):
            assert rule_id in proc.stdout
