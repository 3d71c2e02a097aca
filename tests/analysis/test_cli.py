"""End-to-end tests of ``python -m repro.analysis`` (exit codes, output)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.findings import Severity, count_at_least

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
BAD_GRAPH = FIXTURES / "bad_graph.py"


def run_cli(*args: str) -> subprocess.CompletedProcess[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=120,
    )


class TestRepoSelfCheck:
    def test_default_run_is_clean(self, repo_analysis):
        """Tier-2 gate: lint over src/repro + graph checks over the
        StentBoost graph exit 0 (INFO findings are expected, ERRORs not)."""
        returncode, findings = repo_analysis
        assert returncode == 0, [f.render() for f in findings]
        # The expected L2 overflows are reported but do not fail the run.
        assert any(f.rule == "graph/buffer-budget" for f in findings)

    def test_fail_on_info_raises_exit_code(self, repo_analysis):
        # ``--fail-on info`` exits 1 exactly when this count is nonzero
        # (the flag's threshold is exercised on a fixture in
        # test_cli_reporting.TestSuppressionWorkflow).
        _, findings = repo_analysis
        assert count_at_least(findings, Severity.INFO) > 0


class TestLintFixtures:
    def test_banned_random_fixture_fails(self):
        proc = run_cli(str(FIXTURES / "bad_rng.py"), "--no-graph")
        assert proc.returncode == 1
        assert "lint/banned-random" in proc.stdout
        assert "bad_rng.py:7" in proc.stdout

    def test_json_format(self):
        proc = run_cli(str(FIXTURES / "bad_rng.py"), "--no-graph", "--format", "json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload[0]["rule"] == "lint/banned-random"
        assert payload[0]["severity"] == "error"


class TestGraphFixtures:
    def test_cyclic_graph_fails(self):
        proc = run_cli(
            "--no-lint", "--no-dataflow", "--graph", f"{BAD_GRAPH}:build_cyclic_graph"
        )
        assert proc.returncode == 1
        assert "graph/cycle" in proc.stdout
        assert "cycle" in proc.stdout.lower()

    def test_uncovered_switch_state_fails(self):
        proc = run_cli(
            "--no-lint", "--no-dataflow", "--graph", f"{BAD_GRAPH}:build_uncovered_graph"
        )
        assert proc.returncode == 1
        assert "graph/switch-coverage" in proc.stdout

    def test_stentboost_graph_alone_passes(self):
        proc = run_cli("--no-lint", "--no-dataflow")
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestCliSurface:
    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in (
            "lint/banned-random",
            "lint/unit-mix",
            "lint/app-hardcode",
        ):
            assert rule_id in proc.stdout

    def test_missing_path_errors(self):
        proc = run_cli("does/not/exist.py", "--no-graph")
        assert proc.returncode != 0
        assert "no such path" in proc.stderr
