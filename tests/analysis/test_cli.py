"""End-to-end tests of ``python -m repro.analysis`` (exit codes, output)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis.findings import Severity, report
from repro.analysis.graphcheck import check_flowgraph, scenario_ids_for
from repro.workloads import get_workload

from tests.analysis.fixtures.bad_graph import (
    build_cyclic_graph,
    build_uncovered_graph,
)

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


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
        """Tier-2 gate: lint and unit inference over src/repro plus the
        graph checks over every registered workload exit 0."""
        returncode, findings = repo_analysis
        assert returncode == 0, [f.render() for f in findings]
        assert [f for f in findings if f.severity is Severity.ERROR] == []


class TestLintFixtures:
    def test_banned_random_fixture_fails(self):
        proc = run_cli(str(FIXTURES / "bad_rng.py"), "--no-graph")
        assert proc.returncode == 1
        assert "lint/banned-random" in proc.stdout
        assert "bad_rng.py:7" in proc.stdout


class TestGraphFixtures:
    """The broken fixture graphs fail the gate the CLI ends in."""

    def test_cyclic_graph_fails(self, capsys):
        assert report(check_flowgraph(build_cyclic_graph())) == 1
        out = capsys.readouterr().out
        # A cycle among co-active tasks breaks every activation order.
        assert "graph/switch-coverage" in out
        assert "violates dependency" in out

    def test_uncovered_switch_state_fails(self, capsys):
        assert report(check_flowgraph(build_uncovered_graph())) == 1
        assert "graph/switch-coverage" in capsys.readouterr().out

    def test_stentboost_graph_alone_passes(self, capsys):
        wl = get_workload("stentboost")
        findings = check_flowgraph(
            wl.build_graph(), scenario_ids_for(wl.switch_names)
        )
        assert report(findings) == 0, capsys.readouterr().out


class TestCliSurface:
    def test_missing_path_errors(self):
        proc = run_cli("does/not/exist.py", "--no-graph")
        assert proc.returncode != 0
        assert "no such path" in proc.stderr
