"""Shared fixtures for the analysis tests."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.findings import Finding, Severity

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def repo_analysis() -> tuple[int, list[Finding]]:
    """Exit code and findings of one default ``python -m repro.analysis``
    run over the repository (JSON output).

    The full run takes several seconds, so every repository self-check
    shares it.  A self-check about a flag (``--fail-on``,
    ``--baseline``, ``--format sarif``) asserts here what the flag
    concludes from these findings; the flag itself is exercised on the
    fixture files.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=120,
    )
    assert proc.returncode in (0, 1), proc.stderr
    findings = [
        Finding(
            rule=f["rule"],
            severity=Severity.parse(f["severity"]),
            location=f["location"],
            message=f["message"],
        )
        for f in json.loads(proc.stdout)
    ]
    return proc.returncode, findings
