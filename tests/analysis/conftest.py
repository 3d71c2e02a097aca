"""Shared fixtures for the analysis tests."""

from __future__ import annotations

import contextlib
import io

import pytest

from repro.analysis.cli import run
from repro.analysis.findings import Finding, report


@pytest.fixture(scope="session")
def repo_analysis() -> tuple[int, list[Finding]]:
    """Exit code and findings of one default ``python -m repro.analysis``
    run over the repository, taken in-process.

    The full run takes a few seconds, so every repository self-check
    shares it.  The exit code comes from :func:`report`, the function
    the CLI ends in.
    """
    findings = run()
    with contextlib.redirect_stdout(io.StringIO()):
        returncode = report(findings)
    return returncode, findings
