"""CLI surface of the unit-inference pass: exit status and output order.

Subprocess-level tests of ``python -m repro.analysis`` on the seeded
unit fixture and the other lint fixtures.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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


class TestDataflowFixtures:
    def test_unit_fixture_fails_with_dataflow_rules(self):
        proc = run_cli(str(FIXTURES / "bad_units.py"), "--no-graph")
        assert proc.returncode == 1
        assert "dataflow/unit-mix" in proc.stdout
        assert "bad_units.py:15" in proc.stdout

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
