"""Tests of the end-to-end benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` (not part
of tier 1).  Every workload runs at the test-only ``tiny`` scale.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(tmp_path: Path, *args: str) -> tuple[subprocess.CompletedProcess, dict]:
    tmp_path.mkdir(parents=True, exist_ok=True)
    out = tmp_path / "out.json"
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--scale", "tiny",
            "--seconds", "1", "--out", str(out), *args,
        ],
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    return proc, json.loads(out.read_text()) if out.exists() else {}


def _printed(stdout: str) -> tuple[dict[str, str], dict]:
    lines = stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        name, value, unit = line.split(" ")
        float(value)
        printed[name] = unit
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_exactly_the_declared_metrics(tmp_path, workload, trace):
    trace_dir = tmp_path / "trace"
    proc, _ = _run(
        tmp_path, "--workload", workload, "--seed", "0",
        "--trace", str(trace), "--trace-dir", str(trace_dir),
    )
    assert proc.returncode == 0, proc.stderr
    printed, summary = _printed(proc.stdout)
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert printed == {m["name"]: m["unit"] for m in declared}
    assert all(NAME.fullmatch(name) for name in printed)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    if trace:
        assert (trace_dir / f"{workload}.spans.jsonl").stat().st_size > 0
        layers = json.loads((trace_dir / f"{workload}.layers.json").read_text())
        assert layers["frame_loop_coverage"] >= 0.95


@pytest.mark.skipif(not Path("/proc/self").is_dir(), reason="needs /proc")
def test_leaves_no_process_running():
    # The cold-cache call's shared-memory payload starts multiprocessing's
    # resource tracker, which would otherwise outlive the run.
    proc = subprocess.Popen(
        [
            sys.executable, str(HERE / "run.py"), "--scale", "tiny", "--seconds", "1",
            "--workload", "stentboost", "--seed", "0",
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert proc.wait(timeout=600) == 0
    left = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                if os.getsid(int(entry.name)) == proc.pid:
                    left.append(entry.name)
            except ProcessLookupError:
                pass
    assert left == []


def test_seed_changes_inputs_not_metric_set(tmp_path):
    proc0, doc0 = _run(tmp_path / "a", "--workload", "stentboost", "--seed", "0")
    proc1, doc1 = _run(tmp_path / "b", "--workload", "stentboost", "--seed", "1")
    assert proc0.returncode == 0 and proc1.returncode == 0, proc0.stderr + proc1.stderr
    assert set(doc0["digests"]) == set(doc1["digests"])
    # The engine replays the fixed reference deployment; the profiled
    # corpus and the fleet traces come from the seed.
    for key, digest in doc0["digests"].items():
        assert (digest == doc1["digests"][key]) == key.startswith("frames."), key
    assert _printed(proc0.stdout)[0] == _printed(proc1.stdout)[0]


def test_layer_shares_separate_imaging_from_synthesis(tmp_path):
    shares = {}
    for workload in ("stentboost", "robotvision"):
        proc, _ = _run(
            tmp_path / workload, "--workload", workload, "--seed", "0",
            "--trace", "1", "--trace-dir", str(tmp_path / "trace"),
        )
        assert proc.returncode == 0, proc.stderr
        shares[workload] = _printed(proc.stdout)[1]["metrics"]
    value = lambda w, m: shares[w][m]["value"]  # noqa: E731
    assert value("stentboost", "imaging.frame_loop_share") >= 0.6
    assert value("robotvision", "imaging.frame_loop_share") <= 0.3
    assert (
        value("robotvision", "synthetic.frame_loop_share")
        > value("robotvision", "imaging.frame_loop_share")
    )
    assert value("stentboost", "imaging.share") > value("robotvision", "imaging.share")


def test_refit_is_checked_against_its_own_set_up_model(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import stages

    inputs = stages.set_up("stentboost", 0, stages.SCALES["tiny"])
    run = stages.Run("stentboost", 0, tmp_path, inputs)
    # The serialized models tell the online-update flag apart.
    assert run.models["fit"] != run.models["fit_online"]
    run.fit(0, stages.NULL)
    assert run.failures == []
    # A refit that yields the other model fails its check.
    run.models["fit_online"] = run.models["fit"]
    run.fit(1, stages.NULL)
    assert run.failures == ["fit_online: refit differs from the set-up model"]


def test_wrong_golden_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    # run.main rewrites these; monkeypatch restores them afterwards.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import run
    import stages

    wrong = {"traces": "0" * 64, "frames.managed": "0" * 64, "fleet": "0" * 64}
    monkeypatch.setattr(stages, "load_golden", lambda: {"tiny": {"stentboost": wrong}})
    code = run.main(
        ["--workload", "stentboost", "--seed", "0", "--scale", "tiny",
         "--seconds", "1", "--trace", "1", "--trace-dir", str(tmp_path / "trace")]
    )
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not summary["correct"] and summary["failed"] == 3
    assert stages.imaging_restored()
