"""End-to-end benchmark of the Triple-C reproduction.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload stentboost --seed 0
    python3 benchmarks/e2e/run.py --workload all --seed 0 --out results.json
    python3 benchmarks/e2e/run.py --workload stentboost --seed 0 --trace 1

Each metric prints as ``name value unit``; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` is the separate traced
run, which reports the per-layer metrics and writes
``<workload>.spans.jsonl`` and ``<workload>.layers.json`` under
``--trace-dir``.  The exit code is 0 only when every output check
passed.  ``--workload all`` runs each workload in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Scratch space of running workloads, removed as each run ends.
WORK = HERE / ".work"


def _parser(workloads: list[str]) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*workloads, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--seconds", type=float, default=None,
        help="timed phase length (default: run_seconds of BENCHMARK.json)",
    )
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--trace-dir", type=Path, default=HERE / "traces",
        help="where the traced run writes spans and layers.json",
    )
    p.add_argument("--out", type=Path, default=None, help="write every sample as JSON")
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input sizes; 'tiny' exists for the benchmark's own tests")
    return p


def _machine() -> dict[str, Any]:
    import numpy

    from repro.parallel import available_cpus

    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "available_cpus": available_cpus(),
    }


def _summary(result: dict[str, Any], declared: list[dict[str, Any]]) -> dict[str, Any]:
    metrics = result["metrics"]
    names = [d["name"] for d in declared]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise SystemExit(
            f"metrics differ from BENCHMARK.json: missing {missing}, undeclared {extra}"
        )
    failed = min(len(result["failures"]), result["attempted"])
    return {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {
            d["name"]: {"value": float(metrics[d["name"]]), "unit": d["unit"]}
            for d in declared
        },
    }


def _stop_resource_tracker() -> None:
    """End the tracker process that shared-memory payloads start.

    The pool workers have been joined by now, but multiprocessing
    leaves its resource tracker to outlive the interpreter; stopping it
    here closes its pipe and waits until it has exited.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_one(args: argparse.Namespace, bench: dict[str, Any]) -> int:
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work_dir)
    # The pool workers of the cold-cache call are the only threads: a
    # BLAS thread pool, set before numpy loads, would compete with them
    # and stall whenever the machine takes a core away.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import stages

    try:
        result = stages.run_workload(
            args.workload,
            args.seed,
            args.seconds,
            args.scale,
            work_dir,
            args.trace_dir if args.trace else None,
        )
    finally:
        _stop_resource_tracker()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    summary = _summary(result, bench["per_layer" if args.trace else "end_to_end"])
    for failure in result["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    if args.out is not None:
        result["machine"] = _machine()
        args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    for name, m in summary["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def run_all(args: argparse.Namespace, workloads: list[str]) -> int:
    """Each workload in a fresh interpreter, so set-up and memory are
    per workload."""
    docs: dict[str, Any] = {}
    summaries: dict[str, Any] = {}
    code = 0
    outs = WORK / f"all-{os.getpid()}"
    outs.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        out = outs / f"{workload}.json"
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--trace-dir", str(args.trace_dir), "--scale", args.scale,
            "--out", str(out),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"{workload} {line}")
        code = code or proc.returncode
        if proc.returncode in (0, 1) and lines:
            summaries[workload] = json.loads(lines[-1])
            docs[workload] = json.loads(out.read_text())
    shutil.rmtree(outs, ignore_errors=True)
    try:
        outs.parent.rmdir()
    except OSError:
        pass  # another run still uses it
    if args.out is not None:
        args.out.write_text(json.dumps({"workloads": docs}, indent=2, sort_keys=True) + "\n")
    print(
        json.dumps(
            {
                "correct": code == 0 and len(summaries) == len(workloads),
                "attempted": sum(s["attempted"] for s in summaries.values()),
                "failed": sum(s["failed"] for s in summaries.values()),
                "metrics": {w: s["metrics"] for w, s in summaries.items()},
            }
        )
    )
    return code or (0 if len(summaries) == len(workloads) else 1)


def main(argv: list[str] | None = None) -> int:
    bench_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not bench_path.is_file():
        print(f"error: no repro sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    bench = json.loads(bench_path.read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    args = _parser(workloads).parse_args(argv)
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.workload == "all":
        return run_all(args, workloads)
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
