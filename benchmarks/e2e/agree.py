"""Compare two sets of benchmark runs against the bounds of BENCHMARK.json.

    python3 benchmarks/e2e/agree.py A B

``A`` and ``B`` are each a result file written by ``run.py --out``
(one workload, or ``--workload all``) or a directory of such files:
one set of runs.  For every (workload, end-to-end metric) it prints
both medians and quartiles over the set's runs and a verdict:

``agree``       both spreads are within the metric's bound and the
                medians differ by no more than the bound;
``differs``     both spreads are within the bound, the medians are not;
``unresolved``  a set's spread -- the distance between its quartiles
                over its median -- is wider than the bound.

``setup_s`` is judged on its medians alone: a run sets up only a few
times, so its spread is not held to the bound.  The exit code is 0
only when every row agrees.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]


def load_set(path: Path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per untraced run in ``path``."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    values: dict[tuple[str, str], list[float]] = {}
    for file in files:
        doc = json.loads(file.read_text(encoding="utf-8"))
        runs = doc["workloads"].values() if "workloads" in doc else [doc]
        for run in runs:
            if run.get("traced"):
                continue
            for name, value in run["metrics"].items():
                values.setdefault((run["workload"], name), []).append(float(value))
    return values


def describe(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles (both equal the value for a single run)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(metric: str, a: list[float], b: list[float], bound: float) -> str:
    (ma, a1, a3), (mb, b1, b3) = describe(a), describe(b)
    wide = (a3 - a1) / abs(ma) > bound or (b3 - b1) / abs(mb) > bound
    if wide and metric != "setup_s":
        return "unresolved"
    return "agree" if abs(mb - ma) / abs(ma) <= bound else "differs"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    bench: dict[str, Any] = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    set_a, set_b = (load_set(Path(p)) for p in argv)
    print(
        f"{'workload':12} {'metric':28} {'median A':>12} {'q1..q3 A':>23} "
        f"{'median B':>12} {'q1..q3 B':>23} {'bound':>6}  verdict"
    )
    all_agree = True
    for key in sorted(set_a.keys() | set_b.keys()):
        workload, metric = key
        if metric not in bounds:
            continue
        if key not in set_a or key not in set_b:
            print(f"{workload:12} {metric:28} missing from {'A' if key not in set_a else 'B'}")
            all_agree = False
            continue
        a, b = set_a[key], set_b[key]
        (ma, a1, a3), (mb, b1, b3) = describe(a), describe(b)
        v = verdict(metric, a, b, bounds[metric])
        all_agree = all_agree and v == "agree"
        print(
            f"{workload:12} {metric:28} {ma:12.5g} {a1:11.5g}..{a3:<10.5g} "
            f"{mb:12.5g} {b1:11.5g}..{b3:<10.5g} {bounds[metric]:6.3f}  {v}"
        )
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
