"""``python -m repro.analysis schedcheck`` -- the schedulability gate.

Runs the scenario-space model checker (:mod:`repro.analysis.schedcheck`)
over one application mix, or -- with ``--apps all`` / no ``--apps`` --
over the whole composite matrix: every registered workload alone,
every homogeneous pair and every heterogeneous pair, on the Blackford
platform.  It ends like the main suite: the findings are printed as
text and the exit status is 1 when any of them is an ``error``, so
the command drops into CI next to ``python -m repro.analysis``.  A
mix it cannot model (an unknown workload name, a workload whose
activation order violates one of its edges) ends the run with one
``error:`` line and a nonzero exit instead::

    python -m repro.analysis schedcheck --apps stentboost,stentboost --cores 8
    python -m repro.analysis schedcheck --envelope sched-envelope.json

Every run recomputes the matrix; there is no result cache, whose key
could miss a source the verdict depends on.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.findings import Finding, report
from repro.analysis.schedcheck import (
    DEFAULT_REPORT_CAP,
    check_schedulability,
    compute_envelope,
)
from repro.util.units import HZ_VIDEO

__all__ = ["build_parser", "matrix_mixes", "main"]

#: Sentinel for the full composite matrix.
ALL_APPS = "all"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis schedcheck",
        description=(
            "scenario-space schedulability model checker for composite "
            "multi-workload graphs"
        ),
    )
    parser.add_argument(
        "--apps",
        default=ALL_APPS,
        help="comma-separated workload names, one per concurrent "
        "instance (e.g. stentboost,ultrasound); 'all' checks every "
        "workload alone plus every pair (default: all)",
    )
    parser.add_argument(
        "--cores",
        type=int,
        default=None,
        help="core count to check against (default: the platform's)",
    )
    parser.add_argument(
        "--rate-hz",
        type=float,
        default=HZ_VIDEO,
        help="frame rate defining the period (default: %(default)s)",
    )
    parser.add_argument(
        "--report-cap",
        type=int,
        default=DEFAULT_REPORT_CAP,
        help="most-probable violations reported per rule "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--envelope",
        type=Path,
        default=None,
        metavar="FILE",
        help="also write the per-workload feasibility envelope JSON "
        "(consumed by the fleet admission controller)",
    )
    return parser


def matrix_mixes(names: Sequence[str]) -> list[tuple[str, ...]]:
    """The composite matrix: singles, homogeneous and hetero pairs."""
    mixes: list[tuple[str, ...]] = [(n,) for n in names]
    for i, a in enumerate(names):
        for b in names[i:]:
            mixes.append((a, b))
    return mixes


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    # Late import keeps ``--help`` fast and mirrors the lazy workload
    # resolution of the main CLI.
    from repro.hw.spec import blackford
    from repro.workloads import workload_names

    platform = blackford()

    if args.apps == ALL_APPS:
        mixes = matrix_mixes(workload_names())
    else:
        names = tuple(a.strip() for a in args.apps.split(",") if a.strip())
        if not names:
            raise SystemExit(
                "repro.analysis schedcheck: error: --apps needs at "
                "least one workload name"
            )
        mixes = [names]

    findings: list[Finding] = []
    for mix in mixes:
        try:
            checked = check_schedulability(
                list(mix),
                platform,  # type: ignore[arg-type]
                cores=args.cores,
                rate_hz=args.rate_hz,
                report_cap=args.report_cap,
            )
        except (KeyError, ValueError) as exc:
            raise SystemExit(
                f"repro.analysis schedcheck: error: {exc}"
            ) from exc
        findings += checked.findings

    if args.envelope is not None:
        envelope = compute_envelope(
            platform, cores=args.cores, rate_hz=args.rate_hz
        )
        args.envelope.write_text(
            json.dumps(envelope.to_doc(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(
            f"wrote feasibility envelope to {args.envelope}",
            file=sys.stderr,
        )

    return report(findings)
