"""``python -m repro.analysis schedcheck`` -- the schedulability gate.

Runs the scenario-space model checker (:mod:`repro.analysis.schedcheck`)
over one application mix, or -- with ``--apps all`` / no ``--apps`` --
over the whole composite matrix: every registered workload alone,
every homogeneous pair and every heterogeneous pair.  Findings flow
through the same reporting machinery as the main suite (text / JSON /
SARIF output, committed baselines, ``--fail-on`` severity gate), so
the command drops into CI next to ``python -m repro.analysis``::

    python -m repro.analysis schedcheck --apps stentboost,stentboost --cores 8
    python -m repro.analysis schedcheck --apps all --format sarif
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

from repro.analysis.baseline import filter_baselined, load_baseline, write_baseline
from repro.analysis.catalog import rule_catalog
from repro.analysis.findings import (
    Finding,
    Severity,
    count_at_least,
    findings_to_json,
    format_findings,
)
from repro.analysis.sarif import findings_to_sarif_json
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
        "--platform",
        default="repro.hw.spec:blackford",
        help="platform-spec factory MODULE:CALLABLE "
        "(default: %(default)s)",
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
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help="subtract a committed baseline; only new findings remain",
    )
    parser.add_argument(
        "--write-baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the current findings as a baseline and exit 0",
    )
    parser.add_argument(
        "--fail-on",
        type=Severity.parse,
        default=Severity.ERROR,
        metavar="{error,warning,info}",
        help="minimum severity that makes the exit status nonzero "
        "(default: error)",
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
    from repro.analysis.cli import _load_factory
    from repro.workloads import workload_names

    try:
        platform = _load_factory(args.platform)()
    except (argparse.ArgumentTypeError, ImportError) as exc:
        raise SystemExit(f"repro.analysis schedcheck: error: {exc}") from exc

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
            report = check_schedulability(
                list(mix),
                platform,  # type: ignore[arg-type]
                cores=args.cores,
                rate_hz=args.rate_hz,
                report_cap=args.report_cap,
            )
        except KeyError as exc:
            raise SystemExit(
                f"repro.analysis schedcheck: error: {exc}"
            ) from exc
        findings += report.findings

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

    if args.write_baseline is not None:
        write_baseline(args.write_baseline, findings)
        print(f"wrote {len(findings)} finding(s) to {args.write_baseline}")
        return 0

    if args.baseline is not None:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(
                f"repro.analysis schedcheck: error: {exc}"
            ) from exc
        findings = filter_baselined(findings, baseline)

    if args.format == "json":
        print(findings_to_json(findings))
    elif args.format == "sarif":
        descriptions = {
            rule_id: description
            for rule_id, (_, description) in rule_catalog().items()
        }
        print(findings_to_sarif_json(findings, descriptions))
    else:
        print(format_findings(findings))

    return 1 if count_at_least(findings, args.fail_on) else 0
