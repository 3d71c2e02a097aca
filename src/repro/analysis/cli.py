"""``python -m repro.analysis`` -- run the static-analysis suite.

By default three passes run:

* the AST lint over the ``repro`` package sources (or explicit paths),
* the whole-program unit inference over the same roots
  (``--no-dataflow`` skips it),
* the graph checker over every registered workload's flow graph on
  the Blackford platform (``--graph MODULE:CALLABLE`` checks one
  explicit graph instead).

Each source pass guards a bug class the repository has hit (see the
verdict table in ``docs/analysis.md``).

Findings on a line carrying a matching ``# repro: ignore[rule]``
comment are suppressed (stale markers are themselves flagged).  With
``--baseline FILE`` previously-accepted findings are subtracted, so
the exit status reflects *new* violations only; ``--write-baseline``
refreshes the file.  The exit status is nonzero when any remaining
finding reaches ``--fail-on`` severity (default: ``error``), making
the command directly usable as a CI gate and as a pre-commit hook.

Every run analyzes the whole tree: there is no result cache, so the
findings a pre-commit hook sees are the ones CI gates on.

Examples::

    python -m repro.analysis
    python -m repro.analysis src/repro --no-graph --format json
    python -m repro.analysis --format sarif > analysis.sarif
    python -m repro.analysis --baseline analysis-baseline.json
    python -m repro.analysis --graph mygraphs.py:build_graph --fail-on warning
    python -m repro.analysis schedcheck --apps stentboost,ultrasound --cores 8

The ``schedcheck`` subcommand runs the scenario-space schedulability
model checker over composite workload mixes instead of the default
suite (see :mod:`repro.analysis.schedcheck_cli`).
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import sys
from pathlib import Path
from typing import Callable, Sequence

from repro.analysis.astlint import iter_python_files, lint_paths
from repro.analysis.baseline import filter_baselined, load_baseline, write_baseline
from repro.analysis.catalog import rule_catalog
from repro.analysis.dataflow import run_dataflow
from repro.analysis.findings import (
    Finding,
    Severity,
    count_at_least,
    findings_to_json,
    format_findings,
)
from repro.analysis.graphcheck import (
    ALL_SCENARIO_IDS,
    check_flowgraph,
    scenario_ids_for,
)
from repro.analysis.rules import default_rules
from repro.analysis.sarif import findings_to_sarif_json
from repro.analysis.suppress import apply_suppressions, scan_suppressions
from repro.graph.flowgraph import FlowGraph

__all__ = ["build_parser", "main"]

#: Sentinel: check every graph in the workload registry.
WORKLOADS_GRAPH = "workloads"

DEFAULT_GRAPH = WORKLOADS_GRAPH
DEFAULT_PLATFORM = "repro.hw.spec:blackford"


def _load_factory(spec: str) -> Callable[[], object]:
    """Load ``module:callable`` or ``path/to/file.py:callable``."""
    target, sep, attr = spec.partition(":")
    if not sep or not attr:
        raise argparse.ArgumentTypeError(
            f"expected MODULE:CALLABLE or FILE.py:CALLABLE, got {spec!r}"
        )
    if target.endswith(".py") or "/" in target:
        module_spec = importlib.util.spec_from_file_location(
            "_repro_analysis_target", target
        )
        if module_spec is None or module_spec.loader is None:
            raise argparse.ArgumentTypeError(f"cannot load module from {target!r}")
        module = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(module)
    else:
        module = importlib.import_module(target)
    factory = getattr(module, attr, None)
    if not callable(factory):
        raise argparse.ArgumentTypeError(
            f"{target!r} has no callable {attr!r}"
        )
    return factory


def _default_lint_root() -> Path:
    """The installed ``repro`` package directory."""
    import repro

    return Path(repro.__file__).resolve().parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description=(
            "static-analysis suite: flow-graph invariants + AST lint + "
            "whole-program unit inference"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files/directories to analyze (default: the repro package)",
    )
    parser.add_argument(
        "--graph",
        default=DEFAULT_GRAPH,
        help=f"flow-graph factory MODULE:CALLABLE or FILE.py:CALLABLE "
        f"(default: {DEFAULT_GRAPH})",
    )
    parser.add_argument(
        "--platform",
        default=DEFAULT_PLATFORM,
        help=f"platform-spec factory (default: {DEFAULT_PLATFORM}); "
        "pass an empty string to skip resource-budget checks",
    )
    parser.add_argument(
        "--no-graph", action="store_true", help="skip the flow-graph checks"
    )
    parser.add_argument(
        "--no-lint", action="store_true", help="skip the AST lint"
    )
    parser.add_argument(
        "--no-dataflow",
        action="store_true",
        help="skip the whole-program unit inference",
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
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the full rule catalog and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "schedcheck":
        # Subcommand: the scenario-space schedulability checker.  A
        # plain positional would collide with the PATH arguments of
        # the default suite, so it is dispatched before parsing.
        from repro.analysis.schedcheck_cli import main as schedcheck_main

        return schedcheck_main(argv[1:])
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule_id, (severity, description) in rule_catalog().items():
            print(f"{rule_id:32s} {severity.name.lower():8s} {description}")
        return 0

    findings: list[Finding] = []
    roots = list(args.paths) or [_default_lint_root()]
    missing = [p for p in roots if not p.exists()]
    if missing:
        raise SystemExit(f"no such path: {', '.join(map(str, missing))}")

    if not args.no_lint:
        findings += lint_paths(roots, default_rules())
    if not args.no_dataflow:
        findings += run_dataflow(roots)

    if not args.no_graph:
        try:
            if args.graph == WORKLOADS_GRAPH:
                from repro.workloads import all_workloads

                # The scenario id range follows each workload's own
                # switch set rather than assuming the StentBoost eight.
                graphs = [
                    (wl.build_graph(), scenario_ids_for(wl.switch_names))
                    for wl in all_workloads()
                ]
            else:
                graphs = [(_load_factory(args.graph)(), ALL_SCENARIO_IDS)]
            platform_factory = (
                _load_factory(args.platform) if args.platform else None
            )
        except (argparse.ArgumentTypeError, ImportError) as exc:
            raise SystemExit(f"repro.analysis: error: {exc}") from exc
        platform = platform_factory() if platform_factory is not None else None
        for graph, scenario_ids in graphs:
            if not isinstance(graph, FlowGraph):
                raise SystemExit(
                    f"graph factory {args.graph!r} returned "
                    f"{type(graph).__name__}, expected FlowGraph"
                )
            findings += check_flowgraph(graph, platform, scenario_ids)

    # Inline suppressions apply to everything located at a path:line.
    markers = scan_suppressions(iter_python_files(roots))
    findings = apply_suppressions(findings, markers)

    if args.write_baseline is not None:
        write_baseline(args.write_baseline, findings)
        print(f"wrote {len(findings)} finding(s) to {args.write_baseline}")
        return 0

    if args.baseline is not None:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(f"repro.analysis: error: {exc}") from exc
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
