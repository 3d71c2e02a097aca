"""``python -m repro.analysis`` -- run the static-analysis suite.

Three passes run:

* the AST lint over the ``repro`` package sources (or explicit paths),
* the whole-program unit inference over the same roots,
* the graph checks over every registered workload's flow graph
  (``--no-graph`` skips them, as the pre-commit hook does).

Each pass and rule guards a bug the tests miss (see the verdict table
in ``docs/analysis.md``).  The findings are printed as text, sorted
by (path, line, rule); the exit status is 1 when any of them is an
``error``, so the command is the CI gate and the pre-commit hook as
it stands.

Every run analyzes the whole tree: there is no result cache, so the
findings a pre-commit hook sees are the ones CI gates on.

Examples::

    python -m repro.analysis
    python -m repro.analysis src/repro --no-graph
    python -m repro.analysis schedcheck --apps stentboost,ultrasound --cores 8

The ``schedcheck`` subcommand runs the scenario-space schedulability
model checker over composite workload mixes instead of the default
suite (see :mod:`repro.analysis.schedcheck_cli`).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.astlint import lint_paths
from repro.analysis.dataflow import run_dataflow
from repro.analysis.findings import Finding, report
from repro.analysis.graphcheck import check_flowgraph, scenario_ids_for
from repro.analysis.rules import default_rules

__all__ = ["build_parser", "run", "main"]


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
        "--no-graph", action="store_true", help="skip the flow-graph checks"
    )
    return parser


def run(paths: Sequence[Path] = (), graphs: bool = True) -> list[Finding]:
    """Every finding of one run over ``paths`` (default: ``repro``)."""
    roots = list(paths) or [_default_lint_root()]
    missing = [p for p in roots if not p.exists()]
    if missing:
        raise SystemExit(f"no such path: {', '.join(map(str, missing))}")

    findings = lint_paths(roots, default_rules())
    findings += run_dataflow(roots)
    if graphs:
        from repro.workloads import all_workloads

        # The scenario id range follows each workload's own switch set
        # rather than assuming the StentBoost eight.
        for wl in all_workloads():
            findings += check_flowgraph(
                wl.build_graph(), scenario_ids_for(wl.switch_names)
            )
    return findings


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "schedcheck":
        # Subcommand: the scenario-space schedulability checker.  A
        # plain positional would collide with the PATH arguments of
        # the default suite, so it is dispatched before parsing.
        from repro.analysis.schedcheck_cli import main as schedcheck_main

        return schedcheck_main(argv[1:])
    args = build_parser().parse_args(argv)
    return report(run(args.paths, graphs=not args.no_graph))
