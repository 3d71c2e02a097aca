"""Project lint rules, one per bug class the repository has hit.

Each rule keeps a recorded mutant that only it catches (see the
per-pass verdict table in ``docs/analysis.md``):

``lint/banned-random``
    All randomness must flow through :func:`repro.util.rng.rng_stream`
    named streams; a direct ``np.random.*`` / ``random.*`` call breaks
    the bit-for-bit reproducibility of every figure in EXPERIMENTS.md.
``lint/unit-mix``
    Decimal (``KB``/``MB``/``GB``) and binary (``KIB``/``MIB``/``GIB``)
    byte families may not meet in one expression; conversions between
    the Table 1 (binary) and Fig. 4 (decimal) families belong in
    :mod:`repro.util.units` helpers, where the factor is explicit.
``lint/app-hardcode``
    Application code resolves workloads through the
    :mod:`repro.workloads` registry; importing the StentBoost graph
    builder (``build_stentboost_graph`` / ``repro.graph.stentboost``)
    anywhere else hard-wires one application into a layer that is
    supposed to serve every registered workload.  The graph package
    itself and the registry definitions are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.astlint import LintContext, LintRule
from repro.analysis.findings import Severity

__all__ = [
    "BannedRandomRule",
    "UnitMixRule",
    "AppHardcodeRule",
    "default_rules",
]


def _path_endswith(path: str, suffixes: tuple[str, ...]) -> bool:
    posix = Path(path).as_posix()
    return any(posix.endswith(s) for s in suffixes)


class BannedRandomRule(LintRule):
    """No direct ``np.random.*`` / ``random.*`` calls outside util/rng."""

    rule_id = "lint/banned-random"

    #: Files allowed to touch the raw generators (the stream factory).
    allowed_files: tuple[str, ...] = ("util/rng.py",)

    def __init__(self, allowed_files: tuple[str, ...] | None = None) -> None:
        if allowed_files is not None:
            self.allowed_files = allowed_files

    def applies_to(self, path: str) -> bool:
        return not _path_endswith(path, self.allowed_files)

    def on_call(self, ctx: LintContext, node: ast.Call) -> None:
        dotted = ctx.dotted_name(node.func)
        if dotted is None:
            return
        if dotted.startswith("numpy.random.") or dotted == "numpy.random":
            ctx.report(
                self.rule_id,
                Severity.ERROR,
                node,
                f"direct call to {dotted}; derive a generator with "
                "repro.util.rng.rng_stream instead",
            )
        elif dotted == "random" or dotted.startswith("random."):
            ctx.report(
                self.rule_id,
                Severity.ERROR,
                node,
                f"direct call to stdlib {dotted}; derive a generator with "
                "repro.util.rng.rng_stream instead",
            )


class UnitMixRule(LintRule):
    """No mixing of decimal and binary byte units in one expression."""

    rule_id = "lint/unit-mix"

    decimal: frozenset[str] = frozenset({"KB", "MB", "GB"})
    binary: frozenset[str] = frozenset({"KIB", "MIB", "GIB"})

    #: The conversion boundary itself is exempt.
    allowed_files: tuple[str, ...] = ("util/units.py",)

    def applies_to(self, path: str) -> bool:
        return not _path_endswith(path, self.allowed_files)

    def _unit_names(self, node: ast.AST) -> set[str]:
        names: set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
        return names & (self.decimal | self.binary)

    def on_binop(self, ctx: LintContext, node: ast.BinOp) -> None:
        units = self._unit_names(node)
        dec = sorted(units & self.decimal)
        binr = sorted(units & self.binary)
        if dec and binr:
            ctx.report(
                self.rule_id,
                Severity.ERROR,
                node,
                f"expression mixes decimal {dec} with binary {binr} byte "
                "units; lift the conversion into repro.util.units",
            )


class AppHardcodeRule(LintRule):
    """No direct StentBoost graph imports outside workloads/graph."""

    rule_id = "lint/app-hardcode"

    #: The hard-wired module and its builder symbol.
    _MODULE = "repro.graph.stentboost"
    _SYMBOL = "build_stentboost_graph"

    def __init__(self, allowed_dirs: tuple[str, ...] | None = None) -> None:
        #: Directory components whose files may import the builder
        #: directly: the graph package (it *defines* the builder) and
        #: the registry (its entries wrap the direct imports).
        self.allowed_dirs: tuple[str, ...] = (
            allowed_dirs if allowed_dirs is not None else ("graph", "workloads")
        )

    def applies_to(self, path: str) -> bool:
        parts = Path(path).parts
        return not any(d in parts for d in self.allowed_dirs)

    def on_import(
        self, ctx: LintContext, node: ast.Import | ast.ImportFrom
    ) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if (
                    alias.name == self._MODULE
                    or alias.name.startswith(self._MODULE + ".")
                ):
                    self._flag(ctx, node, alias.name)
            return
        module = node.module or ""
        if module == self._MODULE or module.startswith(self._MODULE + "."):
            self._flag(ctx, node, module)
            return
        for alias in node.names:
            if alias.name == self._SYMBOL:
                self._flag(ctx, node, f"{module}.{self._SYMBOL}")

    def _flag(
        self,
        ctx: LintContext,
        node: ast.Import | ast.ImportFrom,
        what: str,
    ) -> None:
        ctx.report(
            self.rule_id,
            Severity.ERROR,
            node,
            f"direct import of {what} outside repro/graph/ and "
            "repro/workloads/; resolve the application through "
            "repro.workloads.get_workload instead",
        )


def default_rules() -> list[LintRule]:
    """Fresh instances of every project rule (the CLI's default set)."""
    return [
        BannedRandomRule(),
        UnitMixRule(),
        AppHardcodeRule(),
    ]
