"""A small visitor-based AST lint framework for project rules.

The framework does the generic work -- parsing, walking, import-alias
resolution -- and dispatches events to :class:`LintRule` objects,
which only contain the project-specific judgement.  Rules receive a :class:`LintContext` describing where the
walker currently is and append :class:`Finding` values to it.

Event hooks a rule may implement (all optional):

``on_module(ctx, node)``
    Once per file, after imports were indexed.
``on_import(ctx, node)``
    For each ``import`` / ``from ... import`` statement.
``on_call(ctx, node)``
    For each function call; ``ctx.dotted_name(node.func)`` resolves
    the callee through the module's import aliases.
``on_binop(ctx, node)``
    For each *outermost* binary-operator expression (nested ``BinOp``
    children are not re-dispatched, so expression-level rules see
    each expression exactly once).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.findings import Finding, Severity

__all__ = [
    "LintContext",
    "LintRule",
    "lint_source",
    "lint_file",
    "lint_paths",
    "iter_python_files",
]


class LintContext:
    """Per-file walking state handed to every rule hook."""

    def __init__(self, path: str, tree: ast.Module) -> None:
        self.path = path
        self.tree = tree
        self.findings: list[Finding] = []
        #: local name -> absolute dotted module path, from import statements.
        self.aliases: dict[str, str] = {}
        self._index_imports(tree)

    # -- import-alias resolution ---------------------------------------------

    def _index_imports(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{node.module}.{alias.name}"

    def dotted_name(self, node: ast.expr) -> str | None:
        """Resolve an attribute/name chain to an absolute dotted name.

        ``np.random.default_rng`` (with ``import numpy as np``)
        resolves to ``numpy.random.default_rng``; unresolvable
        expressions (calls, subscripts ...) yield ``None``.
        """
        parts: list[str] = []
        cur: ast.expr = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        parts.append(cur.id)
        parts.reverse()
        parts[0] = self.aliases.get(parts[0], parts[0])
        return ".".join(parts)

    # -- reporting ------------------------------------------------------------

    def report(
        self, rule: str, severity: Severity, node: ast.AST, message: str
    ) -> None:
        line = getattr(node, "lineno", 0)
        self.findings.append(
            Finding(
                rule=rule,
                severity=severity,
                location=f"{self.path}:{line}",
                message=message,
            )
        )


class LintRule:
    """Base class for project rules; subclass and override hooks."""

    #: Stable identifier, e.g. ``lint/banned-random``.
    rule_id: str = "lint/unnamed"

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on ``path`` (default: every file)."""
        return True

    def on_module(self, ctx: LintContext, node: ast.Module) -> None: ...

    def on_import(
        self, ctx: LintContext, node: ast.Import | ast.ImportFrom
    ) -> None: ...

    def on_call(self, ctx: LintContext, node: ast.Call) -> None: ...

    def on_binop(self, ctx: LintContext, node: ast.BinOp) -> None: ...


class _Walker(ast.NodeVisitor):
    """Drives the tree walk and dispatches events to active rules."""

    def __init__(self, ctx: LintContext, rules: Sequence[LintRule]) -> None:
        self.ctx = ctx
        self.rules = [r for r in rules if r.applies_to(ctx.path)]

    def run(self) -> None:
        for rule in self.rules:
            rule.on_module(self.ctx, self.ctx.tree)
        self.visit(self.ctx.tree)

    def visit_Import(self, node: ast.Import) -> None:
        for rule in self.rules:
            rule.on_import(self.ctx, node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for rule in self.rules:
            rule.on_import(self.ctx, node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        for rule in self.rules:
            rule.on_call(self.ctx, node)
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        # Dispatch only the outermost BinOp of an expression; walk the
        # children ourselves so nested BinOps are not re-dispatched,
        # but calls/subscripts *inside* them still are.
        for rule in self.rules:
            rule.on_binop(self.ctx, node)
        self._descend_binop(node)

    def _descend_binop(self, node: ast.BinOp) -> None:
        for child in (node.left, node.right):
            if isinstance(child, ast.BinOp):
                self._descend_binop(child)
            else:
                self.visit(child)


def lint_source(
    source: str, path: str, rules: Sequence[LintRule]
) -> list[Finding]:
    """Lint one module given as text; returns its findings."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Finding(
                rule="lint/syntax-error",
                severity=Severity.ERROR,
                location=f"{path}:{exc.lineno or 0}",
                message=f"file does not parse: {exc.msg}",
            )
        ]
    ctx = LintContext(path, tree)
    _Walker(ctx, rules).run()
    return ctx.findings


def lint_file(path: Path, rules: Sequence[LintRule]) -> list[Finding]:
    """Lint one ``.py`` file from disk."""
    return lint_source(path.read_text(encoding="utf-8"), str(path), rules)


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    seen: set[Path] = set()
    for p in paths:
        if p.is_dir():
            candidates: Iterable[Path] = sorted(p.rglob("*.py"))
        else:
            candidates = [p]
        for c in candidates:
            if c.suffix == ".py" and c not in seen:
                seen.add(c)
                yield c


def lint_paths(
    paths: Iterable[Path], rules: Sequence[LintRule]
) -> list[Finding]:
    """Lint every python file under ``paths``."""
    findings: list[Finding] = []
    for f in iter_python_files(paths):
        findings += lint_file(f, rules)
    return findings
