"""Interprocedural unit inference over the project symbol table.

Seeds dimensions from the :mod:`repro.util.quantity` annotations on
``core/``, ``hw/`` and ``graph/`` signatures (plus class fields and
identifier-suffix conventions) and propagates them through
assignments, arithmetic and resolvable calls, to a fixpoint of
per-function return dimensions.  A final pass reports:

``dataflow/unit-mix`` (error)
    Addition, subtraction, comparison or ``+=`` between two values of
    confidently different dimensions -- the ms+KiB class of bug.
``dataflow/unit-assign`` (error)
    A value of one dimension assigned to a variable whose name or
    annotation claims another (``stall_ms = bytes / bw`` is seconds).
``dataflow/unit-arg`` (error)
    An argument of one dimension passed to a parameter annotated with
    another.
``dataflow/unit-return`` (error)
    A return whose inferred dimension contradicts the function's
    annotated quantity.

Only conflicts between two *canonical* vocabulary dimensions are
reported (see :mod:`repro.analysis.dataflow.dims`), which keeps the
error rules high-precision: residual compounds from partially-known
products stay silent.  :mod:`repro.util.units` and the declared
conversion helpers are the sanctioned crossing points and are exempt.
"""

from __future__ import annotations

import ast
from typing import Callable, Sequence

from repro.analysis.dataflow.dims import (
    DIMENSIONLESS,
    Dim,
    dim_div,
    dim_mul,
    dim_pow,
    dim_str,
    dims_conflict,
    parse_dim,
)
from repro.analysis.dataflow.symbols import (
    FunctionInfo,
    SymbolTable,
    annotation_dim,
    suffix_dim,
)
from repro.analysis.findings import Finding, Severity
from repro.util.quantity import CONVERSION_CONSTANTS, CONVERSION_FUNCTIONS

__all__ = ["infer_return_dims", "check_units"]

#: Modules that *are* the conversion boundary: no unit findings inside.
EXEMPT_MODULES = frozenset({"repro.util.units", "repro.util.quantity"})

#: Conversion helpers by basename (receiver types are not inferred, so
#: ``self.platform.cycles_to_ms(...)`` must match by attribute name).
_CONVERSION_BY_BASENAME = {
    qual.rsplit(".", 1)[-1]: spec for qual, spec in CONVERSION_FUNCTIONS.items()
}

#: Builtins through which a dimension passes unchanged.
_TRANSPARENT_CALLS = frozenset({"float", "int", "abs", "round", "min", "max", "sum"})

_ADDITIVE = (ast.Add, ast.Sub)


def _swap_dim(d: Dim, src: str, dst: str) -> Dim:
    out = dict(d)
    if src not in out:
        return d
    exp = out.pop(src)
    out[dst] = out.get(dst, 0) + exp
    return tuple(sorted((t, e) for t, e in out.items() if e != 0))


class _Evaluator:
    """Single-function abstract interpreter over dimensions."""

    def __init__(
        self,
        fn: FunctionInfo,
        table: SymbolTable,
        returns: dict[str, Dim | None],
        report: Callable[[str, ast.AST, str], None] | None = None,
    ) -> None:
        self.fn = fn
        self.table = table
        self.returns = returns
        self.report = report
        self.return_dims: list[Dim | None] = []
        self.env: dict[str, Dim | None] = {}
        for name in fn.params:
            self.env[name] = fn.param_ann.get(name) or suffix_dim(name)

    # -- driving -------------------------------------------------------------

    def run(self) -> Dim | None:
        """Walk the body; returns the unified return dimension."""
        self._walk(self.fn.node.body)
        known = {d for d in self.return_dims if d is not None}
        if len(known) == 1 and len(self.return_dims) == len(known):
            return next(iter(known))
        return None

    def _walk(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            dim = self.eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, dim, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            dim = self.eval(stmt.value) if stmt.value is not None else None
            ann = annotation_dim(stmt.annotation)
            if ann is not None and dims_conflict(ann, dim):
                self._report_assign(stmt.target, ann, dim, stmt)
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = ann if ann is not None else dim
        elif isinstance(stmt, ast.AugAssign):
            value = self.eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                current = self.env.get(stmt.target.id) or suffix_dim(stmt.target.id)
                if isinstance(stmt.op, _ADDITIVE) and dims_conflict(current, value):
                    self._report(
                        "dataflow/unit-mix",
                        stmt,
                        f"accumulates {dim_str(value)} into "  # type: ignore[arg-type]
                        f"{stmt.target.id} ({dim_str(current)})",  # type: ignore[arg-type]
                    )
                if current is None or current == DIMENSIONLESS:
                    self.env[stmt.target.id] = value
        elif isinstance(stmt, ast.Return):
            dim = self.eval(stmt.value) if stmt.value is not None else None
            self.return_dims.append(dim)
            if self.fn.return_ann is not None and dims_conflict(self.fn.return_ann, dim):
                self._report(
                    "dataflow/unit-return",
                    stmt,
                    f"returns {dim_str(dim)} but the signature is annotated "  # type: ignore[arg-type]
                    f"{dim_str(self.fn.return_ann)}",
                )
        elif isinstance(stmt, ast.For):
            iter_dim = self.eval(stmt.iter)
            self._bind(stmt.target, iter_dim, stmt.iter, check=False)
            self._walk(stmt.body)
            self._walk(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test)
            self._walk(stmt.body)
            self._walk(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self.eval(stmt.test)
            self._walk(stmt.body)
            self._walk(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self.eval(item.context_expr)
            self._walk(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._walk(stmt.body)
            for handler in stmt.handlers:
                self._walk(handler.body)
            self._walk(stmt.orelse)
            self._walk(stmt.finalbody)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pass  # nested scopes are indexed separately or skipped
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child)

    def _bind(
        self, target: ast.expr, dim: Dim | None, value: ast.expr, check: bool = True
    ) -> None:
        if isinstance(target, ast.Name):
            claimed = suffix_dim(target.id)
            if check and claimed is not None and dims_conflict(claimed, dim):
                self._report_assign(target, claimed, dim, value)
            self.env[target.id] = dim if dim is not None else claimed
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, None, value, check=False)

    def _report_assign(
        self, target: ast.expr, claimed: Dim, actual: Dim | None, at: ast.AST
    ) -> None:
        name = target.id if isinstance(target, ast.Name) else "<target>"
        self._report(
            "dataflow/unit-assign",
            at,
            f"assigns a {dim_str(actual)} value to {name}, which is "  # type: ignore[arg-type]
            f"declared/named as {dim_str(claimed)}",
        )

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        if self.report is not None:
            self.report(rule, node, message)

    # -- expression evaluation ----------------------------------------------

    def eval(self, node: ast.expr | None) -> Dim | None:
        if node is None:
            return None
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is not None:
            result: Dim | None = method(node)
            return result
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.eval(child)
        return None

    def _eval_Constant(self, node: ast.Constant) -> Dim | None:
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            return None
        return DIMENSIONLESS

    def _eval_Name(self, node: ast.Name) -> Dim | None:
        if node.id in self.env:
            return self.env[node.id]
        unit = CONVERSION_CONSTANTS.get(node.id)
        if unit is not None:
            return parse_dim(unit)
        return suffix_dim(node.id)

    def _eval_Attribute(self, node: ast.Attribute) -> Dim | None:
        self.eval(node.value)
        unit = CONVERSION_CONSTANTS.get(node.attr)
        if unit is not None:
            return parse_dim(unit)
        attr_dim = self.table.attr_units.get(node.attr)
        if attr_dim is not None:
            return attr_dim
        return suffix_dim(node.attr)

    def _eval_Subscript(self, node: ast.Subscript) -> Dim | None:
        self.eval(node.slice)
        return self.eval(node.value)

    def _eval_UnaryOp(self, node: ast.UnaryOp) -> Dim | None:
        return self.eval(node.operand)

    def _eval_IfExp(self, node: ast.IfExp) -> Dim | None:
        self.eval(node.test)
        body, orelse = self.eval(node.body), self.eval(node.orelse)
        return body if body is not None else orelse

    def _eval_BoolOp(self, node: ast.BoolOp) -> Dim | None:
        for v in node.values:
            self.eval(v)
        return None

    def _eval_Compare(self, node: ast.Compare) -> Dim | None:
        dims = [self.eval(node.left)] + [self.eval(c) for c in node.comparators]
        known = [d for d in dims if d is not None]
        for i in range(len(known) - 1):
            if dims_conflict(known[i], known[i + 1]):
                self._report(
                    "dataflow/unit-mix",
                    node,
                    f"compares {dim_str(known[i])} with {dim_str(known[i + 1])}",
                )
                break
        return DIMENSIONLESS

    def _eval_BinOp(self, node: ast.BinOp) -> Dim | None:
        left, right = self.eval(node.left), self.eval(node.right)
        if isinstance(node.op, _ADDITIVE):
            if dims_conflict(left, right):
                self._report(
                    "dataflow/unit-mix",
                    node,
                    f"{'adds' if isinstance(node.op, ast.Add) else 'subtracts'} "
                    f"{dim_str(left)} and {dim_str(right)} in one expression",  # type: ignore[arg-type]
                )
                return None
            return left if left not in (None, DIMENSIONLESS) else right
        if isinstance(node.op, ast.Mult):
            if left is None or right is None:
                return None
            return dim_mul(left, right)
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            if left is None or right is None:
                return None
            return dim_div(left, right)
        if isinstance(node.op, ast.Pow):
            if (
                left is not None
                and isinstance(node.right, ast.Constant)
                and isinstance(node.right.value, int)
            ):
                return dim_pow(left, node.right.value)
            return None
        if isinstance(node.op, ast.Mod):
            return left
        return None

    def _eval_Call(self, node: ast.Call) -> Dim | None:
        for kw in node.keywords:
            self.eval(kw.value)
        basename = (
            node.func.attr
            if isinstance(node.func, ast.Attribute)
            else node.func.id
            if isinstance(node.func, ast.Name)
            else None
        )
        # Sanctioned conversion helpers: dimension-rewriting transfer.
        conv = _CONVERSION_BY_BASENAME.get(basename or "")
        if conv is not None:
            arg0 = self.eval(node.args[0]) if node.args else None
            for extra in node.args[1:]:
                self.eval(extra)
            if conv[0] == "result":
                return parse_dim(conv[1])
            if arg0 is None:
                return None
            return _swap_dim(arg0, conv[1], conv[2])
        callee = self.table.resolve_callee(self.fn, node)
        if callee is not None:
            self._check_args(node, callee)
            if callee.return_ann is not None:
                return callee.return_ann
            if callee.node.name == "__init__":
                return None
            return self.returns.get(callee.qualname)
        # Dataclass-style constructor with keyword units.
        dotted = self.fn.module.resolve_dotted(node.func)
        if dotted is not None:
            fields = self.table.constructor_fields(dotted)
            if fields is not None:
                self._check_fields(node, fields, dotted)
                return None
        if basename in _TRANSPARENT_CALLS:
            for d in (self.eval(a) for a in node.args):
                if d is not None and d != DIMENSIONLESS:
                    return d
            return None
        for arg in node.args:
            self.eval(arg)
        return None

    def _check_args(self, node: ast.Call, callee: FunctionInfo) -> None:
        params = callee.params
        for idx, arg in enumerate(node.args):
            dim = self.eval(arg)
            if isinstance(arg, ast.Starred) or idx >= len(params):
                continue
            expected = callee.param_ann.get(params[idx])
            if expected is not None and dims_conflict(expected, dim):
                self._report(
                    "dataflow/unit-arg",
                    arg,
                    f"passes {dim_str(dim)} to parameter "  # type: ignore[arg-type]
                    f"{params[idx]!r} of {callee.qualname} "
                    f"(annotated {dim_str(expected)})",
                )
        for kw in node.keywords:
            if kw.arg is None:
                continue
            expected = callee.param_ann.get(kw.arg)
            dim = self.eval(kw.value)
            if expected is not None and dims_conflict(expected, dim):
                self._report(
                    "dataflow/unit-arg",
                    kw.value,
                    f"passes {dim_str(dim)} to parameter {kw.arg!r} of "  # type: ignore[arg-type]
                    f"{callee.qualname} (annotated {dim_str(expected)})",
                )

    def _check_fields(
        self, node: ast.Call, fields: dict[str, Dim], dotted: str
    ) -> None:
        for arg in node.args:
            self.eval(arg)
        for kw in node.keywords:
            dim = self.eval(kw.value)
            expected = fields.get(kw.arg or "")
            if expected is not None and dims_conflict(expected, dim):
                self._report(
                    "dataflow/unit-arg",
                    kw.value,
                    f"passes {dim_str(dim)} to field {kw.arg!r} of {dotted} "  # type: ignore[arg-type]
                    f"(annotated {dim_str(expected)})",
                )


def _is_exempt(fn: FunctionInfo) -> bool:
    return fn.module.modname in EXEMPT_MODULES or fn.qualname in CONVERSION_FUNCTIONS


def infer_return_dims(
    table: SymbolTable, max_passes: int = 4
) -> dict[str, Dim | None]:
    """Fixpoint of per-function return dimensions over the call graph."""
    returns: dict[str, Dim | None] = {
        q: fn.return_ann for q, fn in table.functions.items()
    }
    for _ in range(max_passes):
        changed = False
        for qual, fn in table.functions.items():
            if fn.return_ann is not None:
                continue
            inferred = _Evaluator(fn, table, returns).run()
            if inferred != returns.get(qual):
                returns[qual] = inferred
                changed = True
        if not changed:
            break
    # Property getters become attribute units for receiver-less lookups.
    for qual, fn in table.functions.items():
        if any(
            (isinstance(d, ast.Name) and d.id in ("property", "cached_property"))
            or (isinstance(d, ast.Attribute) and d.attr in ("property", "cached_property"))
            for d in fn.node.decorator_list
        ):
            dim = returns.get(qual)
            name = fn.node.name
            if dim is not None:
                if name in table.attr_units and table.attr_units[name] != dim:
                    table.attr_units[name] = None
                else:
                    table.attr_units.setdefault(name, dim)
    return returns


def check_units(table: SymbolTable) -> list[Finding]:
    """Run the unit-inference pass; returns its findings."""
    returns = infer_return_dims(table)
    findings: list[Finding] = []
    for fn in table.functions.values():
        if _is_exempt(fn):
            continue
        reported: set[tuple[int, str]] = set()

        def report(rule: str, node: ast.AST, message: str) -> None:
            line = getattr(node, "lineno", fn.node.lineno)  # noqa: B023
            key = (line, rule)
            if key in reported:  # noqa: B023
                return
            reported.add(key)  # noqa: B023
            findings.append(
                Finding(
                    rule=rule,
                    severity=Severity.ERROR,
                    location=f"{fn.module.path}:{line}",  # noqa: B023
                    message=message,
                )
            )

        _Evaluator(fn, table, returns, report=report).run()
    return findings
