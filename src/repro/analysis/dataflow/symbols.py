"""Project symbol table and call graph for the unit-inference pass.

Parses every python file under the given roots once and indexes:

* modules (dotted name, AST, per-module import aliases),
* functions and methods by fully-qualified name, with the unit
  dimensions of annotated parameters and returns
  (:mod:`repro.util.quantity` vocabulary, matched by annotation name),
* class attribute units, harvested from class-level ``AnnAssign``
  (dataclass fields) across the whole project, keyed by attribute
  *name* -- attribute accesses are resolved without type inference,
  so a name used with conflicting units in two classes is dropped,
* a call graph over *resolvable* calls: dotted names through import
  aliases, bare names in the same module, ``self.method()`` within a
  class, and ``ClassName(...)`` constructors.

The table is deliberately syntactic: no imports are executed, so it
can index fixture files with seeded bugs safely.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.analysis.astlint import iter_python_files
from repro.analysis.dataflow.dims import Dim, parse_dim
from repro.util.quantity import QUANTITY_DIMS, SUFFIX_DIMS

__all__ = [
    "ModuleInfo",
    "FunctionInfo",
    "SymbolTable",
    "build_symbol_table",
    "annotation_dim",
    "suffix_dim",
]


def annotation_dim(node: ast.expr | None) -> Dim | None:
    """Dimension named by an annotation expression, if any.

    Matches the quantity vocabulary by (dotted) basename, so
    ``Milliseconds``, ``quantity.Milliseconds`` and string annotations
    like ``"Milliseconds"`` all resolve.
    """
    if node is None:
        return None
    name: str | None = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value.rsplit(".", 1)[-1]
    if name is None:
        return None
    unit = QUANTITY_DIMS.get(name)
    return parse_dim(unit) if unit is not None else None


def suffix_dim(identifier: str) -> Dim | None:
    """Dimension implied by an identifier's naming-convention suffix.

    Case-insensitive, so constants (``_MIN_PREDICTION_MS``) follow the
    same convention as variables (``stall_ms``).
    """
    lowered = identifier.lower()
    for suffix, unit in SUFFIX_DIMS.items():
        if lowered.endswith(suffix):
            return parse_dim(unit)
    return None


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: str
    modname: str
    tree: ast.Module
    #: local name -> absolute dotted path (import indexing).
    aliases: dict[str, str] = field(default_factory=dict)

    def resolve_dotted(self, node: ast.expr) -> str | None:
        """Absolute dotted name of an attribute/name chain, or None."""
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


@dataclass
class FunctionInfo:
    """One function or method."""

    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    module: ModuleInfo
    class_name: str | None = None
    #: parameter name -> dimension from an *annotation* (high trust).
    param_ann: dict[str, Dim] = field(default_factory=dict)
    #: dimension of the annotated return, if any.
    return_ann: Dim | None = None

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    @property
    def params(self) -> list[str]:
        a = self.node.args
        names = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
        if self.is_method and names and names[0] in ("self", "cls"):
            names = names[1:]
        return names


class SymbolTable:
    """Whole-program index over the analysis roots."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionInfo] = {}
        #: class qualname -> {method name -> function qualname}
        self.class_methods: dict[str, dict[str, str]] = {}
        #: class qualname -> {field name -> Dim} from AnnAssign.
        self.class_fields: dict[str, dict[str, Dim]] = {}
        #: attribute name -> Dim, merged project-wide (conflicts dropped).
        self.attr_units: dict[str, Dim | None] = {}

    # -- construction --------------------------------------------------------

    def add_module(self, path: str, modname: str, source: str) -> None:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError:
            return
        mod = ModuleInfo(path=path, modname=modname, tree=tree)
        self._index_imports(mod)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mod, stmt, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                self._add_class(mod, stmt)

    def _index_imports(self, mod: ModuleInfo) -> None:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    mod.aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    mod.aliases[local] = f"{node.module}.{alias.name}"

    def _add_class(self, mod: ModuleInfo, node: ast.ClassDef) -> None:
        cls_qual = f"{mod.modname}.{node.name}"
        methods: dict[str, str] = {}
        fields: dict[str, Dim] = {}
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._add_function(mod, stmt, class_name=node.name)
                methods[stmt.name] = info.qualname
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                dim = annotation_dim(stmt.annotation)
                if dim is not None:
                    fields[stmt.target.id] = dim
        self.class_methods[cls_qual] = methods
        self.class_fields[cls_qual] = fields
        for name, dim in fields.items():
            if name in self.attr_units and self.attr_units[name] != dim:
                self.attr_units[name] = None  # conflicting uses: drop
            else:
                self.attr_units.setdefault(name, dim)

    def _add_function(
        self,
        mod: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: str | None,
    ) -> FunctionInfo:
        qual = (
            f"{mod.modname}.{class_name}.{node.name}"
            if class_name
            else f"{mod.modname}.{node.name}"
        )
        info = FunctionInfo(
            qualname=qual, node=node, module=mod, class_name=class_name
        )
        a = node.args
        for p in (*a.posonlyargs, *a.args, *a.kwonlyargs):
            dim = annotation_dim(p.annotation)
            if dim is not None:
                info.param_ann[p.arg] = dim
        info.return_ann = annotation_dim(node.returns)
        self.functions[qual] = info
        return info

    # -- resolution ----------------------------------------------------------

    def resolve_callee(
        self, caller: FunctionInfo, call: ast.Call
    ) -> FunctionInfo | None:
        """Resolve a call expression to a project function, if possible."""
        func = call.func
        mod = caller.module
        # self.method() within the same class.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and caller.class_name is not None
        ):
            methods = self.class_methods.get(f"{mod.modname}.{caller.class_name}", {})
            qual = methods.get(func.attr)
            return self.functions.get(qual) if qual else None
        dotted = mod.resolve_dotted(func)
        if dotted is None:
            return None
        return self.lookup(dotted, mod)

    def lookup(self, dotted: str, mod: ModuleInfo | None = None) -> FunctionInfo | None:
        """Find a function by absolute dotted name (module fn, method,
        or ``Class`` constructor resolving to ``Class.__init__``)."""
        if dotted in self.functions:
            return self.functions[dotted]
        if dotted in self.class_methods:  # constructor
            init = self.class_methods[dotted].get("__init__")
            if init:
                return self.functions.get(init)
            return None
        # A bare name used in its defining module.
        if mod is not None and "." not in dotted:
            return self.functions.get(f"{mod.modname}.{dotted}")
        return None

    def constructor_fields(self, dotted: str) -> dict[str, Dim] | None:
        """Field units of a (likely dataclass) constructor call."""
        return self.class_fields.get(dotted)


def _module_name(path: Path) -> str:
    """Dotted module name from a file path (walking up ``__init__.py``)."""
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) or path.stem


def build_symbol_table(paths: Iterable[Path]) -> SymbolTable:
    """Parse every ``.py`` file under ``paths`` into one symbol table."""
    table = SymbolTable()
    for f in iter_python_files(paths):
        try:
            source = f.read_text(encoding="utf-8")
        except OSError:
            continue
        table.add_module(str(f), _module_name(f), source)
    return table
