"""Whole-program unit inference over the ``repro`` sources.

:mod:`~repro.analysis.dataflow.symbols` indexes every source file once
into a :class:`~repro.analysis.dataflow.symbols.SymbolTable`;
:mod:`~repro.analysis.dataflow.unitcheck` propagates the
:mod:`repro.util.quantity` unit annotations over it.

:func:`run_dataflow` is the CLI's entry point.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.analysis.dataflow.symbols import SymbolTable, build_symbol_table
from repro.analysis.dataflow.unitcheck import check_units
from repro.analysis.findings import Finding

__all__ = [
    "SymbolTable",
    "build_symbol_table",
    "check_units",
    "run_dataflow",
]


def run_dataflow(paths: Iterable[Path]) -> list[Finding]:
    """Build the symbol table over ``paths`` and run unit inference."""
    return check_units(build_symbol_table(list(paths)))
