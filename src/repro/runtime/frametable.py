"""Columnar per-frame run records (the frame engine's log storage).

One executed frame used to cost one :class:`FrameLog` dataclass plus
one list append; over a long sequence that is pure allocator churn in
the hottest loop of the runtime.  The
engine now writes every frame straight into a :class:`FrameTable` --
a preallocated structured numpy array for the scalar fields plus
per-task value columns -- and :class:`~repro.runtime.engine.RunResult`
serves its latency/prediction series as zero-copy views of these
columns.  ``FrameLog`` objects still exist for compatibility, but
they are *materialized on demand* from the table, not accumulated
during the run.

Variable-shape fields (``parts``, ``task_ms``, ``predicted_task_ms``)
are stored as one column per task, created lazily when a task first
appears; absence is encoded as 0 parts / NaN milliseconds, which are
impossible real values (a present task has >= 1 partitions, and task
times are finite).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

__all__ = ["FrameLog", "FrameTable"]

#: Scalar per-frame fields, one structured record per frame.
FRAME_DTYPE = np.dtype(
    [
        ("index", np.int32),
        ("predicted_scenario", np.int16),
        ("actual_scenario", np.int16),
        ("predicted_ms", np.float64),
        ("serial_ms", np.float64),
        ("latency_ms", np.float64),
        ("output_ms", np.float64),
        ("cores_used", np.int16),
        ("quality", np.int32),
    ]
)

_MIN_CAPACITY = 64


@dataclass(frozen=True)
class FrameLog:
    """Everything recorded about one executed frame.

    A materialized row view of a :class:`FrameTable`; equality and
    field set are unchanged from the original per-frame dataclass.
    """

    index: int
    predicted_scenario: int
    actual_scenario: int
    predicted_ms: float
    serial_ms: float
    latency_ms: float
    output_ms: float
    cores_used: int
    parts: dict[str, int]
    quality: str = "full"
    #: Measured per-task times of the frame.
    task_ms: dict[str, float] = field(default_factory=dict)
    #: Per-task predictions (empty for prediction-free policies).
    predicted_task_ms: dict[str, float] = field(default_factory=dict)


def _view(column: np.ndarray, n: int) -> np.ndarray:
    out = column[:n].view()
    out.flags.writeable = False
    return out


class FrameTable:
    """Append-free columnar storage of per-frame run records.

    ``capacity`` preallocates for a known frame count (the engine
    passes the sequence length); writing past capacity grows the
    arrays geometrically, so an unknown-length run stays amortized
    O(1) per frame with zero per-frame object allocation.
    """

    def __init__(self, capacity: int = 0) -> None:
        cap = max(int(capacity), _MIN_CAPACITY)
        self._rows = np.zeros(cap, dtype=FRAME_DTYPE)
        self._n = 0
        self._qualities: list[str] = []
        self._quality_codes: dict[str, int] = {}
        self._parts: dict[str, np.ndarray] = {}
        self._task_ms: dict[str, np.ndarray] = {}
        self._predicted_task_ms: dict[str, np.ndarray] = {}

    def __len__(self) -> int:
        return self._n

    # -- recording -------------------------------------------------------------

    def _capacity(self) -> int:
        return self._rows.shape[0]

    def _grow(self) -> None:
        cap = self._capacity() * 2
        rows = np.zeros(cap, dtype=FRAME_DTYPE)
        rows[: self._n] = self._rows[: self._n]
        self._rows = rows
        for cols, fill in (
            (self._parts, 0),
            (self._task_ms, np.nan),
            (self._predicted_task_ms, np.nan),
        ):
            for task, col in cols.items():
                new = np.full(cap, fill, dtype=col.dtype)
                new[: self._n] = col[: self._n]
                cols[task] = new

    def _quality_code(self, quality: str) -> int:
        code = self._quality_codes.get(quality)
        if code is None:
            code = len(self._qualities)
            self._qualities.append(quality)
            self._quality_codes[quality] = code
        return code

    def _column(
        self, cols: dict[str, np.ndarray], task: str, fill: float, dtype: type
    ) -> np.ndarray:
        col = cols.get(task)
        if col is None:
            col = np.full(self._capacity(), fill, dtype=dtype)
            cols[task] = col
        return col

    def add_frame(
        self,
        index: int,
        predicted_scenario: int,
        actual_scenario: int,
        predicted_ms: float,
        serial_ms: float,
        latency_ms: float,
        output_ms: float,
        cores_used: int,
        parts: Mapping[str, int],
        quality: str = "full",
        task_ms: Mapping[str, float] | None = None,
        predicted_task_ms: Mapping[str, float] | None = None,
    ) -> None:
        """Record one executed frame (one structured-row write)."""
        i = self._n
        if i >= self._capacity():
            self._grow()
        row = self._rows[i]
        row["index"] = index
        row["predicted_scenario"] = predicted_scenario
        row["actual_scenario"] = actual_scenario
        row["predicted_ms"] = predicted_ms
        row["serial_ms"] = serial_ms
        row["latency_ms"] = latency_ms
        row["output_ms"] = output_ms
        row["cores_used"] = cores_used
        row["quality"] = self._quality_code(quality)
        for task, k in parts.items():
            self._column(self._parts, task, 0, np.int16)[i] = k
        if task_ms:
            for task, ms in task_ms.items():
                self._column(self._task_ms, task, np.nan, np.float64)[i] = ms
        if predicted_task_ms:
            for task, ms in predicted_task_ms.items():
                self._column(
                    self._predicted_task_ms, task, np.nan, np.float64
                )[i] = ms
        self._n = i + 1

    # -- column views ----------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """Read-only view of a scalar column (see :data:`FRAME_DTYPE`)."""
        return _view(self._rows[name], self._n)

    def task_ms_column(self, task: str) -> np.ndarray:
        """Read-only measured-time column of one task (NaN = absent)."""
        col = self._task_ms.get(task)
        if col is None:
            return np.full(self._n, np.nan)
        return _view(col, self._n)

    def tasks(self) -> list[str]:
        """Tasks with at least one measured time, in first-seen order."""
        return list(self._task_ms)

    def task_columns(self, name: str) -> dict[str, np.ndarray]:
        """Read-only per-task columns of one variable-shape field.

        ``name`` is ``"parts"`` (0 = absent), ``"task_ms"`` or
        ``"predicted_task_ms"`` (NaN = absent).  Tasks come in
        first-seen order, the key order of :meth:`log`'s dicts.
        """
        cols = {
            "parts": self._parts,
            "task_ms": self._task_ms,
            "predicted_task_ms": self._predicted_task_ms,
        }[name]
        return {t: _view(col, self._n) for t, col in cols.items()}

    def quality_names(self) -> list[str]:
        """Per-frame quality-level names."""
        names = self._qualities
        return [names[c] for c in self._rows["quality"][: self._n].tolist()]

    # -- row materialization ----------------------------------------------------

    def parts_at(self, i: int) -> dict[str, int]:
        """The ``parts`` dict of frame ``i`` (first-seen task order)."""
        return {
            t: int(col[i]) for t, col in self._parts.items() if col[i] > 0
        }

    def log(self, i: int) -> FrameLog:
        """Materialize frame ``i`` as a :class:`FrameLog`."""
        n = self._n
        if not -n <= i < n:
            raise IndexError(f"frame {i} out of range ({n} recorded)")
        if i < 0:
            i += n
        row = self._rows[i]
        return FrameLog(
            index=int(row["index"]),
            predicted_scenario=int(row["predicted_scenario"]),
            actual_scenario=int(row["actual_scenario"]),
            predicted_ms=float(row["predicted_ms"]),
            serial_ms=float(row["serial_ms"]),
            latency_ms=float(row["latency_ms"]),
            output_ms=float(row["output_ms"]),
            cores_used=int(row["cores_used"]),
            parts=self.parts_at(i),
            quality=self._qualities[int(row["quality"])],
            task_ms={
                t: float(col[i])
                for t, col in self._task_ms.items()
                if not np.isnan(col[i])
            },
            predicted_task_ms={
                t: float(col[i])
                for t, col in self._predicted_task_ms.items()
                if not np.isnan(col[i])
            },
        )

    def logs(self) -> list[FrameLog]:
        """Materialize every frame (compatibility path, not hot)."""
        return [self.log(i) for i in range(self._n)]
