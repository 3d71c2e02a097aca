"""Trace records: what profiling a sequence produces.

A :class:`TraceRecord` captures one frame: which scenario ran, the
simulated single-core time of every executed task, the ROI size, and
the frame's memory traffic.  A :class:`TraceSet` stores a corpus of
such frames plus the provenance needed to reproduce them, with the
accessor methods model fitting needs (per-task series with sequence
boundaries respected, scenario chains, ROI series).

Storage is *columnar*: scalar fields live in one preallocated
structured numpy array and per-task times in one NaN-absent float
column per task -- the same layout as
:class:`~repro.runtime.frametable.FrameTable`.  The profiler's hot
loop records frames through :meth:`TraceSet.add_frame` without
allocating a single per-frame object; ``TraceRecord`` instances are
*materialized on demand* by the :attr:`TraceSet.records` property for
compatibility (fitting code, persistence, tests), not accumulated
during profiling.

Persistence keeps the JSON file byte-identical to the historical
format (it stays the authoritative, fingerprinted artifact); ``save``
additionally drops an uncompressed three-member ``.npz`` sidecar
(header, rows, task matrix), and ``load`` takes the sidecar fast path
when its recorded SHA-256 of the JSON text matches the file on disk,
falling back to JSON parsing whenever the sidecar is missing, stale,
of another format version, or unreadable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Mapping
from zipfile import BadZipFile

import numpy as np
from numpy.typing import NDArray

__all__ = ["TRACE_DTYPE", "TraceRecord", "TraceSet"]


@dataclass(frozen=True)
class TraceRecord:
    """Profiling outcome of one frame.

    Attributes
    ----------
    seq, frame:
        Sequence id and frame index within the sequence.
    scenario_id:
        The Fig. 2 switch state that ran (0..7).
    task_ms:
        Simulated single-core compute time per executed task.
    roi_kpixels:
        Native-equivalent ROI size in kilopixels (full frame when not
        in ROI mode) -- the input of the Eq. 3 growth model.
    latency_ms:
        Effective frame latency under the profiling mapping.
    eviction_bytes, external_bytes:
        Cache swap traffic and total external traffic of the frame.
    """

    seq: int
    frame: int
    scenario_id: int
    task_ms: dict[str, float]
    roi_kpixels: float
    latency_ms: float
    eviction_bytes: int
    external_bytes: int


#: Scalar per-frame trace fields, one structured record per frame.
TRACE_DTYPE = np.dtype(
    [
        ("seq", np.int32),
        ("frame", np.int32),
        ("scenario_id", np.int16),
        ("roi_kpixels", np.float64),
        ("latency_ms", np.float64),
        ("eviction_bytes", np.int64),
        ("external_bytes", np.int64),
    ]
)

_MIN_CAPACITY = 64

#: Sidecar format tag; bump when the array layout changes.
_NPZ_FORMAT = "repro-traces-npz/2"


class TraceSet:
    """A corpus of trace records with provenance.

    Attributes
    ----------
    records:
        All frame records ordered by (seq, frame), materialized on
        demand from the columns (see module docstring).
    pixel_scale:
        Area factor the underlying cost model used.
    platform:
        Name of the platform spec profiled against.
    workload:
        Registry name of the application that was profiled (empty on
        legacy trace sets predating the workload registry).
    registry_version:
        :data:`repro.workloads.REGISTRY_VERSION` at profiling time
        (empty on legacy trace sets) -- identifies stale traces after
        a registered workload's behavior changes.
    meta:
        Free-form provenance (corpus spec, seeds, ...).
    """

    def __init__(
        self,
        records: Iterable[TraceRecord] | None = None,
        pixel_scale: float = 1.0,
        platform: str = "",
        meta: dict[str, object] | None = None,
        workload: str = "",
        registry_version: str = "",
    ) -> None:
        self.pixel_scale = pixel_scale
        self.platform = platform
        self.workload = workload
        self.registry_version = registry_version
        self.meta: dict[str, object] = meta if meta is not None else {}
        self._rows = np.zeros(_MIN_CAPACITY, dtype=TRACE_DTYPE)
        self._n = 0
        self._task_ms: dict[str, np.ndarray] = {}
        self._materialized: list[TraceRecord] | None = None
        if records is not None:
            for record in records:
                self.append(record)

    def __len__(self) -> int:
        return self._n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceSet):
            return NotImplemented
        return (
            self.pixel_scale == other.pixel_scale
            and self.platform == other.platform
            and self.workload == other.workload
            and self.registry_version == other.registry_version
            and self.meta == other.meta
            and self.records == other.records
        )

    # -- columnar recording ----------------------------------------------------

    def _capacity(self) -> int:
        return self._rows.shape[0]

    def _grow(self) -> None:
        cap = self._capacity() * 2
        rows = np.zeros(cap, dtype=TRACE_DTYPE)
        rows[: self._n] = self._rows[: self._n]
        self._rows = rows
        for task, col in self._task_ms.items():
            new = np.full(cap, np.nan)
            new[: self._n] = col[: self._n]
            self._task_ms[task] = new

    def _column(self, task: str) -> np.ndarray:
        col = self._task_ms.get(task)
        if col is None:
            col = np.full(self._capacity(), np.nan)
            self._task_ms[task] = col
        return col

    def add_frame(
        self,
        seq: int,
        frame: int,
        scenario_id: int,
        task_ms: Mapping[str, float],
        roi_kpixels: float,
        latency_ms: float,
        eviction_bytes: int,
        external_bytes: int,
    ) -> None:
        """Record one profiled frame (one structured-row write).

        The profiler's append-free hot path: equivalent to
        ``append(TraceRecord(...))`` without constructing the record
        or copying its ``task_ms`` dict.
        """
        i = self._n
        if i >= self._capacity():
            self._grow()
        row = self._rows[i]
        row["seq"] = seq
        row["frame"] = frame
        row["scenario_id"] = scenario_id
        row["roi_kpixels"] = roi_kpixels
        row["latency_ms"] = latency_ms
        row["eviction_bytes"] = eviction_bytes
        row["external_bytes"] = external_bytes
        for task, ms in task_ms.items():
            self._column(task)[i] = ms
        self._n = i + 1
        self._materialized = None

    def append(self, record: TraceRecord) -> None:
        """Record one frame given as a materialized :class:`TraceRecord`."""
        self.add_frame(
            seq=record.seq,
            frame=record.frame,
            scenario_id=record.scenario_id,
            task_ms=record.task_ms,
            roi_kpixels=record.roi_kpixels,
            latency_ms=record.latency_ms,
            eviction_bytes=record.eviction_bytes,
            external_bytes=record.external_bytes,
        )

    def extend(self, other: "TraceSet") -> None:
        """Bulk-append another trace set's frames (column copies).

        Equivalent to appending ``other.records`` one by one -- task
        columns are created in ``other``'s first-appearance order, the
        same order record-wise appends would discover them in -- but
        without materializing any records.
        """
        n_new = other._n
        if n_new == 0:
            return
        base = self._n
        while base + n_new > self._capacity():
            self._grow()
        sl = slice(base, base + n_new)
        self._rows[sl] = other._rows[:n_new]
        for task, col in other._task_ms.items():
            self._column(task)[sl] = col[:n_new]
        self._n = base + n_new
        self._materialized = None

    @property
    def records(self) -> list[TraceRecord]:
        """Materialized per-frame records (cached until the next write)."""
        cached = self._materialized
        if cached is None:
            n = self._n
            rows = self._rows
            task_ms_list: list[dict[str, float]] = [{} for _ in range(n)]
            for task, col in self._task_ms.items():
                vals = col[:n].tolist()
                for i, v in enumerate(vals):
                    if v == v:  # NaN encodes "task did not run"
                        task_ms_list[i][task] = v
            seq = rows["seq"][:n].tolist()
            frame = rows["frame"][:n].tolist()
            scenario_id = rows["scenario_id"][:n].tolist()
            roi_kpixels = rows["roi_kpixels"][:n].tolist()
            latency_ms = rows["latency_ms"][:n].tolist()
            eviction_bytes = rows["eviction_bytes"][:n].tolist()
            external_bytes = rows["external_bytes"][:n].tolist()
            cached = [
                TraceRecord(
                    seq=seq[i],
                    frame=frame[i],
                    scenario_id=scenario_id[i],
                    task_ms=task_ms_list[i],
                    roi_kpixels=roi_kpixels[i],
                    latency_ms=latency_ms[i],
                    eviction_bytes=eviction_bytes[i],
                    external_bytes=external_bytes[i],
                )
                for i in range(n)
            ]
            self._materialized = cached
        return cached

    # -- model-fitting accessors ----------------------------------------------

    def sequences(self) -> list[int]:
        """Distinct sequence ids, in first-appearance order."""
        return list(dict.fromkeys(self._rows["seq"][: self._n].tolist()))

    def task_series(self, task: str) -> list[NDArray[np.float64]]:
        """Per-sequence arrays of the task's consecutive run times.

        Each array holds the times of *consecutive executions* within
        one sequence; frames where the task did not run break the
        array (a Markov transition only exists between consecutive
        executions).  Sequences never concatenate across each other.
        """
        col = self._task_ms.get(task)
        if col is None:
            return []
        n = self._n
        seqs = self._rows["seq"][:n].tolist()
        vals = col[:n].tolist()
        out: list[NDArray[np.float64]] = []
        run: list[float] = []
        prev_seq: int | None = None
        for s, v in zip(seqs, vals):
            if s != prev_seq:
                if run:
                    out.append(np.asarray(run))
                run = []
                prev_seq = s
            if v == v:
                run.append(v)
            elif run:
                out.append(np.asarray(run))
                run = []
        if run:
            out.append(np.asarray(run))
        return out

    def task_series_grouped(
        self, task: str, group_fn
    ) -> dict[object, list[NDArray[np.float64]]]:
        """Per-group consecutive-run series of a task's times.

        ``group_fn(record) -> key`` assigns each frame to a group
        (e.g. the ROI-granularity bit of its scenario); a run breaks
        at sequence boundaries, at frames where the task did not
        execute, *and* at group changes -- transitions across groups
        are not Markov-consistent within one group's chain.
        """
        out: dict[object, list[NDArray[np.float64]]] = {}
        run: list[float] = []
        run_key: object = None
        prev_seq: int | None = None

        def flush() -> None:
            nonlocal run
            if run:
                out.setdefault(run_key, []).append(np.asarray(run))
            run = []

        for r in self.records:
            if r.seq != prev_seq:
                flush()
                prev_seq = r.seq
                run_key = None
            if task in r.task_ms:
                key = group_fn(r)
                if key != run_key:
                    flush()
                    run_key = key
                run.append(r.task_ms[task])
            else:
                flush()
                run_key = None
        flush()
        return out

    def task_values(self, task: str) -> NDArray[np.float64]:
        """All run times of a task, concatenated (for distributions)."""
        series = self.task_series(task)
        if not series:
            return np.empty(0)
        return np.concatenate(series)

    def tasks(self) -> list[str]:
        """All task names appearing anywhere in the trace set."""
        return list(self._task_ms)

    def scenario_chains(self) -> list[NDArray[np.int64]]:
        """Per-sequence scenario-id chains (for the scenario table)."""
        n = self._n
        if n == 0:
            return []
        seqs = self._rows["seq"][:n]
        sids = self._rows["scenario_id"][:n].astype(np.int64)
        cuts = np.flatnonzero(seqs[1:] != seqs[:-1]) + 1
        return np.split(sids, cuts)

    def roi_series(self, task: str) -> list[tuple[NDArray[np.float64], NDArray[np.float64]]]:
        """Per-sequence (roi_kpixels, time_ms) pairs for a task.

        Input of the Eq. 3 linear growth fit: only frames where the
        task executed contribute, grouped per consecutive run as in
        :meth:`task_series`.
        """
        col = self._task_ms.get(task)
        if col is None:
            return []
        n = self._n
        seqs = self._rows["seq"][:n].tolist()
        rois = self._rows["roi_kpixels"][:n].tolist()
        vals = col[:n].tolist()
        out: list[tuple[NDArray[np.float64], NDArray[np.float64]]] = []
        roi: list[float] = []
        ms: list[float] = []

        def flush() -> None:
            nonlocal roi, ms
            if roi:
                out.append((np.asarray(roi), np.asarray(ms)))
            roi, ms = [], []

        prev_seq: int | None = None
        for s, r, v in zip(seqs, rois, vals):
            if s != prev_seq:
                flush()
                prev_seq = s
            if v == v:
                roi.append(r)
                ms.append(v)
            else:
                flush()
        flush()
        return out

    def latencies(self) -> NDArray[np.float64]:
        """Per-frame effective latency series (all sequences)."""
        return self._rows["latency_ms"][: self._n].copy()

    # -- persistence -----------------------------------------------------------

    def _json_meta(self) -> dict[str, object]:
        """The JSON-serializable subset of ``meta``.

        Non-serializable entries (e.g. the live bandwidth ledger
        ``profile_corpus`` attaches) are silently dropped.
        """
        meta: dict[str, object] = {}
        for k, v in self.meta.items():
            try:
                json.dumps(v)  # probe only: the output is discarded
            except (TypeError, ValueError):
                continue
            meta[k] = v
        return meta

    def save(self, path: str | Path) -> None:
        """Serialize to JSON plus a columnar ``.npz`` sidecar.

        The JSON file is byte-identical to the historical format and
        stays authoritative.  The sidecar at ``path.with_suffix(".npz")``
        is an uncompressed ``np.savez`` archive: ``header`` (provenance,
        task list, SHA-256 of the JSON text), ``rows`` (:data:`TRACE_DTYPE`)
        and ``task_ms`` (``(n_tasks, n)`` float64, NaN where a task did
        not run, rows in header task order).  :meth:`load` ignores it
        when it is stale or of another format version.
        """
        meta = self._json_meta()
        payload = {
            "pixel_scale": self.pixel_scale,
            "platform": self.platform,
            "workload": self.workload,
            "registry_version": self.registry_version,
            "meta": meta,
            "records": [asdict(r) for r in self.records],
        }
        text = json.dumps(payload, sort_keys=True)
        target = Path(path)
        target.write_text(text)
        n = self._n
        tasks = list(self._task_ms)
        header = {
            "format": _NPZ_FORMAT,
            "fingerprint": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "pixel_scale": self.pixel_scale,
            "platform": self.platform,
            "workload": self.workload,
            "registry_version": self.registry_version,
            "meta": meta,
            "tasks": tasks,
        }
        task_ms = np.array([self._task_ms[t][:n] for t in tasks], dtype=np.float64)
        np.savez(
            target.with_suffix(".npz"),
            header=np.asarray(json.dumps(header, sort_keys=True)),
            rows=self._rows[:n],
            task_ms=task_ms.reshape(len(tasks), n),
        )

    @staticmethod
    def _from_arrays(data, header: dict[str, object]) -> "TraceSet":
        """Rebuild a trace set from sidecar arrays (fast load path)."""
        rows = np.asarray(data["rows"])
        if rows.dtype != TRACE_DTYPE:
            raise ValueError("sidecar row layout mismatch")
        n = rows.shape[0]
        tasks = header.get("tasks", [])
        if not isinstance(tasks, list):
            raise ValueError("sidecar header 'tasks' must be a list")
        task_ms = np.asarray(data["task_ms"], dtype=np.float64)
        if task_ms.shape != (len(tasks), n):
            raise ValueError("sidecar task matrix shape mismatch")
        ts = TraceSet(
            pixel_scale=float(header["pixel_scale"]),
            platform=str(header["platform"]),
            meta=dict(header.get("meta", {})),
            workload=str(header.get("workload", "")),
            registry_version=str(header.get("registry_version", "")),
        )
        cap = max(n, _MIN_CAPACITY)
        ts._rows = np.zeros(cap, dtype=TRACE_DTYPE)
        ts._rows[:n] = rows
        ts._n = n
        # One block; each task column is a contiguous row view of it.
        columns = np.full((len(tasks), cap), np.nan)
        columns[:, :n] = task_ms
        ts._task_ms = {str(task): col for task, col in zip(tasks, columns)}
        return ts

    @staticmethod
    def load(path: str | Path) -> "TraceSet":
        """Inverse of :meth:`save`.

        Prefers the ``.npz`` sidecar when its fingerprint matches the
        JSON text on disk; any missing, stale, or malformed sidecar
        falls back to parsing the (authoritative) JSON records.
        """
        target = Path(path)
        text = target.read_text()
        sidecar = target.with_suffix(".npz")
        if sidecar.exists():
            fingerprint = hashlib.sha256(text.encode("utf-8")).hexdigest()
            try:
                with np.load(sidecar) as data:
                    header = json.loads(str(data["header"][()]))
                    if (
                        header.get("format") == _NPZ_FORMAT
                        and header.get("fingerprint") == fingerprint
                    ):
                        return TraceSet._from_arrays(data, header)
            except (OSError, KeyError, ValueError, BadZipFile):
                pass  # unreadable sidecar: the JSON below is authoritative
        payload = json.loads(text)
        ts = TraceSet(
            pixel_scale=float(payload["pixel_scale"]),
            platform=str(payload["platform"]),
            meta=dict(payload.get("meta", {})),
            workload=str(payload.get("workload", "")),
            registry_version=str(payload.get("registry_version", "")),
        )
        for r in payload["records"]:
            ts.append(TraceRecord(**r))
        return ts
