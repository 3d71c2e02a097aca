"""The benchmark's own span recorder and per-layer ledger.

Spans are recorded around calls *into* the program -- by wrapping the
functions and instance methods the benchmark hands the program --
never by the program itself.  ``repro.obs`` is deliberately not used:
turning it on changes which frame loop the engine runs.

A span's name is ``<layer>.<what>``; the benchmark's own timed calls
are ``bench.<call>`` roots.  Self time is a span's duration minus the
time its child spans cover, so the layers' self times add up to the
roots' wall time less the benchmark glue between child spans.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

#: The ``src/repro`` packages whose time the ledger attributes.
LAYERS = (
    "synthetic",
    "imaging",
    "hw",
    "profiling",
    "parallel",
    "core",
    "runtime",
    "obs",
    "fleet",
)

# Span record fields (lists, not objects: one allocation per span).
_ID, _PARENT, _NAME, _START, _END, _RUN = range(6)


class SpanRecorder:
    """Collects spans in memory; :meth:`write` dumps them as JSONL."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        #: Run id stamped on every span opened from now on.
        self.run = ""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name: str) -> list[Any]:
        stack = self._stack
        rec = [len(self.spans), stack[-1] if stack else -1, name, 0, 0, self.run]
        self.spans.append(rec)
        stack.append(rec[_ID])
        rec[_START] = time.perf_counter_ns()
        return rec

    def _close(self, rec: list[Any]) -> None:
        rec[_END] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``fn`` with every call recorded as span ``name``."""
        open_, close = self._open, self._close

        def traced(*args: Any, **kwargs: Any) -> Any:
            rec = open_(name)
            try:
                return fn(*args, **kwargs)
            finally:
                close(rec)

        return traced

    def instrument(self, obj: Any, methods: dict[str, str]) -> Any:
        """Shadow ``obj``'s methods (attribute -> span name) with
        recorded versions on the instance itself; returns ``obj``."""
        for attr, name in methods.items():
            setattr(obj, attr, self.wrap(getattr(obj, attr), name))
        return obj

    @contextmanager
    def patched(
        self, targets: Iterable[tuple[Any, str, str]]
    ) -> Iterator[None]:
        """Temporarily replace module or class attributes
        ``(owner, attribute, span name)`` with recorded versions.

        Originals are restored on exit, even when the body raises.
        """
        saved: list[tuple[Any, str, Any]] = []
        try:
            for owner, attr, name in targets:
                original = inspect.getattr_static(owner, attr)
                wrapped: Any = self.wrap(getattr(owner, attr), name)
                if isinstance(original, (staticmethod, classmethod)):
                    # getattr already bound a classmethod to its class.
                    wrapped = staticmethod(wrapped)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, run in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "run": run,
                        }
                    )
                    + "\n"
                )


class NullRecorder:
    """The untraced run's recorder: no spans, no wrappers."""

    enabled = False
    run = ""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    def instrument(self, obj: Any, methods: dict[str, str]) -> Any:
        return obj

    @contextmanager
    def patched(
        self, targets: Iterable[tuple[Any, str, str]]
    ) -> Iterator[None]:
        yield


class Ledger:
    """Self times and call counts of a finished recording.

    ``reference_run`` is the run-id prefix of the passes whose call
    counts are reported: counts summed over however many passes
    fitted in the time budget would not repeat.
    """

    def __init__(self, spans: list[list[Any]], reference_run: str) -> None:
        covered = [0] * len(spans)
        for rec in spans:
            if rec[_PARENT] >= 0:
                covered[rec[_PARENT]] += rec[_END] - rec[_START]
        self.loop_wall_ns = 0
        #: Per root name: summed wall time of those calls.
        self._root_wall: dict[str, int] = {}
        #: Per (root name, layer): self time spent under such roots.
        self._under_root: dict[tuple[str, str], int] = {}
        root_name: list[str] = []
        self.layer_self_ns = dict.fromkeys(LAYERS, 0)
        self._self_ns: dict[str, int] = {}
        self._durations: dict[str, list[int]] = {}
        self._calls: dict[str, int] = {}
        for rec in spans:
            name = rec[_NAME]
            dur = rec[_END] - rec[_START]
            self_ns = dur - covered[rec[_ID]]
            if rec[_PARENT] < 0:
                self.loop_wall_ns += dur
                self._root_wall[name] = self._root_wall.get(name, 0) + dur
                root_name.append(name)
            else:
                # Parents precede their children in the recording.
                root_name.append(root_name[rec[_PARENT]])
            layer = name.split(".", 1)[0]
            if layer in self.layer_self_ns:
                self.layer_self_ns[layer] += self_ns
                key = (root_name[-1], layer)
                self._under_root[key] = self._under_root.get(key, 0) + self_ns
            self._self_ns[name] = self._self_ns.get(name, 0) + self_ns
            self._durations.setdefault(name, []).append(dur)
            if rec[_RUN].startswith(reference_run):
                self._calls[name] = self._calls.get(name, 0) + 1

    def share(self, layer: str) -> float:
        """Layer self time over the traced loop's wall time."""
        return _ratio(self.layer_self_ns[layer], self.loop_wall_ns)

    def root_share(self, layer: str, root: str) -> float:
        """Layer self time over the wall time of the ``root`` calls."""
        return _ratio(self._under_root.get((root, layer), 0), self._root_wall.get(root, 0))

    def coverage(self, root: str | None = None) -> float:
        """Share of the traced loop's wall time the layers account for
        (of the ``root`` calls' wall time only, when given)."""
        if root is None:
            return _ratio(sum(self.layer_self_ns.values()), self.loop_wall_ns)
        return sum(self.root_share(layer, root) for layer in LAYERS)

    def name_share(self, name: str) -> float:
        return _ratio(self._self_ns.get(name, 0), self.loop_wall_ns)

    def self_ms(self, name: str) -> float:
        """Mean self time of one call of span ``name`` (ms)."""
        n = len(self._durations.get(name, ()))
        return self._self_ns.get(name, 0) / n / 1e6 if n else 0.0

    def mean_ms(self, name: str) -> float:
        durs = self._durations.get(name, ())
        return sum(durs) / len(durs) / 1e6 if durs else 0.0

    def quantile_ms(self, name: str, q: float) -> float:
        durs = sorted(self._durations.get(name, ()))
        if not durs:
            return 0.0
        return durs[min(len(durs) - 1, int(q * len(durs)))] / 1e6

    def n(self, name: str) -> int:
        return len(self._durations.get(name, ()))

    def calls(self, name: str) -> int:
        return self._calls.get(name, 0)

    def per_name(self) -> dict[str, dict[str, float]]:
        """Every span name's totals, for the ``layers.json`` ledger."""
        return {
            name: {
                "n": len(durs),
                "self_ms": self._self_ns[name] / 1e6,
                "mean_ms": statistics.fmean(durs) / 1e6,
                "p50_ms": self.quantile_ms(name, 0.5),
                "p90_ms": self.quantile_ms(name, 0.9),
                "share": self.name_share(name),
            }
            for name, durs in sorted(self._durations.items())
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
