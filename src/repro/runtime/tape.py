"""Frame tapes: a sequence's analysis pass, recorded once.

Running a sequence through the engine interleaves two very different
kinds of work: the *image* pass (``pipeline.process`` on every frame)
and the *scheduling* pass (predict, partition, simulate, observe).
A :class:`FrameTape` records the image pass -- every
:class:`~repro.imaging.pipeline.FrameAnalysis` plus the ROI size that
was visible at planning time -- so the scheduling pass can be re-run
on its own: through the batched engine (:meth:`FrameEngine.run_tape`)
or through the scalar loop (``batched=False``: bit-exact replay, the
reference the parity suites compare against).

The planning-time ROI needs care: the scalar loop plans frame ``k``
*before* processing it, so the policy sees the ROI tracker state left
by frame ``k - 1``.  :func:`record_tape` reads the ROI at exactly
that point (after the optional per-frame setup hook, before
``process``), which is what makes replays reproduce the scalar run's
plans byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.hw.cost import ReportColumns
from repro.imaging.pipeline import AnalysisPipeline, FrameAnalysis
from repro.synthetic.sequence import XRaySequence

__all__ = ["FrameTape", "TapeTaskColumns", "record_tape"]


@dataclass(frozen=True)
class TapeTaskColumns:
    """One task's executions over a tape, in columnar form.

    Attributes
    ----------
    reports:
        The task's work reports, one per execution (frame order).
    frames:
        Frame index of each execution (``intp``).
    indices:
        ``analysis.index`` of each execution, as *python* ints -- the
        values the scalar loop puts in its jitter frame keys.
    columns:
        The reports' raw numbers (:class:`~repro.hw.cost.ReportColumns`),
        extracted once per tape.
    """

    reports: tuple
    frames: np.ndarray
    indices: tuple[int, ...]
    columns: ReportColumns


@dataclass(frozen=True)
class FrameTape:
    """One sequence's recorded analysis pass.

    Attributes
    ----------
    analyses:
        Per-frame pipeline output, in frame order.
    plan_roi_px:
        Pixels the policy would size its prediction with at planning
        time (the tracked ROI of the previous frame, or the full
        frame) -- ``int64``, one entry per frame.
    """

    analyses: tuple[FrameAnalysis, ...]
    plan_roi_px: np.ndarray

    def __post_init__(self) -> None:
        if self.plan_roi_px.shape != (len(self.analyses),):
            raise ValueError("plan_roi_px must have one entry per frame")
        # Column caches (see cost_columns / scenario_ids); a plain
        # mutable container so the frozen value fields stay frozen.
        object.__setattr__(self, "_cache", {})

    def __len__(self) -> int:
        return len(self.analyses)

    def cost_columns(self) -> dict[str, TapeTaskColumns]:
        """Per-task columnar report data, extracted once and cached.

        Tasks appear in first-appearance order across the tape -- the
        order the scalar loop first sees them in.
        """
        cached = self._cache.get("cost_columns")
        if cached is None:
            grouped: dict[str, tuple[list, list, list]] = {}
            for k, analysis in enumerate(self.analyses):
                index = analysis.index
                for name, report in analysis.reports.items():
                    entry = grouped.get(name)
                    if entry is None:
                        entry = ([], [], [])
                        grouped[name] = entry
                    entry[0].append(report)
                    entry[1].append(k)
                    entry[2].append(index)
            cached = {
                name: TapeTaskColumns(
                    reports=tuple(reports),
                    frames=np.asarray(ks, dtype=np.intp),
                    indices=tuple(indices),
                    columns=ReportColumns(reports),
                )
                for name, (reports, ks, indices) in grouped.items()
            }
            self._cache["cost_columns"] = cached
        return cached

    def scenario_ids(self) -> np.ndarray:
        """Per-frame ``analysis.scenario_id`` column (``int16``, cached)."""
        cached = self._cache.get("scenario_ids")
        if cached is None:
            analyses = self.analyses
            cached = np.fromiter(
                (a.scenario_id for a in analyses), dtype=np.int16, count=len(analyses)
            )
            self._cache["scenario_ids"] = cached
        return cached


def record_tape(
    sequence: XRaySequence,
    pipeline: AnalysisPipeline,
    frame_setup: Callable[[AnalysisPipeline], None] | None = None,
) -> FrameTape:
    """Run the image pass of ``sequence`` and record it as a tape.

    ``frame_setup`` is the per-frame hook some policies install (e.g.
    fig3's forced full-frame granularity); it runs before each frame's
    ROI is read, exactly where the scalar loop would run it.  The
    pipeline is consumed: its tracker state advances as in a live run.
    """
    n = len(sequence)
    roi_px = np.empty(n, dtype=np.int64)
    analyses: list[FrameAnalysis] = []
    for k, (img, _truth) in enumerate(sequence.iter_frames()):
        if frame_setup is not None:
            frame_setup(pipeline)
        roi = pipeline.roi
        roi_px[k] = roi.pixels if roi is not None else img.size
        analyses.append(pipeline.process(img))
    return FrameTape(analyses=tuple(analyses), plan_roi_px=roi_px)


class _TapeImage:
    """Image stand-in: policies only ever read ``img.size``."""

    __slots__ = ("size",)

    def __init__(self, size: int) -> None:
        self.size = size


class _TapeRoi:
    __slots__ = ("pixels",)

    def __init__(self, pixels: int) -> None:
        self.pixels = pixels


class TapePipeline:
    """Pipeline stand-in that replays a tape's recorded analyses.

    ``roi`` exposes the recorded planning-time ROI of the next frame;
    ``process`` returns that frame's recorded analysis and advances.
    Together with :class:`TapeSequence` this lets the unmodified
    scalar engine loop re-run a tape bit-exactly.
    """

    def __init__(self, tape: FrameTape) -> None:
        self._tape = tape
        self._cursor = 0
        #: QoS slot required by the AnalysisPipeline protocol; replay
        #: is pre-recorded, so writes have no effect on the analyses.
        self.quality = None

    @property
    def roi(self) -> _TapeRoi:
        return _TapeRoi(int(self._tape.plan_roi_px[self._cursor]))

    def reset(self) -> None:
        self._cursor = 0

    def process(self, img: object) -> FrameAnalysis:  # noqa: ARG002
        k = self._cursor
        self._cursor = k + 1
        return self._tape.analyses[k]


class TapeSequence:
    """Sequence stand-in yielding placeholder images over a tape."""

    def __init__(self, tape: FrameTape) -> None:
        self._tape = tape

    def __len__(self) -> int:
        return len(self._tape)

    def iter_frames(self) -> Iterator[tuple[_TapeImage, None]]:
        plan_roi_px = self._tape.plan_roi_px
        for px in plan_roi_px:
            yield _TapeImage(int(px)), None
