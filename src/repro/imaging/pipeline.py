"""StentBoost pipeline: the Fig. 2 flow graph with its three switches.

The application is dynamic in exactly the three ways Section 3 lists:

1. an ROI of data-dependent size is chosen for further analysis
   (switch **ROI ESTIMATED**: RDG/MKX run at ROI granularity once a
   couple has been found and validated);
2. switch functions select a specific flow graph depending on previous
   stages (switch **RDG DETECTION**: the ridge pre-filter runs only
   when dominant background structures are present; switch
   **REG. SUCCESSFUL**: enhancement and zoom run only when temporal
   registration met the motion criterion);
3. some internal graphs have intrinsically variable processing time
   (couples selection, guide-wire extraction).

Each processed frame yields a :class:`FrameAnalysis` with the work
reports of every executed task -- the raw material both for profiling
(model training) and for the platform simulation that turns work into
simulated computation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Protocol, runtime_checkable

import numpy as np
from numpy.typing import NDArray

from repro.imaging.common import WorkReport
from repro.imaging.couples import CoupleResult, select_couple
from repro.imaging.enhance import TemporalEnhancer
from repro.imaging.guidewire import GuidewireResult, extract_guidewire
from repro.imaging.markers import MarkerCandidates, extract_markers
from repro.imaging.registration import RigidTransform, register_couples
from repro.imaging.ridge import ridge_filter, structure_precheck
from repro.imaging.roi import Roi, estimate_roi
from repro.imaging.zoom import DeferredZoom, zoom_report

__all__ = [
    "PipelineConfig",
    "SwitchState",
    "FrameAnalysis",
    "AnalysisPipeline",
    "StentBoostPipeline",
]


@dataclass(frozen=True)
class PipelineConfig:
    """Tunables of the StentBoost pipeline.

    Attributes
    ----------
    expected_distance:
        A-priori balloon-marker separation in pixels (clinical prior).
    max_candidates:
        Cap on marker candidates kept per frame.
    enhancer_decay:
        Temporal-integration blending weight.
    roi_margin_factor:
        ROI half-extent as a multiple of the marker separation.
    reset_after_lost:
        Consecutive couple-less frames after which the reference
        geometry and the integrator are dropped (track reacquisition).
    """

    expected_distance: float = 24.0
    max_candidates: int = 32
    enhancer_decay: float = 0.2
    roi_margin_factor: float = 1.6
    reset_after_lost: int = 5


@dataclass(frozen=True)
class SwitchState:
    """The three data-dependent switch outcomes of one frame."""

    rdg_on: bool
    roi_mode: bool
    reg_success: bool

    @property
    def scenario_id(self) -> int:
        """Scenario index in [0, 8): bit2=RDG, bit1=ROI, bit0=REG."""
        return (
            (4 if self.rdg_on else 0)
            + (2 if self.roi_mode else 0)
            + (1 if self.reg_success else 0)
        )

    @staticmethod
    def from_scenario_id(scenario_id: int) -> "SwitchState":
        """Inverse of :attr:`scenario_id`."""
        if not 0 <= scenario_id < 8:
            raise ValueError("scenario_id must be in [0, 8)")
        return SwitchState(
            rdg_on=bool(scenario_id & 4),
            roi_mode=bool(scenario_id & 2),
            reg_success=bool(scenario_id & 1),
        )


@dataclass
class FrameAnalysis:
    """Everything the pipeline produced for one frame.

    The presentation image is the one product nothing downstream of the
    pipeline needs to compute timing: the ZOOM work report is derived
    from shapes when the frame is processed, and ``render`` (``None``
    when the frame has no output) produces the zoomed pixels on first
    read of :attr:`output`.
    """

    index: int
    switches: SwitchState
    reports: dict[str, WorkReport]
    candidates: MarkerCandidates | None
    couple: CoupleResult | None
    transform: RigidTransform | None
    guidewire: GuidewireResult | None
    roi_used: Roi | None
    roi_next: Roi | None
    extras: dict[str, float] = field(default_factory=dict)
    render: DeferredZoom | None = None

    @cached_property
    def output(self) -> NDArray[np.float32] | None:
        """The zoomed presentation image, rendered once on first read."""
        return None if self.render is None else self.render()

    @property
    def scenario_id(self) -> int:
        return self.switches.scenario_id

    def executed_tasks(self) -> list[str]:
        """Names of the tasks that ran this frame, in graph order."""
        return list(self.reports.keys())


@runtime_checkable
class AnalysisPipeline(Protocol):
    """What the runtime engine needs from any workload's pipeline.

    A stateful per-frame executor: ``process`` runs one frame through
    the application's flow graph and returns the frame's work reports
    (plus ``extras["roi_kpixels"]``); ``roi`` exposes the region the
    *next* frame will be processed at (``None`` means full frame),
    which is the engine's planning-time granularity signal; ``quality``
    is the optional QoS level slot the quality controller writes.

    :class:`StentBoostPipeline` is the reference implementation; the
    ``repro.workloads`` registry supplies one implementation per
    registered application.
    """

    quality: Any

    @property
    def roi(self) -> Roi | None: ...

    def reset(self) -> None: ...

    def process(self, img: NDArray[np.float32]) -> FrameAnalysis: ...


class StentBoostPipeline:
    """Stateful per-frame executor of the Fig. 2 flow graph.

    The pipeline carries exactly the state the application needs
    across frames: the current ROI (granularity switch), the reference
    marker couple (registration target / enhancement geometry), the
    temporal integrator, and the couple-loss counter.
    """

    def __init__(self, config: PipelineConfig | None = None) -> None:
        self.config = config or PipelineConfig()
        self.enhancer = TemporalEnhancer(decay=self.config.enhancer_decay)
        #: Optional QoS quality level (see repro.runtime.quality); when
        #: set, it overrides the ridge scale set and candidate cap.
        self.quality = None
        self._roi: Roi | None = None
        self._ref_couple: CoupleResult | None = None
        self._prev_couple: CoupleResult | None = None
        self._lost_frames = 0
        self._frame_index = 0

    # -- state inspection ---------------------------------------------------

    @property
    def roi(self) -> Roi | None:
        """ROI that the *next* frame will be processed at (or None)."""
        return self._roi

    @property
    def reference_couple(self) -> CoupleResult | None:
        """Reference geometry for registration/enhancement."""
        return self._ref_couple

    def reset(self) -> None:
        """Return to the initial full-frame, no-reference state."""
        self.enhancer.reset()
        self._roi = None
        self._ref_couple = None
        self._prev_couple = None
        self._lost_frames = 0
        self._frame_index = 0

    # -- execution ----------------------------------------------------------

    def process(self, img: NDArray[np.float32]) -> FrameAnalysis:
        """Run one frame through the flow graph."""
        cfg = self.config
        img = np.asarray(img, dtype=np.float32)
        reports: dict[str, WorkReport] = {}

        # Switch 1: RDG DETECTION -- cheap structure pre-check.
        rdg_on, rep = structure_precheck(img)
        reports[rep.task] = rep

        # Switch 2: ROI ESTIMATED -- granularity of RDG/MKX.
        roi_used = self._roi
        roi_mode = roi_used is not None
        region = img[roi_used.slices] if roi_used is not None else img
        suffix = "ROI" if roi_mode else "FULL"

        # RDG (optional) and MKX EXT at the selected granularity; the
        # QoS quality level (if any) sets the scale count and the
        # candidate cap.
        ridge = None
        quality = self.quality
        if rdg_on:
            if quality is not None:
                ridge, rep = ridge_filter(
                    region, scales=quality.rdg_scales, task=f"RDG_{suffix}"
                )
            else:
                ridge, rep = ridge_filter(region, task=f"RDG_{suffix}")
            reports[rep.task] = rep
        # Table 1 distinguishes the MKX variant reading the
        # ridge-filtered stream ("RDG select x") from the plain one.
        mkx_task = f"MKX_{suffix}_RDG" if rdg_on else f"MKX_{suffix}"
        max_cands = cfg.max_candidates
        if quality is not None:
            max_cands = min(max_cands, quality.max_candidates)
        candidates, rep = extract_markers(
            region,
            ridge=ridge,
            max_candidates=max_cands,
            task=mkx_task,
        )
        reports[rep.task] = rep
        if roi_used is not None and len(candidates) > 0:
            # Lift candidate coordinates from ROI-local to frame coords
            # so couples/registration state is granularity-independent.
            candidates.positions[:, 0] += roi_used.row0
            candidates.positions[:, 1] += roi_used.col0

        # CPLS SEL.
        couple, rep = select_couple(candidates, cfg.expected_distance)
        reports[rep.task] = rep

        # REG against the reference geometry (first stable couple).
        reference = self._ref_couple if self._ref_couple is not None else couple
        transform, rep = register_couples(couple, reference, cfg.expected_distance)
        reports[rep.task] = rep
        reg_success = transform.success and couple.found

        guidewire: GuidewireResult | None = None
        roi_next: Roi | None = None
        render: DeferredZoom | None = None

        if reg_success:
            # Success path: ROI EST -> GW EXT -> ENH -> ZOOM.
            roi_next, rep = estimate_roi(
                couple, img.shape, margin_factor=cfg.roi_margin_factor
            )
            reports[rep.task] = rep

            guidewire, rep = extract_guidewire(
                img, couple.marker_a, couple.marker_b
            )
            reports[rep.task] = rep

            enhanced, rep = self.enhancer.enhance(img, transform)
            reports[rep.task] = rep

            # Fixed presentation size: Table 1 gives ZOOM a constant
            # 4,096 KB output (2x the frame bytes -> sqrt(2) linear),
            # which is why Table 2(b) models ZOOM as a constant cost.
            out_shape = (
                int(round(img.shape[0] * np.sqrt(2.0))),
                int(round(img.shape[1] * np.sqrt(2.0))),
            )
            # The report needs only shapes; the pixels are rendered
            # from a copy of the window when ``output`` is first read.
            window = enhanced[roi_next.slices].copy()
            rep = zoom_report(window.shape, out_shape)
            reports[rep.task] = rep
            render = DeferredZoom(window, out_shape)

            if self._ref_couple is None:
                self._ref_couple = couple
            self._lost_frames = 0
            # Keep ROI tracking only while the guide wire confirms the
            # couple; otherwise fall back to full-frame search.
            self._roi = roi_next if guidewire.stable else None
        else:
            self._lost_frames += 1
            self._roi = None
            if self._lost_frames >= cfg.reset_after_lost:
                # Track lost: drop reference and integrator so the
                # next detection re-initializes the geometry.
                self._ref_couple = None
                self.enhancer.reset()

        self._prev_couple = couple
        switches = SwitchState(
            rdg_on=rdg_on, roi_mode=roi_mode, reg_success=bool(reg_success)
        )
        analysis = FrameAnalysis(
            index=self._frame_index,
            switches=switches,
            reports=reports,
            candidates=candidates,
            couple=couple,
            transform=transform,
            guidewire=guidewire,
            roi_used=roi_used,
            roi_next=roi_next,
            extras={
                "roi_kpixels": (roi_used.pixels / 1000.0) if roi_used else img.size / 1000.0,
                "lost_frames": float(self._lost_frames),
            },
            render=render,
        )
        self._frame_index += 1
        return analysis
