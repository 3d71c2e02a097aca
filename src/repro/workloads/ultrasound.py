"""Ultrasound/surveillance workload: abrupt heavy scenario switching.

A cardiac-ultrasound style pipeline -- beamforming, speckle
reduction, optional Doppler velocity estimation, structure tracking
and an anomaly detector -- whose scenario bits flip on *per-frame*
content thresholds with no hysteresis.  Where the robot-vision
workload drifts slowly between load levels, this one jumps: the
Doppler stage (the heaviest task in the graph) switches on and off
abruptly, which is exactly the regime where the paper's
scenario-conditioned Markov predictors beat global averages.

Bit reinterpretation:

* **bit2 -- DOP**: Doppler processing active (raw motion-energy
  threshold, evaluated fresh every frame).
* **bit1 -- SECT**: narrow-sector mode; speckle/Doppler run on the
  central sector only (the granularity switch).
* **bit0 -- HIT**: the detector fired this frame; the classification
  stage runs.

Deterministic and RNG-free, like every registered pipeline.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from repro.graph.flowgraph import Edge, FlowGraph
from repro.graph.task import PhaseSpec, TaskSpec
from repro.hw.cost import TaskCostSpec
from repro.imaging.common import BufferAccess, WorkReport
from repro.imaging.pipeline import FrameAnalysis, PipelineConfig, SwitchState
from repro.imaging.roi import Roi
from repro.synthetic.dataset import CorpusRanges, CorpusSpec, corpus_configs
from repro.synthetic.sequence import SequenceConfig, XRaySequence
from repro.workloads.base import FleetParams, ScenarioDynamics, Workload

__all__ = [
    "ULTRASOUND",
    "UltrasoundPipeline",
    "build_ultrasound_graph",
    "ULTRASOUND_TASK_COSTS",
]

#: Every bit compares a per-frame content statistic against its own
#: running mean -- self-normalizing (any corpus splits into both bit
#: values) and maximally abrupt (no smoothing, no hysteresis: a bit
#: can flip every frame).  The factors bias how often each bit is on.
_DOPPLER_FACTOR = 1.0
_SECTOR_FACTOR = 1.0
_DETECT_FACTOR = 1.0

#: Block edge for the denoised motion signal (per-pixel differences
#: are noise-dominated; block means expose the scene motion).
_MOTION_BLOCK = 8


def build_ultrasound_graph() -> FlowGraph:
    """Construct the ultrasound flow graph (Table-1-style specs)."""
    tasks: dict[str, TaskSpec] = {}

    def add(spec: TaskSpec) -> None:
        tasks[spec.name] = spec

    add(
        TaskSpec(
            "BEAMFORM",
            kind="stream",
            input_kb=2048,
            intermediate_kb=4096,
            output_kb=2048,
            divisible=True,
            phases=(
                PhaseSpec("delay", (("input", 2048), ("delayed", 4096))),
                PhaseSpec("sum", (("delayed", 4096), ("output", 2048))),
            ),
        )
    )
    add(
        TaskSpec(
            "SPECKLE_FULL",
            kind="stream",
            input_kb=2048,
            intermediate_kb=2048,
            output_kb=2048,
            divisible=True,
        )
    )
    add(
        TaskSpec(
            "SPECKLE_SECT",
            kind="stream",
            input_kb=2048,
            intermediate_kb=1024,
            output_kb=1024,
            divisible=True,
        )
    )
    add(
        TaskSpec(
            "DOPPLER_FULL",
            kind="stream",
            input_kb=2048,
            intermediate_kb=6144,
            output_kb=1024,
            divisible=True,
            phases=(
                PhaseSpec("ensemble", (("input", 2048), ("ensemble", 4096))),
                PhaseSpec(
                    "autocorr",
                    (("ensemble", 4096), ("phase", 2048), ("output", 1024)),
                ),
            ),
        )
    )
    add(
        TaskSpec(
            "DOPPLER_SECT",
            kind="stream",
            input_kb=1024,
            intermediate_kb=3072,
            output_kb=512,
            divisible=True,
            phases=(
                PhaseSpec("ensemble", (("input", 1024), ("ensemble", 2048))),
                PhaseSpec(
                    "autocorr",
                    (("ensemble", 2048), ("phase", 1024), ("output", 512)),
                ),
            ),
        )
    )
    add(
        TaskSpec(
            "TRACK",
            kind="feature",
            input_kb=0.5,
            intermediate_kb=0.5,
            output_kb=0.5,
        )
    )
    add(
        TaskSpec(
            "DETECT",
            kind="feature",
            input_kb=0.5,
            intermediate_kb=0.5,
            output_kb=0.5,
            functional_parallel=True,
        )
    )
    add(
        TaskSpec(
            "RENDER",
            kind="stream",
            input_kb=2048,
            intermediate_kb=2048,
            output_kb=4096,
        )
    )

    IN, OUT = FlowGraph.INPUT, FlowGraph.OUTPUT
    edges = [
        Edge(IN, "BEAMFORM", 2048),
        Edge("BEAMFORM", "SPECKLE_FULL", 2048),
        Edge("BEAMFORM", "SPECKLE_SECT", 2048),
        Edge("BEAMFORM", "DOPPLER_FULL", 2048),
        Edge("BEAMFORM", "DOPPLER_SECT", 1024),
        Edge("SPECKLE_FULL", "RENDER", 2048),
        Edge("SPECKLE_SECT", "RENDER", 1024),
        Edge("SPECKLE_FULL", "TRACK", 0.5),
        Edge("SPECKLE_SECT", "TRACK", 0.5),
        Edge("DOPPLER_FULL", "TRACK", 0.5),
        Edge("DOPPLER_SECT", "TRACK", 0.5),
        Edge("TRACK", "DETECT", 0.5),
        Edge("DETECT", "RENDER", 0.5),
        Edge("DOPPLER_FULL", "RENDER", 1024),
        Edge("DOPPLER_SECT", "RENDER", 512),
        Edge("RENDER", OUT, 4096),
    ]

    def activation(state: SwitchState) -> list[str]:
        doppler, sect, hit = state.rdg_on, state.roi_mode, state.reg_success
        names = ["BEAMFORM", "SPECKLE_SECT" if sect else "SPECKLE_FULL"]
        if doppler:
            names.append("DOPPLER_SECT" if sect else "DOPPLER_FULL")
        names.append("TRACK")
        if hit:
            names.append("DETECT")
        names.append("RENDER")
        return names

    return FlowGraph(tasks, edges, activation)


ULTRASOUND_TASK_COSTS: dict[str, TaskCostSpec] = {
    "BEAMFORM": TaskCostSpec(fixed_ms=0.5, per_kpixel_ms=0.006),
    "SPECKLE_FULL": TaskCostSpec(fixed_ms=0.7, per_kpixel_ms=0.007),
    "SPECKLE_SECT": TaskCostSpec(fixed_ms=0.7, per_kpixel_ms=0.007),
    "DOPPLER_FULL": TaskCostSpec(
        fixed_ms=1.6,
        per_kpixel_ms=0.010,
        per_count_ms={"echo_samples": 0.00006},
    ),
    "DOPPLER_SECT": TaskCostSpec(
        fixed_ms=1.6,
        per_kpixel_ms=0.010,
        per_count_ms={"echo_samples": 0.00006},
    ),
    "TRACK": TaskCostSpec(fixed_ms=0.9, per_count_ms={"track_points": 0.005}),
    "DETECT": TaskCostSpec(
        fixed_ms=0.8, per_count_ms={"detections": 0.08}
    ),
    "RENDER": TaskCostSpec(fixed_ms=1.0, per_kpixel_ms=0.005),
}


class UltrasoundPipeline:
    """Stateful per-frame executor of the ultrasound flow graph.

    All three bits are raw per-frame content thresholds -- no EWMA, no
    hysteresis, no streak counters -- so scenarios jump abruptly as the
    sequence's clutter/visibility schedule flips frame to frame.
    """

    def __init__(self, config: PipelineConfig | None = None) -> None:
        self.config = config or PipelineConfig()
        #: QoS quality level slot (runtime quality controller).
        self.quality = None
        self._sector: Roi | None = None
        self._prev: NDArray[np.float32] | None = None
        self._prev_blocks: NDArray[np.float32] | None = None
        self._motion_mean = 0.0
        self._conc_mean = 0.0
        self._peak_ratio_mean = 0.0
        self._n_frames_seen = 0
        self._frame_index = 0

    @property
    def roi(self) -> Roi | None:
        """Central sector the *next* frame will process (or None)."""
        return self._sector

    def reset(self) -> None:
        self._sector = None
        self._prev = None
        self._prev_blocks = None
        self._motion_mean = 0.0
        self._conc_mean = 0.0
        self._peak_ratio_mean = 0.0
        self._n_frames_seen = 0
        self._frame_index = 0

    @staticmethod
    def _central_sector(h: int, w: int) -> Roi:
        return Roi(row0=h // 4, col0=w // 4, row1=h - h // 4, col1=w - w // 4)

    @staticmethod
    def _block_mean(img: NDArray[np.float32]) -> NDArray[np.float32]:
        b = _MOTION_BLOCK
        h, w = img.shape
        trimmed = img[: h // b * b, : w // b * b]
        return trimmed.reshape(h // b, b, w // b, b).mean(axis=(1, 3))

    def _running(self, attr: str, value: float) -> float:
        """Update running mean ``attr`` with ``value``; return it."""
        mean = getattr(self, attr)
        mean += (value - mean) / self._n_frames_seen
        setattr(self, attr, mean)
        return mean

    def process(self, img: NDArray[np.float32]) -> FrameAnalysis:
        img = np.asarray(img, dtype=np.float32)
        h, w = img.shape
        frame_bytes = img.nbytes
        reports: dict[str, WorkReport] = {}
        self._n_frames_seen += 1

        # Per-frame block-motion energy against the previous frame:
        # the abrupt Doppler switch (raw comparison, no smoothing).
        blocks = self._block_mean(img)
        if self._prev_blocks is None or self._prev_blocks.shape != blocks.shape:
            motion = 0.0
        else:
            motion = float(np.mean(np.abs(blocks - self._prev_blocks)))
        self._prev_blocks = blocks
        doppler = motion > _DOPPLER_FACTOR * self._running(
            "_motion_mean", motion
        )

        sector_roi = self._sector
        sect_mode = sector_roi is not None
        region = img[sector_roi.slices] if sector_roi is not None else img
        suffix = "SECT" if sect_mode else "FULL"
        region_bytes = region.nbytes

        # BEAMFORM: always full frame.
        reports["BEAMFORM"] = WorkReport(
            task="BEAMFORM",
            pixels=img.size * 2,
            bytes_in=frame_bytes,
            bytes_out=frame_bytes,
            buffers=(
                BufferAccess("input", frame_bytes),
                BufferAccess("delayed", frame_bytes * 2),
                BufferAccess("output", frame_bytes),
            ),
        )

        # SPECKLE: despeckle at the current granularity.
        reports[f"SPECKLE_{suffix}"] = WorkReport(
            task=f"SPECKLE_{suffix}",
            pixels=region.size,
            bytes_in=region_bytes,
            bytes_out=region_bytes,
            buffers=(
                BufferAccess("input", region_bytes),
                BufferAccess("filtered", region_bytes),
                BufferAccess("output", region_bytes),
            ),
        )

        if doppler:
            # Echo ensemble over the moving pixels of the region.
            prev = self._prev if self._prev is not None else img
            prev_region = (
                prev[sector_roi.slices] if sector_roi is not None else prev
            )
            if prev_region.shape != region.shape:
                prev_region = region
            diff = np.abs(region - prev_region)
            n_echo = int(np.count_nonzero(diff > diff.mean())) * 4
            reports[f"DOPPLER_{suffix}"] = WorkReport(
                task=f"DOPPLER_{suffix}",
                pixels=region.size * 3,
                bytes_in=region_bytes,
                bytes_out=region_bytes // 2,
                buffers=(
                    BufferAccess("input", region_bytes),
                    BufferAccess("ensemble", region_bytes * 2),
                    BufferAccess("phase", region_bytes),
                    BufferAccess("output", region_bytes // 2),
                ),
                counts={"echo_samples": float(n_echo)},
            )

        # TRACK: wall/valve structure tracking over strong edges.
        gy, gx = np.gradient(region)
        magnitude = np.abs(gx) + np.abs(gy)
        mag_mean = float(magnitude.mean()) or 1.0
        n_track = int(np.count_nonzero(magnitude > 3.5 * mag_mean))
        reports["TRACK"] = WorkReport(
            task="TRACK",
            counts={"track_points": float(min(n_track, 512))},
        )

        # Per-frame detector: the dominant-peak ratio beats its own
        # running mean.
        peak_ratio = float(magnitude.max()) / mag_mean
        hit = peak_ratio > _DETECT_FACTOR * self._running(
            "_peak_ratio_mean", peak_ratio
        )
        if hit:
            n_det = max(1, n_track // 64)
            reports["DETECT"] = WorkReport(
                task="DETECT",
                counts={"detections": float(n_det)},
            )

        # RENDER: scan conversion always back to the full display.
        reports["RENDER"] = WorkReport(
            task="RENDER",
            pixels=img.size,
            bytes_in=region_bytes,
            bytes_out=frame_bytes * 2,
            buffers=(
                BufferAccess("input", region_bytes),
                BufferAccess("geometry", frame_bytes),
                BufferAccess("output", frame_bytes * 2),
            ),
        )

        # Next-frame sector decision: raw concentration test against
        # its own running mean, fresh every frame (enters *and*
        # leaves narrow-sector abruptly).
        central = self._central_sector(h, w)
        if sector_roi is None:
            # ``region is img``: TRACK already took the full-frame gradient.
            gy_f, gx_f, full_mag = gy, gx, magnitude
        else:
            gy_f, gx_f = np.gradient(img)
            full_mag = np.abs(gx_f) + np.abs(gy_f)
        full_energy = float(full_mag.sum()) or 1.0
        central_mag = (
            np.abs(gx_f[central.slices]) + np.abs(gy_f[central.slices])
        )
        concentration = float(central_mag.sum()) / full_energy
        sector_next = (
            central
            if concentration
            > _SECTOR_FACTOR * self._running("_conc_mean", concentration)
            else None
        )

        self._prev = img
        self._sector = sector_next
        switches = SwitchState(
            rdg_on=doppler, roi_mode=sect_mode, reg_success=bool(hit)
        )
        analysis = FrameAnalysis(
            index=self._frame_index,
            switches=switches,
            reports=reports,
            candidates=None,
            couple=None,
            transform=None,
            guidewire=None,
            roi_used=sector_roi,
            roi_next=sector_next,
            extras={
                "roi_kpixels": (
                    (sector_roi.pixels / 1000.0)
                    if sector_roi
                    else img.size / 1000.0
                ),
                "doppler_motion": motion,
            },
        )
        self._frame_index += 1
        return analysis


#: Abrupt corpus dynamics: short clutter periods, fast motion, many
#: visibility dips -- scenario flips happen within a handful of frames.
ULTRASOUND_RANGES = CorpusRanges(
    cardiac_period=(8.0, 16.0),
    cardiac_amp=(3.0, 8.0),
    resp_period=(40.0, 90.0),
    resp_amp=(2.0, 6.0),
    tremor_sigma=(0.4, 0.9),
    rotation_amp=(0.03, 0.12),
    dose=(0.4, 1.8),
    contrast_base=(0.2, 0.45),
    washout_frames=(30.0, 90.0),
    clutter_period=(20.0, 60.0),
    clutter_level=(0.5, 1.4),
    visibility_dips=(2, 6),
)


def _make_pipeline(
    sequence: XRaySequence, config: PipelineConfig | None = None
) -> UltrasoundPipeline:
    del sequence  # no per-sequence prior
    return UltrasoundPipeline(config)


def _corpus_configs(spec: CorpusSpec) -> list[SequenceConfig]:
    return corpus_configs(spec, ranges=ULTRASOUND_RANGES)


#: Fleet dynamics: screening/surveillance bursts -- short jobs whose
#: load state flips often (weak self-transition probabilities).
_FLEET = FleetParams(
    cores_choices=(1, 2, 4),
    state_base_ms=(60.0, 180.0, 420.0),
    transition=(
        (0.45, 0.40, 0.15),
        (0.35, 0.40, 0.25),
        (0.30, 0.40, 0.30),
    ),
    jitter_sigma=0.12,
    weight=0.10,
)

#: Switch dynamics: maximally abrupt -- every bit is a raw per-frame
#: threshold with no hysteresis, so stay probabilities sit near a
#: coin flip and the scenario can jump anywhere within a few frames.
_SCENARIOS = ScenarioDynamics(
    stay=(
        (0.55, 0.50),  # DOP: raw motion threshold, flips freely
        (0.60, 0.55),  # SECT: fresh concentration test every frame
        (0.70, 0.45),  # HIT: detector fires in short bursts
    ),
    initial_scenario=0,
)

ULTRASOUND = Workload(
    name="ultrasound",
    description=(
        "cardiac ultrasound screening: abrupt per-frame Doppler and "
        "sector switching with detector-gated classification"
    ),
    build_graph=build_ultrasound_graph,
    make_pipeline=_make_pipeline,
    corpus_configs=_corpus_configs,
    switch_names=("DOP", "SECT", "HIT"),
    fleet=_FLEET,
    task_costs=ULTRASOUND_TASK_COSTS,
    scenarios=_SCENARIOS,
)
