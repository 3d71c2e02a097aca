"""Robot-vision workload: slow navigation-driven load drift.

A humanoid-robot visual navigation pipeline in the spirit of the
resource-prediction-for-humanoid-robots line of work referenced by
PAPERS.md: acquisition, feature extraction, optical flow, obstacle
segmentation, localization, path planning and a visualization
overlay.  The three scenario bits are reinterpreted as

* **bit2 -- NAV**: navigation active; the optical-flow tasks run.
  Driven by a slowly-moving EWMA of inter-frame motion energy with
  hysteresis, so the bit flips on the *tens-of-frames* timescale --
  the "slow drift" dynamics this workload contributes (contrast the
  per-frame switching of the ultrasound workload).
* **bit1 -- WIN**: feature/flow tasks run on a tracked window
  instead of the full frame (granularity switch, like StentBoost's
  ROI bit), entered after a short lock streak.
* **bit0 -- LOCK**: a navigation target is locked this frame; the
  planner and the visualization overlay run.

All decisions are deterministic functions of the frame content --
there is no randomness in the pipeline, so profiled traces stay bit
reproducible.
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
    "ROBOTVISION",
    "RobotVisionPipeline",
    "build_robotvision_graph",
    "ROBOTVISION_TASK_COSTS",
]

#: EWMA weight of the motion-energy tracker (small: slow drift).
_MOTION_ALPHA = 0.08

#: Hysteresis band around the long-run motion mean for the NAV bit.
#: The block-averaged motion signal swings roughly +-13% around its
#: mean on the synthetic corpora, so a +-2% band toggles a few times
#: per sequence -- slowly, because the EWMA has to cross it.
_NAV_ON_FACTOR = 1.02
_NAV_OFF_FACTOR = 0.98

#: Block edge for the denoised motion signal: per-pixel frame
#: differences are noise-dominated, block means are not.
_MOTION_BLOCK = 8

#: Consecutive locked frames before window mode engages.
_LOCK_STREAK_FOR_WINDOW = 3

#: Tracked-window half-edge in pixels.
_WINDOW_HALF = 48


def build_robotvision_graph() -> FlowGraph:
    """Construct the robot-vision flow graph.

    Buffer sizes follow the Table 1 convention: KB at the native
    1024x1024 x 2 B geometry, with the flow tasks reading two frames
    (current + previous) and the planner operating on token-sized
    feature data.
    """
    tasks: dict[str, TaskSpec] = {}

    def add(spec: TaskSpec) -> None:
        tasks[spec.name] = spec

    add(
        TaskSpec(
            "ACQ",
            kind="stream",
            input_kb=2048,
            intermediate_kb=512,
            output_kb=2048,
        )
    )
    add(
        TaskSpec(
            "FEAT_FULL",
            kind="stream",
            input_kb=2048,
            intermediate_kb=2048,
            output_kb=512,
            divisible=True,
            phases=(
                PhaseSpec("grad", (("input", 2048), ("gradients", 2048))),
                PhaseSpec("peaks", (("gradients", 2048), ("output", 512))),
            ),
        )
    )
    add(
        TaskSpec(
            "FEAT_WIN",
            kind="stream",
            input_kb=2048,
            intermediate_kb=1024,
            output_kb=512,
            divisible=True,
            phases=(
                PhaseSpec("grad", (("input", 2048), ("gradients", 1024))),
                PhaseSpec("peaks", (("gradients", 1024), ("output", 512))),
            ),
        )
    )
    add(
        TaskSpec(
            "FLOW_FULL",
            kind="stream",
            input_kb=4096,  # two frames
            intermediate_kb=6144,
            output_kb=1024,
            divisible=True,
            phases=(
                PhaseSpec("pyramid", (("input", 4096), ("pyramid", 3072))),
                PhaseSpec(
                    "match",
                    (("pyramid", 3072), ("vectors", 3072), ("output", 1024)),
                ),
            ),
        )
    )
    add(
        TaskSpec(
            "FLOW_WIN",
            kind="stream",
            input_kb=1024,
            intermediate_kb=1536,
            output_kb=256,
            divisible=True,
            phases=(
                PhaseSpec("pyramid", (("input", 1024), ("pyramid", 768))),
                PhaseSpec(
                    "match",
                    (("pyramid", 768), ("vectors", 768), ("output", 256)),
                ),
            ),
        )
    )
    add(
        TaskSpec(
            "OBST",
            kind="stream",
            input_kb=2048,
            intermediate_kb=2048,
            output_kb=256,
            divisible=True,
        )
    )
    add(
        TaskSpec(
            "LOC",
            kind="feature",
            input_kb=0.5,
            intermediate_kb=0.5,
            output_kb=0.5,
        )
    )
    add(
        TaskSpec(
            "PLAN",
            kind="feature",
            input_kb=0.5,
            intermediate_kb=0.5,
            output_kb=0.5,
            functional_parallel=True,
        )
    )
    add(
        TaskSpec(
            "VIS",
            kind="stream",
            input_kb=2048,
            intermediate_kb=1024,
            output_kb=2048,
        )
    )

    IN, OUT = FlowGraph.INPUT, FlowGraph.OUTPUT
    edges = [
        Edge(IN, "ACQ", 2048),
        Edge("ACQ", "FEAT_FULL", 2048),
        Edge("ACQ", "FEAT_WIN", 2048),
        # Flow reads the current frame plus the previous one.
        Edge("ACQ", "FLOW_FULL", 2048),
        Edge(IN, "FLOW_FULL", 2048),
        Edge("ACQ", "FLOW_WIN", 1024),
        Edge("ACQ", "OBST", 2048),
        # Feature-domain stream (token-sized).
        Edge("FEAT_FULL", "LOC", 0.5),
        Edge("FEAT_WIN", "LOC", 0.5),
        Edge("FLOW_FULL", "LOC", 0.5),
        Edge("FLOW_WIN", "LOC", 0.5),
        Edge("OBST", "PLAN", 0.25),
        Edge("LOC", "PLAN", 0.5),
        Edge("PLAN", "VIS", 0.5),
        Edge("ACQ", "VIS", 2048),
        Edge("VIS", OUT, 2048),
    ]

    def activation(state: SwitchState) -> list[str]:
        nav, win, locked = state.rdg_on, state.roi_mode, state.reg_success
        names = ["ACQ", "FEAT_WIN" if win else "FEAT_FULL"]
        if nav:
            names.append("FLOW_WIN" if win else "FLOW_FULL")
        names += ["OBST", "LOC"]
        if locked:
            names += ["PLAN", "VIS"]
        return names

    return FlowGraph(tasks, edges, activation)


#: Calibrated so full-frame feature+flow frames land in the tens of
#: milliseconds at native geometry -- the same order as StentBoost.
ROBOTVISION_TASK_COSTS: dict[str, TaskCostSpec] = {
    "ACQ": TaskCostSpec(fixed_ms=0.3, per_kpixel_ms=0.002),
    "FEAT_FULL": TaskCostSpec(
        fixed_ms=0.8, per_kpixel_ms=0.008, per_count_ms={"candidates": 0.008}
    ),
    "FEAT_WIN": TaskCostSpec(
        fixed_ms=0.8, per_kpixel_ms=0.008, per_count_ms={"candidates": 0.008}
    ),
    "FLOW_FULL": TaskCostSpec(
        fixed_ms=1.4,
        per_kpixel_ms=0.011,
        per_count_ms={"flow_vectors": 0.00009},
    ),
    "FLOW_WIN": TaskCostSpec(
        fixed_ms=1.4,
        per_kpixel_ms=0.011,
        per_count_ms={"flow_vectors": 0.00009},
    ),
    "OBST": TaskCostSpec(
        fixed_ms=0.6, per_kpixel_ms=0.004, per_count_ms={"detections": 0.05}
    ),
    "LOC": TaskCostSpec(fixed_ms=1.1, per_count_ms={"track_points": 0.004}),
    "PLAN": TaskCostSpec(fixed_ms=0.7, per_count_ms={"plan_cells": 0.0012}),
    "VIS": TaskCostSpec(fixed_ms=0.9, per_kpixel_ms=0.0042),
}


class RobotVisionPipeline:
    """Stateful per-frame executor of the robot-vision flow graph.

    Deterministic content-driven switching: the NAV bit follows a
    slow EWMA of inter-frame motion energy with hysteresis, the WIN
    bit engages after a short lock streak (and tracks the strongest
    feature), and the LOCK bit is the per-frame peak test.
    """

    def __init__(self, config: PipelineConfig | None = None) -> None:
        self.config = config or PipelineConfig()
        #: QoS quality level slot (runtime quality controller).
        self.quality = None
        self._window: Roi | None = None
        self._prev: NDArray[np.float32] | None = None
        self._prev_blocks: NDArray[np.float32] | None = None
        self._motion_ewma = 0.0
        self._motion_mean = 0.0
        self._n_energy = 0
        self._peak_ratio_mean = 0.0
        self._n_frames_seen = 0
        self._nav_active = False
        self._locked = False
        self._raw_lock_streak = 0
        self._raw_unlock_streak = 0
        self._lock_streak = 0
        self._frame_index = 0

    @property
    def roi(self) -> Roi | None:
        """Tracked window the *next* frame will process (or None)."""
        return self._window

    def reset(self) -> None:
        self._window = None
        self._prev = None
        self._prev_blocks = None
        self._motion_ewma = 0.0
        self._motion_mean = 0.0
        self._n_energy = 0
        self._peak_ratio_mean = 0.0
        self._n_frames_seen = 0
        self._nav_active = False
        self._locked = False
        self._raw_lock_streak = 0
        self._raw_unlock_streak = 0
        self._lock_streak = 0
        self._frame_index = 0

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _block_mean(img: NDArray[np.float32]) -> NDArray[np.float32]:
        b = _MOTION_BLOCK
        h, w = img.shape
        trimmed = img[: h // b * b, : w // b * b]
        return trimmed.reshape(h // b, b, w // b, b).mean(axis=(1, 3))

    def _update_motion(self, img: NDArray[np.float32]) -> float:
        """Advance the slow motion-energy trackers; return raw energy."""
        blocks = self._block_mean(img)
        prev_blocks = self._prev_blocks
        self._prev_blocks = blocks
        self._n_frames_seen += 1
        if prev_blocks is None or prev_blocks.shape != blocks.shape:
            # No motion sample yet: leave the trackers untouched (a
            # zero sample would permanently bias the long-run mean).
            return 0.0
        energy = float(np.mean(np.abs(blocks - prev_blocks)))
        self._n_energy += 1
        n = self._n_energy
        # Long-run mean (normalizer) and short-run EWMA (the signal).
        self._motion_mean += (energy - self._motion_mean) / n
        if n == 1:
            self._motion_ewma = energy
        else:
            self._motion_ewma += _MOTION_ALPHA * (energy - self._motion_ewma)
        # Hysteresis around the long-run mean: slow, sticky switching.
        if self._nav_active:
            if self._motion_ewma < _NAV_OFF_FACTOR * self._motion_mean:
                self._nav_active = False
        elif self._motion_ewma > _NAV_ON_FACTOR * self._motion_mean:
            self._nav_active = True
        return energy

    # -- execution ----------------------------------------------------------

    def process(self, img: NDArray[np.float32]) -> FrameAnalysis:
        img = np.asarray(img, dtype=np.float32)
        h, w = img.shape
        frame_bytes = img.nbytes
        reports: dict[str, WorkReport] = {}

        self._update_motion(img)
        nav = self._nav_active

        window = self._window
        win_mode = window is not None
        region = img[window.slices] if window is not None else img
        suffix = "WIN" if win_mode else "FULL"
        region_bytes = region.nbytes

        # ACQ: debayer/normalize the full frame.
        reports["ACQ"] = WorkReport(
            task="ACQ",
            pixels=img.size,
            bytes_in=frame_bytes,
            bytes_out=frame_bytes,
            buffers=(
                BufferAccess("input", frame_bytes),
                BufferAccess("output", frame_bytes),
            ),
        )

        # FEAT: gradient response + peak screening at the granularity.
        # The gradient is evaluated on the full frame so the lock
        # statistic below means the same thing in both granularities;
        # the FEAT task itself only *processes* the active region.
        gy, gx = np.gradient(img)
        mag_full = np.abs(gx) + np.abs(gy)
        magnitude = mag_full[window.slices] if window is not None else mag_full
        mag_mean = float(magnitude.mean())
        threshold = 3.0 * mag_mean
        n_candidates = int(np.count_nonzero(magnitude > threshold))
        reports[f"FEAT_{suffix}"] = WorkReport(
            task=f"FEAT_{suffix}",
            pixels=region.size * 2,
            bytes_in=region_bytes,
            bytes_out=region_bytes // 4,
            buffers=(
                BufferAccess("input", region_bytes),
                BufferAccess("gradients", region_bytes * 2),
                BufferAccess("output", region_bytes // 4),
            ),
            counts={"candidates": float(n_candidates)},
        )

        # FLOW (navigation only): block matching against the previous
        # frame; the vector count is the moving-pixel population.
        if nav:
            prev = self._prev if self._prev is not None else img
            prev_region = (
                prev[window.slices] if window is not None else prev
            )
            if prev_region.shape != region.shape:
                prev_region = region
            moving = np.abs(region - prev_region)
            n_vectors = int(np.count_nonzero(moving > 2.0 * moving.mean()))
            reports[f"FLOW_{suffix}"] = WorkReport(
                task=f"FLOW_{suffix}",
                pixels=region.size * 2,
                bytes_in=region_bytes * 2,
                bytes_out=region_bytes // 2,
                buffers=(
                    BufferAccess("input", region_bytes * 2),
                    BufferAccess("pyramid", int(region_bytes * 1.5)),
                    BufferAccess("vectors", int(region_bytes * 1.5)),
                    BufferAccess("output", region_bytes // 2),
                ),
                counts={"flow_vectors": float(n_vectors)},
            )

        # OBST: full-frame obstacle segmentation (row-band proxy).
        row_energy = np.abs(np.diff(img, axis=0)).mean(axis=1)
        n_detections = int(np.count_nonzero(row_energy > 1.5 * row_energy.mean()))
        reports["OBST"] = WorkReport(
            task="OBST",
            pixels=img.size,
            bytes_in=frame_bytes,
            bytes_out=frame_bytes // 8,
            buffers=(
                BufferAccess("input", frame_bytes),
                BufferAccess("labels", frame_bytes),
                BufferAccess("output", frame_bytes // 8),
            ),
            counts={"detections": float(n_detections)},
        )

        # LOC: pose update over the tracked features.
        n_track = min(n_candidates, 256)
        reports["LOC"] = WorkReport(
            task="LOC",
            counts={"track_points": float(n_track)},
        )

        # Lock state: the full-frame dominant-peak ratio beats its own
        # running mean (self-normalizing), debounced by a two-frame
        # streak in both directions -- the bit is sticky, in keeping
        # with this workload's slow dynamics.
        full_mean = float(mag_full.mean())
        peak_ratio = (
            float(mag_full.max()) / full_mean if full_mean > 0.0 else 0.0
        )
        self._peak_ratio_mean += (
            peak_ratio - self._peak_ratio_mean
        ) / self._n_frames_seen
        if peak_ratio > self._peak_ratio_mean:
            self._raw_lock_streak += 1
            self._raw_unlock_streak = 0
        else:
            self._raw_unlock_streak += 1
            self._raw_lock_streak = 0
        if not self._locked and self._raw_lock_streak >= 2:
            self._locked = True
        elif self._locked and self._raw_unlock_streak >= 2:
            self._locked = False
        locked = self._locked
        self._lock_streak = self._lock_streak + 1 if locked else 0

        roi_next: Roi | None = None
        if locked and self._lock_streak >= _LOCK_STREAK_FOR_WINDOW:
            # Track the strongest feature with a fixed-size window.
            flat = int(np.argmax(mag_full))
            r_loc, c_loc = divmod(flat, w)
            r0 = min(max(r_loc - _WINDOW_HALF, 0), max(h - 2 * _WINDOW_HALF, 0))
            c0 = min(max(c_loc - _WINDOW_HALF, 0), max(w - 2 * _WINDOW_HALF, 0))
            roi_next = Roi(
                row0=r0,
                col0=c0,
                row1=min(r0 + 2 * _WINDOW_HALF, h),
                col1=min(c0 + 2 * _WINDOW_HALF, w),
            )

        if locked:
            # PLAN: occupancy-grid path search over the obstacle map.
            n_cells = (h // 8) * (w // 8) + 16 * n_detections
            reports["PLAN"] = WorkReport(
                task="PLAN",
                counts={"plan_cells": float(n_cells)},
            )
            # VIS: overlay rendering at full frame.
            reports["VIS"] = WorkReport(
                task="VIS",
                pixels=img.size,
                bytes_in=frame_bytes,
                bytes_out=frame_bytes,
                buffers=(
                    BufferAccess("input", frame_bytes),
                    BufferAccess("overlay", frame_bytes // 2),
                    BufferAccess("output", frame_bytes),
                ),
            )

        self._prev = img
        self._window = roi_next
        switches = SwitchState(
            rdg_on=nav, roi_mode=win_mode, reg_success=bool(locked)
        )
        analysis = FrameAnalysis(
            index=self._frame_index,
            switches=switches,
            reports=reports,
            candidates=None,
            couple=None,
            transform=None,
            guidewire=None,
            roi_used=window,
            roi_next=roi_next,
            extras={
                "roi_kpixels": (
                    (window.pixels / 1000.0) if window else img.size / 1000.0
                ),
                "lock_streak": float(self._lock_streak),
            },
        )
        self._frame_index += 1
        return analysis


#: Slow-drift corpus dynamics: long clutter/washout periods, gentle
#: motion -- load changes unfold over many frames.
ROBOTVISION_RANGES = CorpusRanges(
    cardiac_period=(40.0, 70.0),
    cardiac_amp=(1.0, 3.0),
    resp_period=(150.0, 260.0),
    resp_amp=(4.0, 10.0),
    tremor_sigma=(0.1, 0.3),
    rotation_amp=(0.01, 0.05),
    dose=(0.8, 1.6),
    contrast_base=(0.3, 0.5),
    washout_frames=(160.0, 320.0),
    clutter_period=(150.0, 300.0),
    clutter_level=(0.4, 0.9),
    visibility_dips=(0, 2),
)


def _make_pipeline(
    sequence: XRaySequence, config: PipelineConfig | None = None
) -> RobotVisionPipeline:
    del sequence  # no per-sequence prior
    return RobotVisionPipeline(config)


def _corpus_configs(spec: CorpusSpec) -> list[SequenceConfig]:
    return corpus_configs(spec, ranges=ROBOTVISION_RANGES)


#: Fleet dynamics: navigation epochs drift slowly, so the Markov
#: states are very sticky and runtimes sit between the live and
#: batch StentBoost classes.
_FLEET = FleetParams(
    cores_choices=(2, 3, 4),
    state_base_ms=(320.0, 520.0),
    transition=(
        (0.90, 0.10),
        (0.12, 0.88),
    ),
    jitter_sigma=0.08,
    weight=0.30,
)

#: Switch dynamics: navigation drifts slowly -- the NAV bit follows
#: a hysteretic EWMA, windowed tracking engages after a lock streak,
#: and the LOCK bit, once achieved, is very persistent.
_SCENARIOS = ScenarioDynamics(
    stay=(
        (0.95, 0.95),  # NAV: slow drift between navigation regimes
        (0.90, 0.93),  # WIN: windowed mode engages after a streak
        (0.60, 0.97),  # LOCK: locks on within frames, then holds
    ),
    initial_scenario=0,
)

ROBOTVISION = Workload(
    name="robotvision",
    description=(
        "robot visual navigation: slow EWMA-driven load drift with "
        "window-tracked features and lock-gated planning"
    ),
    build_graph=build_robotvision_graph,
    make_pipeline=_make_pipeline,
    corpus_configs=_corpus_configs,
    switch_names=("NAV", "WIN", "LOCK"),
    fleet=_FLEET,
    task_costs=ROBOTVISION_TASK_COSTS,
    scenarios=_SCENARIOS,
)
