"""Per-frame rendering of a synthetic angiography sequence.

A sequence composes the static phantom layers with four time-varying
content drivers, each of which maps onto a dynamic behaviour the paper
relies on:

* **motion** (cardiac + respiratory) -- drives registration success
  and ROI position/size, i.e. the SW "REG. SUCCESSFUL" and
  "ROI ESTIMATED" switches of Fig. 2;
* **contrast phase** (agent injection / wash-out) -- slow structural
  drift in vessel prominence, hence in ridge-pixel counts: the
  long-term, EWMA-trackable component of RDG computation time;
* **clutter activity** -- whether "other dominant structures" are
  present, driving the "RDG DETECTION" switch;
* **marker visibility** -- occasional dips cause marker-extraction /
  couples-selection failures and scenario changes.

Rendering one 256x256 frame costs about 2.6 ms and building a
sequence's phantom about 4.7 ms (robotvision corpus, one core of a
2-vCPU Intel Xeon container, Python 3.11, numpy 2.4), so the
1,921-frame training corpus renders in about 5 s.  Through scipy's
``ndimage.shift``/``ndimage.zoom`` and full-frame tube canvases the
same frame cost 3.1 ms and the phantom 7.3 ms; the numpy kernels of
:mod:`repro.synthetic.interp` render the same pixels byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from numpy.typing import NDArray

from repro.synthetic.interp import shift_linear_nearest
from repro.synthetic.motion import MotionModel, MotionSpec, RigidOffset
from repro.synthetic.noise import NoiseSpec, apply_xray_noise
from repro.synthetic.phantom import (
    PhantomSpec,
    build_phantom,
    polyline_tube,
    stamp_gaussian_blob,
)
from repro.util.rng import rng_stream

__all__ = ["SequenceConfig", "FrameTruth", "XRaySequence"]


@dataclass(frozen=True)
class SequenceConfig:
    """Everything needed to deterministically regenerate a sequence.

    Attributes
    ----------
    width, height, n_frames, seed:
        Geometry, length and the root seed of the sequence.
    phantom:
        Static anatomy parameters (seeded from ``seed`` when its own
        seed is left at the default 0).
    motion:
        Rigid-motion parameters.
    noise:
        X-ray noise parameters.
    contrast_base:
        Vessel attenuation multiplier before injection.
    injection_frame:
        Frame at which contrast agent arrives (-1: no injection, the
        vessels stay at ``contrast_base``).
    washout_frames:
        Time constant of the post-injection exponential wash-out.
    clutter_period:
        Period in frames of the slow clutter-activity oscillation.
    clutter_level:
        Peak clutter amplitude multiplier; the RDG switch activates
        when instantaneous clutter activity exceeds
        :data:`CLUTTER_RDG_THRESHOLD`.
    visibility_dips:
        Number of random marker-visibility dips over the sequence.
    """

    width: int = 256
    height: int = 256
    n_frames: int = 60
    seed: int = 0
    phantom: PhantomSpec | None = None
    motion: MotionSpec = field(default_factory=MotionSpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    contrast_base: float = 0.35
    injection_frame: int = 10
    washout_frames: float = 140.0
    clutter_period: float = 90.0
    clutter_level: float = 1.0
    visibility_dips: int = 1

    def resolved_phantom(self) -> PhantomSpec:
        """Phantom spec with geometry scaled to the frame size."""
        if self.phantom is not None:
            return self.phantom
        scale = self.width / 256.0
        return PhantomSpec(
            width=self.width,
            height=self.height,
            marker_separation=24.0 * scale,
            marker_sigma=max(1.2, 1.8 * scale),
            vessel_width=max(1.5, 2.5 * scale),
            seed=self.seed,
        )


#: Clutter activity above which the "RDG DETECTION" pre-check fires.
CLUTTER_RDG_THRESHOLD: float = 0.55


@dataclass(frozen=True)
class FrameTruth:
    """Ground truth accompanying each rendered frame."""

    index: int
    marker_a: tuple[float, float]
    marker_b: tuple[float, float]
    offset: RigidOffset
    contrast: float
    clutter_activity: float
    marker_visibility: float


class XRaySequence:
    """Lazy, deterministic frame generator for one sequence.

    ``frame(k)`` is a pure function of ``(config, k)``: frames may be
    generated in any order, in parallel workers, or regenerated later
    with identical results.
    """

    def __init__(self, config: SequenceConfig) -> None:
        self.config = config
        self._marker_sigma = config.resolved_phantom().marker_sigma
        self.phantom = build_phantom(config.resolved_phantom())
        self.motion = MotionModel(config.motion, config.n_frames, config.seed)
        self._static = np.stack(
            [self.phantom.background, self.phantom.vessels, self.phantom.clutter]
        )
        self._visibility = self._visibility_schedule()

    # -- content schedules -------------------------------------------------

    def _visibility_schedule(self) -> NDArray[np.float64]:
        """Marker visibility in [0.15, 1], with smooth random dips."""
        n = self.config.n_frames
        vis = np.ones(n)
        rng = rng_stream(self.config.seed, "visibility")
        for _ in range(self.config.visibility_dips):
            centre = rng.uniform(0.15 * n, 0.9 * n)
            width = rng.uniform(3.0, 9.0)
            depth = rng.uniform(0.45, 0.85)
            k = np.arange(n)
            vis -= depth * np.exp(-((k - centre) ** 2) / (2 * width**2))
        return np.clip(vis, 0.15, 1.0)

    def contrast(self, k: int) -> float:
        """Vessel contrast multiplier at frame ``k`` (injection curve)."""
        c = self.config
        level = c.contrast_base
        if 0 <= c.injection_frame <= k:
            t = k - c.injection_frame
            rise = 1.0 - np.exp(-t / 6.0)
            decay = np.exp(-t / c.washout_frames)
            level = c.contrast_base + (1.0 - c.contrast_base) * rise * decay
        return float(level)

    def clutter_activity(self, k: int) -> float:
        """Slow oscillation of background-structure prominence."""
        c = self.config
        phase = 2.0 * np.pi * k / c.clutter_period
        base = 0.5 * (1.0 + np.sin(phase + self.config.seed % 7))
        return float(np.clip(c.clutter_level * base, 0.0, 1.2))

    def marker_visibility(self, k: int) -> float:
        """Marker visibility multiplier at frame ``k``."""
        return float(self._visibility[k])

    # -- rendering ----------------------------------------------------------

    def truth(self, k: int) -> FrameTruth:
        """Ground truth of frame ``k`` without rendering pixels."""
        off = self.motion.offset(k)
        centre = self.phantom.extras["centre"]
        ma = off.apply(self.phantom.marker_a, centre)
        mb = off.apply(self.phantom.marker_b, centre)
        return FrameTruth(
            index=k,
            marker_a=ma,
            marker_b=mb,
            offset=off,
            contrast=self.contrast(k),
            clutter_activity=self.clutter_activity(k),
            marker_visibility=self.marker_visibility(k),
        )

    def frame(self, k: int) -> tuple[NDArray[np.float32], FrameTruth]:
        """Render frame ``k``: returns (image float32 [0,1], truth)."""
        truth = self.truth(k)
        off = truth.offset
        h, w = self.config.height, self.config.width
        centre = self.phantom.extras["centre"]

        # Background + vessels + clutter translate rigidly.  Compose
        # the frame's scene *first* (cheap in-place arithmetic), then
        # shift the single composed layer once.  The shift is an exact
        # numpy re-implementation of scipy's order-1 ``nearest``
        # resampler (same float64 taps, weights and summation order),
        # so the pixels are byte-identical to ``ndimage.shift``.
        scene = self._static[0] - truth.contrast * self._static[1]
        scene -= truth.clutter_activity * self._static[2]
        img = shift_linear_nearest(scene, off.dy, off.dx)

        # Stent + wire + markers follow the full rigid transform
        # (rotation included) and are re-stamped analytically.
        def tf(p: NDArray[np.float64]) -> NDArray[np.float64]:
            pts = np.array([off.apply((float(a), float(b)), centre) for a, b in p])
            return pts

        # Each tube is subtracted inside its bounding box only: outside
        # it the full-frame canvas held exact zeros.
        tube, window = polyline_tube(
            (h, w), tf(self.phantom.extras["wire_pts"]), width_sigma=0.9, amplitude=0.22
        )
        img[window] -= truth.marker_visibility * tube
        strut_weight = 0.5 * truth.marker_visibility
        for strut in self.phantom.extras["stent_struts"]:
            tube, window = polyline_tube(
                (h, w), tf(strut), width_sigma=0.7, amplitude=0.06
            )
            img[window] -= strut_weight * tube
        amp = 0.45 * truth.marker_visibility
        stamp_gaussian_blob(img, truth.marker_a, self._marker_sigma, -amp)
        stamp_gaussian_blob(img, truth.marker_b, self._marker_sigma, -amp)

        np.clip(img, 0.02, 1.0, out=img)
        noisy = apply_xray_noise(
            img, self.config.noise, rng_stream(self.config.seed, "noise", k)
        )
        return noisy, truth

    def __len__(self) -> int:
        return self.config.n_frames

    def iter_frames(self) -> Iterator[tuple[NDArray[np.float32], FrameTruth]]:
        """Yield all frames in order."""
        for k in range(self.config.n_frames):
            yield self.frame(k)
