"""Static anatomy phantom: vessels, stent, markers, guide wire.

X-ray fluoroscopy images are *attenuation* images: dense structures
(contrast-filled vessels, metal markers, the guide wire) appear dark
on a brighter soft-tissue background.  We compose the phantom as a sum
of attenuation layers on a smooth background so per-frame rendering
can scale each layer independently (contrast agent washes in and out,
marker visibility varies) before noise is applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray
from scipy import ndimage

from repro.synthetic.interp import zoom_cubic
from repro.util.rng import rng_stream

__all__ = [
    "PhantomSpec",
    "Phantom",
    "build_phantom",
    "stamp_gaussian_blob",
    "polyline_tube",
    "rasterize_polyline",
]


@dataclass(frozen=True)
class PhantomSpec:
    """Geometry and composition of the static phantom.

    Attributes
    ----------
    width, height:
        Frame geometry in pixels.
    n_vessels:
        Number of contrast-filled vessel branches.
    n_clutter:
        Number of extra elongated background structures (ribs, sternal
        wires, catheters).  These are the "other dominant structures"
        whose presence activates the ridge-detection pre-filter switch
        in the Fig. 2 flow graph.
    marker_separation:
        Distance in pixels between the two balloon markers (the
        a-priori known distance used by couples selection).
    marker_sigma:
        Gaussian radius of a balloon marker in pixels.
    vessel_width:
        Nominal vessel half-width in pixels.
    seed:
        Geometry seed (layout only; noise is seeded separately).
    """

    width: int = 256
    height: int = 256
    n_vessels: int = 3
    n_clutter: int = 2
    marker_separation: float = 24.0
    marker_sigma: float = 1.8
    vessel_width: float = 2.5
    seed: int = 0


@dataclass
class Phantom:
    """Rendered static layers of the anatomy (float32, HxW each).

    All layers are *attenuation* maps in [0, 1]: larger means darker in
    the final image.  ``marker_a``/``marker_b`` are canonical marker
    centre positions (row, col); per-frame motion displaces them.
    """

    spec: PhantomSpec
    background: NDArray[np.float32]
    vessels: NDArray[np.float32]
    clutter: NDArray[np.float32]
    stent: NDArray[np.float32]
    wire: NDArray[np.float32]
    marker_a: tuple[float, float]
    marker_b: tuple[float, float]
    extras: dict[str, object] = field(default_factory=dict)


def stamp_gaussian_blob(
    img: NDArray[np.float32],
    center: tuple[float, float],
    sigma: float,
    amplitude: float,
    truncate: float = 4.0,
) -> None:
    """Add an analytic Gaussian blob to ``img`` in place.

    Only the local window of ``+- truncate * sigma`` pixels is touched,
    so stamping stays O(sigma^2) regardless of frame size (a cache
    friendliness idiom: never touch the full frame for a local mark).
    """
    h, w = img.shape
    cy, cx = center
    r = max(1, int(np.ceil(truncate * sigma)))
    y0, y1 = max(0, int(cy) - r), min(h, int(cy) + r + 1)
    x0, x1 = max(0, int(cx) - r), min(w, int(cx) + r + 1)
    if y0 >= y1 or x0 >= x1:
        return
    yy = np.arange(y0, y1, dtype=np.float32)[:, None] - np.float32(cy)
    xx = np.arange(x0, x1, dtype=np.float32)[None, :] - np.float32(cx)
    img[y0:y1, x0:x1] += amplitude * np.exp(
        -(yy * yy + xx * xx) / np.float32(2.0 * sigma * sigma)
    )


def polyline_tube(
    shape: tuple[int, int],
    points: NDArray[np.float64],
    width_sigma: float,
    amplitude: float = 1.0,
) -> tuple[NDArray[np.float32], tuple[slice, slice]]:
    """Rasterize a polyline as a soft tube of Gaussian cross-section.

    The polyline is densely resampled (about one sample per half pixel),
    hit pixels are accumulated on a binary canvas, and a Gaussian blur
    gives the tube its width.  This is how vessels, clutter structures,
    the guide wire and the stent struts are drawn.

    Only the polyline's bounding box (+4 sigma margin, clipped to
    ``shape``) is rendered: returns ``(tube, window)``, the tube over
    that box and the ``(rows, cols)`` slices of the box in a ``shape``
    frame.  A caller composing layers adds or subtracts ``tube`` into
    ``img[window]`` -- outside the box it would only add exact zeros --
    so per-frame re-stamping of the moving wire and stent costs
    O(structure area), not O(frame area).
    """
    h, w = shape
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("points must be (N>=2, 2) array of (row, col)")
    # Dense resampling: segment lengths decide the sample count.
    seg = np.diff(pts, axis=0)
    seglen = np.hypot(seg[:, 0], seg[:, 1])
    total = float(seglen.sum())
    n_samples = max(2, int(total * 2.0))
    t = np.linspace(0.0, 1.0, n_samples)
    cum = np.concatenate([[0.0], np.cumsum(seglen)]) / max(total, 1e-9)
    rows = np.interp(t, cum, pts[:, 0])
    cols = np.interp(t, cum, pts[:, 1])
    ri = np.clip(np.round(rows).astype(np.intp), 0, h - 1)
    ci = np.clip(np.round(cols).astype(np.intp), 0, w - 1)
    margin = int(np.ceil(4.0 * width_sigma)) + 1
    y0 = max(0, int(ri.min()) - margin)
    y1 = min(h, int(ri.max()) + margin + 1)
    x0 = max(0, int(ci.min()) - margin)
    x1 = min(w, int(ci.max()) + margin + 1)
    sub = np.zeros((y1 - y0, x1 - x0), dtype=np.float32)
    # Accumulate without a Python loop; duplicated hits saturate to 1.
    sub[ri - y0, ci - x0] = 1.0
    tube = ndimage.gaussian_filter(sub, sigma=width_sigma)
    peak = float(tube.max())
    if peak > 0:
        tube *= np.float32(amplitude / peak)
    return tube, (slice(y0, y1), slice(x0, x1))


def rasterize_polyline(
    shape: tuple[int, int],
    points: NDArray[np.float64],
    width_sigma: float,
    amplitude: float = 1.0,
) -> NDArray[np.float32]:
    """:func:`polyline_tube` placed on a zeroed full-frame canvas."""
    tube, window = polyline_tube(shape, points, width_sigma, amplitude)
    canvas = np.zeros(shape, dtype=np.float32)
    canvas[window] = tube
    return canvas


def _bezier(
    p0: NDArray[np.float64],
    p1: NDArray[np.float64],
    p2: NDArray[np.float64],
    n: int = 24,
) -> NDArray[np.float64]:
    """Quadratic Bezier control polygon sampled at ``n`` points."""
    t = np.linspace(0.0, 1.0, n)[:, None]
    return (1 - t) ** 2 * p0 + 2 * (1 - t) * t * p1 + t**2 * p2


def _random_curve(
    rng: np.random.Generator, h: int, w: int, margin: float = 0.08
) -> NDArray[np.float64]:
    """A random smooth curve crossing the frame (vessel / clutter)."""
    m = np.array([h * margin, w * margin])
    lo, hi = m, np.array([h, w]) - m
    p0 = rng.uniform(lo, hi)
    p2 = rng.uniform(lo, hi)
    mid = (p0 + p2) / 2.0
    bend = rng.normal(0.0, 0.18) * np.array([h, w])
    p1 = np.clip(mid + bend, lo, hi)
    return _bezier(p0, p1, p2)


def _smooth_background(
    rng: np.random.Generator, h: int, w: int
) -> NDArray[np.float32]:
    """Low-frequency soft-tissue background in [0.55, 0.9]."""
    coarse = rng.normal(0.0, 1.0, size=(max(4, h // 32), max(4, w // 32)))
    field_ = zoom_cubic(coarse, (h, w))
    field_ -= field_.min()
    rngspan = float(field_.max()) or 1.0
    base = 0.55 + 0.35 * (field_ / rngspan)
    return base.astype(np.float32)


def build_phantom(spec: PhantomSpec) -> Phantom:
    """Build all static layers for ``spec`` (deterministic in seed)."""
    h, w = spec.height, spec.width
    geo = rng_stream(spec.seed, "phantom-geometry")

    background = _smooth_background(geo, h, w)

    vessels = np.zeros((h, w), dtype=np.float32)
    for _ in range(spec.n_vessels):
        curve = _random_curve(geo, h, w)
        tube, window = polyline_tube(
            (h, w), curve, width_sigma=spec.vessel_width, amplitude=0.28
        )
        vessels[window] += tube
    np.clip(vessels, 0.0, 0.45, out=vessels)

    clutter = np.zeros((h, w), dtype=np.float32)
    for _ in range(spec.n_clutter):
        curve = _random_curve(geo, h, w)
        tube, window = polyline_tube(
            (h, w), curve, width_sigma=spec.vessel_width * 0.8, amplitude=0.18
        )
        clutter[window] += tube
    np.clip(clutter, 0.0, 0.35, out=clutter)

    # Balloon markers sit near the frame centre on a random axis.
    centre = np.array([h / 2.0, w / 2.0])
    centre += geo.uniform(-0.08, 0.08, size=2) * np.array([h, w])
    axis_angle = geo.uniform(0.0, np.pi)
    axis = np.array([np.sin(axis_angle), np.cos(axis_angle)])
    half = axis * spec.marker_separation / 2.0
    marker_a = tuple(centre - half)
    marker_b = tuple(centre + half)

    # Guide wire: gentle arc through both markers, extended beyond them.
    over = axis * spec.marker_separation * 1.6
    sag = np.array([-axis[1], axis[0]]) * spec.marker_separation * 0.25
    wire_pts = np.stack(
        [
            centre - over,
            centre - half + sag * 0.5,
            centre + sag,
            centre + half + sag * 0.5,
            centre + over,
        ]
    )
    wire = rasterize_polyline((h, w), wire_pts, width_sigma=0.9, amplitude=0.30)

    # Stent: a faint diamond mesh spanning the inter-marker segment.
    stent = np.zeros((h, w), dtype=np.float32)
    n_struts = 5
    perp = np.array([-axis[1], axis[0]])
    struts: list[NDArray[np.float64]] = []
    for i in range(n_struts):
        t0 = i / (n_struts - 1) - 0.5
        off = perp * t0 * spec.marker_separation * 0.35
        strut = np.stack([centre - half + off, centre + half + off])
        struts.append(strut)
        tube, window = polyline_tube((h, w), strut, width_sigma=0.7, amplitude=0.06)
        stent[window] += tube
    np.clip(stent, 0.0, 0.12, out=stent)

    extras: dict[str, object] = {
        "centre": (float(centre[0]), float(centre[1])),
        "axis": (float(axis[0]), float(axis[1])),
        "wire_pts": wire_pts,
        "stent_struts": struts,
    }

    return Phantom(
        extras=extras,
        spec=spec,
        background=background,
        vessels=vessels,
        clutter=clutter,
        stent=stent,
        wire=wire,
        marker_a=(float(marker_a[0]), float(marker_a[1])),
        marker_b=(float(marker_b[0]), float(marker_b[1])),
    )
