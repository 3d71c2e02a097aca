"""Zoom (ZOOM) -- magnified presentation of the enhanced ROI.

"The output is presented by zooming in the ROI containing the stent"
(Section 3).  The enhanced ROI window is interpolated up to a fixed
presentation size with spline interpolation; the output pixel count
(not the ROI size) dominates the task's cost, which is why the paper
models ZOOM with a constant 12.5 ms (Table 2b).

The task's work depends only on shapes: :func:`zoom_report` derives
the ZOOM :class:`WorkReport` from the window and output shapes, and
:func:`zoom_roi` (which does the interpolation) returns exactly that
report.  Nothing that turns work into time reads the zoomed pixels,
so the pipeline records the report eagerly and keeps a
:class:`DeferredZoom` that renders the pixels on first read of
:attr:`repro.imaging.pipeline.FrameAnalysis.output`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy import ndimage

from repro.imaging.common import BufferAccess, WorkReport
from repro.imaging.roi import Roi

__all__ = ["DeferredZoom", "zoom_report", "zoom_roi"]

#: Presentation magnification relative to the frame (2x linear zoom of
#: a half-frame ROI fills the display).
DEFAULT_OUTPUT_SCALE: float = 2.0


def zoom_report(
    window_shape: tuple[int, ...], output_shape: tuple[int, int]
) -> WorkReport:
    """The ZOOM work report for magnifying a window to ``output_shape``.

    ``ndimage.zoom`` with ``grid_mode=True`` returns exactly the
    requested shape, so the report of a render is known before (and
    without) rendering.  Raises ``ValueError`` for an empty window.
    """
    wh, ww = window_shape
    in_px = wh * ww
    if in_px == 0:
        raise ValueError("ROI does not intersect the frame")
    out_px = output_shape[0] * output_shape[1]
    return WorkReport(
        task="ZOOM",
        pixels=out_px,  # cost scales with *output* samples
        bytes_in=in_px * 2,
        bytes_out=out_px * 2,
        buffers=(
            BufferAccess("input", in_px * 2),
            BufferAccess("spline", in_px * 4, passes=2.0),
            BufferAccess("output", out_px * 2),
        ),
        counts={"roi_kpixels": in_px / 1000.0, "out_kpixels": out_px / 1000.0},
    )


def zoom_roi(
    enhanced: NDArray[np.float32],
    roi: Roi,
    output_shape: tuple[int, int] | None = None,
    order: int = 3,
) -> tuple[NDArray[np.float32], WorkReport]:
    """Magnify the enhanced ROI to the presentation size.

    Parameters
    ----------
    enhanced:
        Full enhanced frame from :class:`TemporalEnhancer`.
    roi:
        Region to present.
    output_shape:
        Target (height, width); defaults to twice the ROI extent.
    order:
        Spline interpolation order (3 = bicubic, the clinical default).

    Returns
    -------
    (zoomed, WorkReport) -- the report is :func:`zoom_report`'s.
    """
    enhanced = np.asarray(enhanced, dtype=np.float32)
    window = enhanced[roi.slices]
    if output_shape is None:
        output_shape = (
            int(round(roi.height * DEFAULT_OUTPUT_SCALE)),
            int(round(roi.width * DEFAULT_OUTPUT_SCALE)),
        )
    report = zoom_report(window.shape, output_shape)
    zh, zw = output_shape
    factors = (zh / window.shape[0], zw / window.shape[1])
    zoomed = ndimage.zoom(window, factors, order=order, grid_mode=True, mode="nearest")
    # ndimage.zoom rounds the output shape; enforce it exactly.
    zoomed = zoomed[:zh, :zw].astype(np.float32, copy=False)
    return zoomed, report


@dataclass(frozen=True, eq=False)
class DeferredZoom:
    """A ZOOM render not yet performed: a copy of the window and a shape.

    Calling it renders ``zoom_roi`` over the whole window, which is
    byte-identical to ``zoom_roi(enhanced, roi, output_shape)`` on the
    frame the window was cut from.  Holds only the (copied) window, so
    it stays small, picklable and independent of the enhancer's
    integrator buffer.
    """

    window: NDArray[np.float32]
    output_shape: tuple[int, int]

    def __call__(self) -> NDArray[np.float32]:
        h, w = self.window.shape
        zoomed, _ = zoom_roi(self.window, Roi(0, 0, h, w), self.output_shape)
        return zoomed
