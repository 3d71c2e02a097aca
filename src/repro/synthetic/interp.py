"""Exact numpy interpolation kernels for frame and phantom synthesis.

Rendering translates every frame's composed scene by a sub-pixel
offset and builds each phantom's soft-tissue background by a cubic
zoom of a coarse noise grid.  ``scipy.ndimage`` does both through a
general N-d resampler that walks the output one pixel at a time; the
two kernels here do the same arithmetic as whole-array numpy passes.

They are *bit-for-bit* re-implementations of scipy's ``NI_ZoomShift``
(``ni_interpolation.c``) for the one configuration each is used in,
not approximations: the same float64 tap coordinates, the same spline
weights (the last weight filled as one minus the others), the same
edge handling and the same summation order -- taps accumulated from
``0.0`` with the last axis fastest, each product formed as
``(value * row_weight) * col_weight``.  Floating-point addition is
not associative, so any other order would move pixels by an ulp.
``tests/synthetic/test_interp.py`` checks both against the scipy
calls byte for byte, and the pixel golden pins the rendered frames.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray
from scipy import ndimage

__all__ = ["shift_linear_nearest", "zoom_cubic"]

#: Per axis, ``(taps, weights)``: source indices and spline weights,
#: each ``(order + 1, n_out)``.
_Taps = tuple[NDArray[np.intp], NDArray[np.float64]]


def _tap_sum(
    src: NDArray[np.floating], rows: _Taps, cols: _Taps
) -> NDArray[np.float64]:
    """``sum_ij (src[ry_i, cx_j] * wy_i) * wx_j`` in scipy's order.

    Products are formed in float64 and accumulated from ``0.0`` with
    the row tap outer and the column tap inner, as ``NI_ZoomShift``
    walks its filter footprint (last axis fastest).
    """
    ry, wy = rows
    cx, wx = cols
    gathered = [src.take(c, axis=1) for c in cx]
    out = np.zeros((ry.shape[1], cx.shape[1]), dtype=np.float64)
    term = np.empty_like(out)
    for r, wr in zip(ry, wy[:, :, None]):
        for g, wc in zip(gathered, wx):
            np.multiply(g.take(r, axis=0), wr, out=term)
            term *= wc
            out += term
    return out


def _linear_taps(n: int, shift: float) -> _Taps:
    """Taps of one axis of an order-1 ``nearest`` shift by ``shift``."""
    cc = np.arange(n, dtype=np.float64) + (-shift)
    start = np.floor(cc)
    w0 = 1.0 - (cc - start)
    # scipy does not clamp the coordinate itself: past the border the
    # weights keep the raw fraction and both taps clamp to the edge
    # sample, so ``v*w0 + v*w1`` can differ from ``v`` by an ulp.
    taps = start.astype(np.intp) + np.arange(2)[:, None]
    np.clip(taps, 0, n - 1, out=taps)
    return taps, np.stack([w0, 1.0 - w0])


def shift_linear_nearest(
    src: NDArray[np.float32], dy: float, dx: float
) -> NDArray[np.float32]:
    """Translate a 2-D float32 image by ``(dy, dx)`` pixels.

    Equal byte for byte to scipy's ``ndimage.shift`` by ``(dy, dx)``
    with ``order=1, mode="nearest", prefilter=False``: bilinear
    interpolation with edge pixels replicated beyond the border.
    """
    h, w = src.shape
    out = _tap_sum(src, _linear_taps(h, dy), _linear_taps(w, dx))
    return out.astype(np.float32)


def _cubic_taps(n_in: int, n_out: int) -> tuple[_Taps, NDArray[np.bool_]]:
    """Taps of one axis of an order-3 ``constant`` zoom from ``n_in``
    to ``n_out`` samples, and the mask of outputs that read cval."""
    zoom = (n_in - 1) / (n_out - 1) if n_out > 1 else 1.0
    cc = np.arange(n_out, dtype=np.float64) * zoom
    # mode="constant": a coordinate past the last input sample -- even
    # by one ulp, as 299 * (11 / 299) is -- yields cval, not a value.
    outside = cc > n_in - 1
    start = np.floor(cc)
    x = cc - start
    y = 1.0 - x
    w0 = y * y * y / 6.0
    w1 = (x * x * (x - 2.0) * 3.0 + 4.0) / 6.0
    w2 = (y * y * (y - 2.0) * 3.0 + 4.0) / 6.0
    w3 = 1.0 - w0 - w1 - w2
    taps = start.astype(np.intp) + np.arange(-1, 3)[:, None]
    if n_in == 1:
        taps[:] = 0
    else:
        # Mirror about the edge samples (period 2n-2), as scipy does.
        s2 = 2 * n_in - 2
        taps = np.abs(taps) % s2
        taps = np.where(taps >= n_in, s2 - taps, taps)
    return (taps, np.stack([w0, w1, w2, w3])), outside


def zoom_cubic(
    coarse: NDArray[np.float64], shape: tuple[int, int]
) -> NDArray[np.float64]:
    """Cubic-spline resample of a 2-D float64 grid to ``shape``.

    Equal byte for byte to scipy's ``ndimage.zoom`` of ``coarse`` with
    ``order=3`` (``mode="constant"``, ``grid_mode=False``) for any zoom
    factors whose output shape is ``shape``.
    """
    if shape == coarse.shape:
        # ndimage.zoom returns the input unchanged for unit zoom factors.
        return coarse.copy()
    coeffs = ndimage.spline_filter(coarse, 3, output=np.float64, mode="constant")
    rows, out_y = _cubic_taps(coarse.shape[0], shape[0])
    cols, out_x = _cubic_taps(coarse.shape[1], shape[1])
    out = _tap_sum(coeffs, rows, cols)
    out[out_y, :] = 0.0
    out[:, out_x] = 0.0
    return out
