"""The synthesis kernels against their scipy oracles, byte for byte.

``shift_linear_nearest`` and ``zoom_cubic`` replace ``ndimage.shift``
and ``ndimage.zoom`` in frame and phantom synthesis.  They must not
approximate: every output must equal the scipy call's bytes, including
the edge cases where scipy's own arithmetic is surprising (sub-ulp and
fully clamped shifts, zoom coordinates that overshoot the last input
sample by one ulp and so read ``cval``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.synthetic.interp import shift_linear_nearest, zoom_cubic

sides = st.integers(1, 70)
fractional = st.floats(-80.0, 80.0, allow_nan=False, allow_infinity=False)
shifts = st.one_of(
    fractional,
    st.integers(-80, 80).map(float),
    # Short binary fractions make exact weights, so a wrong tap or
    # summation order shows up as an ulp instead of hiding in rounding.
    st.integers(-640, 640).map(lambda k: k / 8.0),
    st.sampled_from([-1e-17, 1e-17, -0.0, 0.5, -0.5]),
    # Larger than any frame: every tap clamps to the border.
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


class TestShiftLinearNearest:
    @given(
        h=sides, w=sides, dy=shifts, dx=shifts, seed=st.integers(0, 2**32 - 1)
    )
    @example(h=64, w=64, dy=-1e-17, dx=-1e-17, seed=0)
    @example(h=1, w=1, dy=0.3, dx=-0.7, seed=1)
    @example(h=70, w=3, dy=500.0, dx=-500.0, seed=2)
    @example(h=17, w=33, dy=3.0, dx=-2.0, seed=3)
    # Past the border scipy keeps the raw weights and clamps the taps;
    # clamping the coordinate instead is off by an ulp in these.
    @example(h=1, w=4, dy=1.4, dx=0.75, seed=194)
    @example(h=2, w=21, dy=1.0573255030903965, dx=0.5, seed=1)
    @settings(max_examples=300, deadline=None)
    def test_equals_ndimage_shift(self, h, w, dy, dx, seed):
        src = np.random.default_rng(seed).normal(size=(h, w)).astype(np.float32)
        want = ndimage.shift(src, (dy, dx), order=1, mode="nearest", prefilter=False)
        got = shift_linear_nearest(src, dy, dx)
        assert got.dtype == want.dtype == np.float32
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestZoomCubic:
    @given(
        n_in=st.tuples(st.integers(1, 16), st.integers(1, 16)),
        n_out=st.tuples(st.integers(1, 400), st.integers(1, 400)),
        seed=st.integers(0, 2**32 - 1),
    )
    # Output coordinates that overshoot the last input sample by an
    # ulp (299 * (11/299) == 11.000000000000002, ...) are cval in
    # scipy's "constant" mode.
    @example(n_in=(12, 12), n_out=(300, 300), seed=0)
    @example(n_in=(9, 9), n_out=(207, 207), seed=1)
    @example(n_in=(13, 13), n_out=(312, 312), seed=2)
    @example(n_in=(8, 8), n_out=(256, 256), seed=3)
    @example(n_in=(1, 5), n_out=(7, 1), seed=4)
    # Unit zoom factors: scipy returns the input unchanged.
    @example(n_in=(4, 6), n_out=(4, 6), seed=5)
    @settings(max_examples=200, deadline=None)
    def test_equals_ndimage_zoom(self, n_in, n_out, seed):
        coarse = np.random.default_rng(seed).normal(size=n_in)
        factors = (n_out[0] / n_in[0], n_out[1] / n_in[1])
        want = ndimage.zoom(coarse, factors, order=3)
        # scipy rounds ``n_in * factor``; the kernel gets the shape it made.
        got = zoom_cubic(coarse, want.shape)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
