"""Tests for ROI zoom / presentation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imaging.roi import Roi
from repro.imaging.zoom import zoom_report, zoom_roi


class TestZoomRoi:
    def test_default_doubles_roi(self):
        img = np.random.default_rng(0).random((128, 128)).astype(np.float32)
        roi = Roi(20, 20, 60, 80)
        out, rep = zoom_roi(img, roi)
        assert out.shape == (80, 120)
        assert rep.task == "ZOOM"

    def test_explicit_output_shape(self):
        img = np.zeros((128, 128), dtype=np.float32)
        out, _ = zoom_roi(img, Roi(0, 0, 50, 50), output_shape=(181, 181))
        assert out.shape == (181, 181)

    def test_constant_region_stays_constant(self):
        img = np.full((64, 64), 0.42, dtype=np.float32)
        out, _ = zoom_roi(img, Roi(10, 10, 40, 40))
        np.testing.assert_allclose(out, 0.42, atol=1e-5)

    def test_values_interpolate_smoothly(self):
        img = np.tile(np.linspace(0, 1, 64, dtype=np.float32), (64, 1))
        out, _ = zoom_roi(img, Roi(0, 0, 64, 64), output_shape=(128, 128), order=1)
        assert out.min() >= -1e-5 and out.max() <= 1.0 + 1e-5
        assert np.all(np.diff(out[64], 1) >= -1e-4)  # monotone gradient

    def test_empty_roi_raises(self):
        img = np.zeros((32, 32), dtype=np.float32)
        with pytest.raises(ValueError):
            zoom_roi(img, Roi(32, 32, 32, 32))

    def test_work_counts(self):
        img = np.zeros((128, 128), dtype=np.float32)
        roi = Roi(0, 0, 40, 40)
        out, rep = zoom_roi(img, roi, output_shape=(100, 100))
        assert rep.pixels == 100 * 100
        assert rep.count("roi_kpixels") == pytest.approx(1.6)
        assert rep.count("out_kpixels") == pytest.approx(10.0)


class TestZoomReport:
    @given(
        window=st.tuples(st.integers(1, 160), st.integers(1, 160)),
        out=st.tuples(st.integers(1, 400), st.integers(1, 400)),
    )
    @settings(max_examples=60, deadline=None)
    def test_shape_report_equals_rendered_report(self, window, out):
        # Random output shapes give non-integer factors almost always.
        img = np.zeros(window, dtype=np.float32)
        rendered, rep = zoom_roi(img, Roi(0, 0, *window), output_shape=out)
        assert rendered.shape == out
        assert zoom_report(window, out) == rep

    def test_empty_window_raises(self):
        with pytest.raises(ValueError, match="does not intersect"):
            zoom_report((0, 12), (24, 24))
