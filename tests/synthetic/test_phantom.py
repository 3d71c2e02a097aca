"""Tests for the static anatomy phantom."""

from __future__ import annotations

import numpy as np
import pytest

from repro.synthetic.phantom import (
    PhantomSpec,
    build_phantom,
    polyline_tube,
    rasterize_polyline,
    stamp_gaussian_blob,
)


class TestStampGaussianBlob:
    def test_adds_peak_at_center(self):
        img = np.zeros((64, 64), dtype=np.float32)
        stamp_gaussian_blob(img, (32.0, 32.0), sigma=2.0, amplitude=1.0)
        assert img[32, 32] == pytest.approx(1.0, abs=1e-3)
        assert img[32, 32] == img.max()

    def test_negative_amplitude_darkens(self):
        img = np.ones((32, 32), dtype=np.float32)
        stamp_gaussian_blob(img, (16.0, 16.0), sigma=1.5, amplitude=-0.5)
        assert img[16, 16] == pytest.approx(0.5, abs=1e-3)

    def test_local_support_only(self):
        img = np.zeros((64, 64), dtype=np.float32)
        stamp_gaussian_blob(img, (32.0, 32.0), sigma=1.0, amplitude=1.0)
        assert img[0, 0] == 0.0
        assert img[32, 60] == 0.0

    def test_off_frame_center_is_safe(self):
        img = np.zeros((16, 16), dtype=np.float32)
        stamp_gaussian_blob(img, (-50.0, -50.0), sigma=1.0, amplitude=1.0)
        assert img.sum() == 0.0

    def test_subpixel_center(self):
        img = np.zeros((32, 32), dtype=np.float32)
        stamp_gaussian_blob(img, (15.5, 15.5), sigma=2.0, amplitude=1.0)
        quad = img[15:17, 15:17]
        assert np.allclose(quad, quad[::-1, ::-1])  # symmetric about 15.5


class TestRasterizePolyline:
    def test_tube_amplitude(self):
        pts = np.array([[10.0, 5.0], [10.0, 55.0]])
        tube = rasterize_polyline((64, 64), pts, width_sigma=1.5, amplitude=0.3)
        assert tube.max() == pytest.approx(0.3, rel=1e-5)

    def test_tube_follows_line(self):
        pts = np.array([[32.0, 4.0], [32.0, 60.0]])
        tube = rasterize_polyline((64, 64), pts, width_sigma=1.0)
        on_line = tube[32, 10:54].mean()
        off_line = tube[10, 10:54].mean()
        assert on_line > 10 * max(off_line, 1e-9)

    def test_bad_points_rejected(self):
        with pytest.raises(ValueError):
            rasterize_polyline((32, 32), np.zeros((1, 2)), 1.0)
        with pytest.raises(ValueError):
            rasterize_polyline((32, 32), np.zeros((3, 3)), 1.0)

    def test_out_of_frame_points_clipped(self):
        pts = np.array([[-10.0, -10.0], [80.0, 80.0]])
        tube = rasterize_polyline((64, 64), pts, width_sigma=1.0)
        assert np.all(np.isfinite(tube))

    @pytest.mark.parametrize(
        "pts", [[[10.0, 5.0], [12.0, 40.0]], [[-10.0, 70.0], [50.0, 3.0]]]
    )
    def test_tube_window_lies_inside_the_frame(self, pts):
        tube, (rows, cols) = polyline_tube((64, 48), np.array(pts), width_sigma=1.2)
        assert 0 <= rows.start < rows.stop <= 64
        assert 0 <= cols.start < cols.stop <= 48
        assert tube.shape == (rows.stop - rows.start, cols.stop - cols.start)


class TestBuildPhantom:
    def test_deterministic_in_seed(self):
        a = build_phantom(PhantomSpec(seed=5))
        b = build_phantom(PhantomSpec(seed=5))
        np.testing.assert_array_equal(a.background, b.background)
        np.testing.assert_array_equal(a.vessels, b.vessels)
        assert a.marker_a == b.marker_a

    def test_different_seeds_differ(self):
        a = build_phantom(PhantomSpec(seed=5))
        b = build_phantom(PhantomSpec(seed=6))
        assert not np.array_equal(a.vessels, b.vessels)

    def test_marker_separation_respected(self):
        spec = PhantomSpec(marker_separation=30.0, seed=3)
        p = build_phantom(spec)
        d = np.hypot(
            p.marker_a[0] - p.marker_b[0], p.marker_a[1] - p.marker_b[1]
        )
        assert d == pytest.approx(30.0, rel=1e-6)

    def test_layer_shapes_and_ranges(self):
        p = build_phantom(PhantomSpec(width=128, height=96, seed=1))
        for layer in (p.background, p.vessels, p.clutter, p.stent, p.wire):
            assert layer.shape == (96, 128)
            assert layer.dtype == np.float32
            assert np.all(layer >= 0.0)
        assert 0.5 <= p.background.min() and p.background.max() <= 0.95

    def test_extras_present(self):
        p = build_phantom(PhantomSpec(seed=2))
        assert "wire_pts" in p.extras and "stent_struts" in p.extras
        assert len(p.extras["stent_struts"]) == 5

    def test_markers_inside_frame(self):
        for seed in range(8):
            p = build_phantom(PhantomSpec(seed=seed))
            for m in (p.marker_a, p.marker_b):
                assert 0 <= m[0] < p.spec.height
                assert 0 <= m[1] < p.spec.width
