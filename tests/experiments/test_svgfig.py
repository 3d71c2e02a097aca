"""Tests for the SVG figure renderer."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from repro.experiments.export import run_figures
from repro.experiments.svgfig import LineChart, export_svg


class TestLineChart:
    def make(self):
        c = LineChart(title="demo", x_label="x", y_label="y")
        c.add("a", [0, 1, 2], [0.0, 1.0, 0.5])
        c.add("b", [0, 1, 2], [1.0, 0.5, 0.2], mode="dots")
        return c

    def test_renders_well_formed_xml(self):
        svg = self.make().render()
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_contains_series_marks(self):
        svg = self.make().render()
        assert "<polyline" in svg  # line series
        assert "<circle" in svg  # dots series
        assert "demo" in svg and ">a<" in svg and ">b<" in svg

    def test_empty_chart_rejected(self):
        with pytest.raises(ValueError):
            LineChart(title="t", x_label="x", y_label="y").render()

    def test_mismatched_series_rejected(self):
        c = LineChart(title="t", x_label="x", y_label="y")
        with pytest.raises(ValueError):
            c.add("bad", [0, 1], [0.0])

    def test_constant_series_safe(self):
        c = LineChart(title="t", x_label="x", y_label="y")
        c.add("flat", [0, 1, 2], [5.0, 5.0, 5.0])
        assert "<polyline" in c.render()

    def test_coordinates_inside_viewbox(self):
        c = self.make()
        svg = c.render()
        root = ET.fromstring(svg)
        for poly in root.iter("{http://www.w3.org/2000/svg}polyline"):
            for pair in poly.get("points").split():
                x, y = map(float, pair.split(","))
                assert 0 <= x <= c.width and 0 <= y <= c.height


class TestExportSvg:
    def test_writes_three_figures(self, tiny_context, tmp_path):
        figures = run_figures(tiny_context, n_frames_fig3=60, n_frames_fig7=40)
        files = export_svg(tmp_path, figures)
        assert {f.name for f in files} == {"fig3.svg", "fig6.svg", "fig7.svg"}
        for f in files:
            root = ET.fromstring(f.read_text())
            assert root.tag.endswith("svg")
            assert f.stat().st_size > 2000
