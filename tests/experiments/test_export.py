"""Tests for CSV figure export."""

from __future__ import annotations

import csv

from repro.experiments.export import export_csv, run_figures


class TestExportCsv:
    def test_writes_all_files(self, tiny_context, tmp_path):
        figures = run_figures(tiny_context, n_frames_fig3=60, n_frames_fig7=50)
        files = export_csv(tiny_context, tmp_path, figures)
        names = {f.name for f in files}
        assert names == {"fig3.csv", "acf.csv", "fig6.csv", "fig7.csv", "table2a.csv"}
        for f in files:
            assert f.exists() and f.stat().st_size > 50

    def test_fig7_columns_consistent(self, tiny_context, tmp_path):
        figures = run_figures(tiny_context, n_frames_fig3=60, n_frames_fig7=40)
        export_csv(tiny_context, tmp_path, figures)
        with open(tmp_path / "fig7.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40
        for row in rows:
            out = float(row["managed_output_ms"])
            managed = float(row["managed_ms"])
            assert out >= managed - 1e-9  # delay line only adds

    def test_table2a_square(self, tiny_context, tmp_path):
        figures = run_figures(tiny_context, n_frames_fig3=60, n_frames_fig7=40)
        export_csv(tiny_context, tmp_path, figures)
        with open(tmp_path / "table2a.csv") as fh:
            rows = list(csv.reader(fh))
        n = len(rows[0]) - 1
        assert len(rows) == n + 1  # header + n state rows
        for row in rows[1:]:
            s = sum(float(v) for v in row[1:])
            assert abs(s - 1.0) < 1e-6
