"""Minimal SVG line charts: regenerate the paper's figures as images.

No plotting dependency is available offline, so this module renders
the three data figures (Fig. 3, Fig. 6, Fig. 7) as self-contained SVG
files with a small hand-rolled chart builder -- axes, ticks, series
polylines / scatter marks and a legend.  The visual layout mirrors
the paper's figures so a side-by-side comparison is direct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np


__all__ = ["LineChart", "export_svg"]

#: Brand-neutral series colors (colorblind-safe).
PALETTE = ("#3b6fb6", "#d1495b", "#66a182", "#edae49", "#8d6a9f")


@dataclass
class Series:
    """One plotted series."""

    label: str
    x: np.ndarray
    y: np.ndarray
    color: str
    mode: str = "line"  # "line" | "dots"


@dataclass
class LineChart:
    """A tiny SVG line/scatter chart.

    >>> chart = LineChart(title="t", x_label="x", y_label="y")
    >>> chart.add("series", [0, 1], [0, 1])
    >>> svg = chart.render()
    """

    title: str
    x_label: str
    y_label: str
    width: int = 640
    height: int = 400
    margin: int = 56
    series: list[Series] = field(default_factory=list)

    def add(
        self,
        label: str,
        x: Sequence[float],
        y: Sequence[float],
        mode: str = "line",
        color: str | None = None,
    ) -> None:
        """Add a series; colors cycle through the palette."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape or x.ndim != 1 or x.size == 0:
            raise ValueError("series must be matching non-empty 1-D arrays")
        c = color or PALETTE[len(self.series) % len(PALETTE)]
        self.series.append(Series(label, x, y, c, mode))

    # -- scaling ---------------------------------------------------------------

    def _limits(self) -> tuple[float, float, float, float]:
        xs = np.concatenate([s.x for s in self.series])
        ys = np.concatenate([s.y for s in self.series])
        x0, x1 = float(xs.min()), float(xs.max())
        y0, y1 = float(ys.min()), float(ys.max())
        if x1 == x0:
            x1 = x0 + 1.0
        pad = 0.06 * (y1 - y0) or 1.0
        return x0, x1, y0 - pad, y1 + pad

    def _ticks(self, lo: float, hi: float, n: int = 5) -> list[float]:
        raw = np.linspace(lo, hi, n)
        step = (hi - lo) / (n - 1)
        digits = max(0, int(-np.floor(np.log10(step))) + 1) if step > 0 else 0
        return [round(v, digits) for v in raw]

    # -- rendering ---------------------------------------------------------------

    def render(self) -> str:
        """Produce the SVG document as a string."""
        if not self.series:
            raise ValueError("no series to plot")
        w, h, m = self.width, self.height, self.margin
        x0, x1, y0, y1 = self._limits()

        def sx(v: float) -> float:
            return m + (v - x0) / (x1 - x0) * (w - 2 * m)

        def sy(v: float) -> float:
            return h - m - (v - y0) / (y1 - y0) * (h - 2 * m)

        parts: list[str] = []
        parts.append(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}" font-family="sans-serif" font-size="12">'
        )
        parts.append(f'<rect width="{w}" height="{h}" fill="white"/>')
        parts.append(
            f'<text x="{w / 2}" y="20" text-anchor="middle" font-size="14" '
            f'font-weight="bold">{self.title}</text>'
        )

        # Axes + ticks + grid.
        parts.append(
            f'<line x1="{m}" y1="{h - m}" x2="{w - m}" y2="{h - m}" stroke="#333"/>'
        )
        parts.append(f'<line x1="{m}" y1="{m}" x2="{m}" y2="{h - m}" stroke="#333"/>')
        for tv in self._ticks(x0, x1):
            px = sx(tv)
            parts.append(
                f'<line x1="{px:.1f}" y1="{h - m}" x2="{px:.1f}" y2="{h - m + 4}" stroke="#333"/>'
            )
            parts.append(
                f'<text x="{px:.1f}" y="{h - m + 18}" text-anchor="middle">{tv:g}</text>'
            )
        for tv in self._ticks(y0, y1):
            py = sy(tv)
            parts.append(
                f'<line x1="{m - 4}" y1="{py:.1f}" x2="{m}" y2="{py:.1f}" stroke="#333"/>'
            )
            parts.append(
                f'<line x1="{m}" y1="{py:.1f}" x2="{w - m}" y2="{py:.1f}" '
                f'stroke="#ddd" stroke-dasharray="3,3"/>'
            )
            parts.append(
                f'<text x="{m - 8}" y="{py + 4:.1f}" text-anchor="end">{tv:g}</text>'
            )
        parts.append(
            f'<text x="{w / 2}" y="{h - 12}" text-anchor="middle">{self.x_label}</text>'
        )
        parts.append(
            f'<text x="16" y="{h / 2}" text-anchor="middle" '
            f'transform="rotate(-90 16 {h / 2})">{self.y_label}</text>'
        )

        # Series.
        for s in self.series:
            if s.mode == "line":
                pts = " ".join(
                    f"{sx(xv):.1f},{sy(yv):.1f}" for xv, yv in zip(s.x, s.y)
                )
                parts.append(
                    f'<polyline points="{pts}" fill="none" stroke="{s.color}" '
                    f'stroke-width="1.5"/>'
                )
            else:
                for xv, yv in zip(s.x, s.y):
                    parts.append(
                        f'<circle cx="{sx(xv):.1f}" cy="{sy(yv):.1f}" r="2.4" '
                        f'fill="{s.color}" fill-opacity="0.65"/>'
                    )

        # Legend (top-right, one row per series).
        lx = w - m - 170
        ly = m + 6
        for i, s in enumerate(self.series):
            yy = ly + i * 17
            parts.append(
                f'<line x1="{lx}" y1="{yy}" x2="{lx + 22}" y2="{yy}" '
                f'stroke="{s.color}" stroke-width="3"/>'
            )
            parts.append(f'<text x="{lx + 28}" y="{yy + 4}">{s.label}</text>')

        parts.append("</svg>")
        return "\n".join(parts)

    def save(self, path: str | Path) -> Path:
        p = Path(path)
        p.write_text(self.render())
        return p


def export_svg(
    out_dir: str | Path, figures: dict[str, dict[str, Any]]
) -> list[Path]:
    """Render Fig. 3, Fig. 6 and Fig. 7 as SVG files from ``figures``
    (a :func:`repro.experiments.export.run_figures` result)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    r3 = figures["fig3"]
    chart = LineChart(
        title="Fig. 3 - RDG FULL computation time",
        x_label="frame",
        y_label="computation time (ms)",
    )
    frames = np.arange(len(r3["series"]))
    chart.add("Ridge detection", frames, r3["series"])
    chart.add("LPF (EWMA)", frames, r3["lpf"])
    chart.add("HPF (residual + mean)", frames, r3["hpf"] + r3["series"].mean())
    written.append(chart.save(out / "fig3.svg"))

    r6 = figures["fig6"]
    chart = LineChart(
        title="Fig. 6 - effective latency vs ROI size",
        x_label="ROI size (Kpixels, native)",
        y_label="effective latency (ms)",
    )
    chart.add("serial", r6["roi_kpixels"], r6["serial_ms"], mode="dots")
    chart.add("2-stripe parallel", r6["roi_kpixels"], r6["striped_ms"], mode="dots")
    slope, icpt = r6["serial_fit"]
    xs = np.linspace(r6["roi_kpixels"].min(), r6["roi_kpixels"].max(), 32)
    chart.add("linear fit (serial)", xs, slope * xs + icpt)
    written.append(chart.save(out / "fig6.svg"))

    r7 = figures["fig7"]
    chart = LineChart(
        title="Fig. 7 - prediction model vs actual computation time",
        x_label="frame",
        y_label="effective latency (ms)",
    )
    sw = r7["straightforward"].latency()
    frames = np.arange(len(sw))
    chart.add("straightforward mapping", frames, sw)
    chart.add("semi-auto parallel (output)", frames, r7["managed"].output_latency())
    chart.add("prediction model", frames, r7["predicted"])
    written.append(chart.save(out / "fig7.svg"))

    return written
