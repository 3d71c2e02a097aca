"""CSV export of the figure data series (for external plotting).

The experiment modules print tables; this module writes the
underlying *series* so the figures can be re-plotted with any tool:

* ``fig3.csv``  -- frame, rdg_full_ms, lpf_ms, hpf_ms
* ``fig6.csv``  -- roi_kpixels, serial_ms, two_stripe_ms
* ``fig7.csv``  -- frame, straightforward_ms, managed_ms,
  managed_output_ms, predicted_ms
* ``table2a.csv`` -- the RDG transition matrix
* ``acf.csv``   -- lag, raw_acf, residual_acf (Fig. 3 inset)

:func:`run_figures` runs each figure experiment once; pass its result
to both :func:`export_csv` and :func:`repro.experiments.svgfig.export_svg`
to write the CSV and SVG files from one run.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Any

from repro.experiments import fig3, fig6, fig7, table2
from repro.experiments.common import ExperimentContext

__all__ = ["run_figures", "export_csv"]


def _write(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def run_figures(
    ctx: ExperimentContext, n_frames_fig3: int = 400, n_frames_fig7: int = 200
) -> dict[str, dict[str, Any]]:
    """Fig. 3, Fig. 6 and Fig. 7 results, keyed ``fig3``/``fig6``/``fig7``."""
    return {
        "fig3": fig3.run(ctx, n_frames=n_frames_fig3),
        "fig6": fig6.run(ctx),
        "fig7": fig7.run(ctx, n_frames=n_frames_fig7),
    }


def export_csv(
    ctx: ExperimentContext,
    out_dir: str | Path,
    figures: dict[str, dict[str, Any]],
) -> list[Path]:
    """Write the ``figures`` series (a :func:`run_figures` result) and
    Table 2(a) as CSV.

    Returns the list of files written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    r3 = figures["fig3"]
    p = out / "fig3.csv"
    _write(
        p,
        ["frame", "rdg_full_ms", "lpf_ms", "hpf_ms"],
        zip(range(len(r3["series"])), r3["series"], r3["lpf"], r3["hpf"]),
    )
    written.append(p)

    p = out / "acf.csv"
    _write(
        p,
        ["lag", "raw_acf", "residual_acf"],
        zip(range(len(r3["acf"])), r3["acf_raw"], r3["acf"]),
    )
    written.append(p)

    r6 = figures["fig6"]
    p = out / "fig6.csv"
    _write(
        p,
        ["roi_kpixels", "serial_ms", "two_stripe_ms"],
        zip(r6["roi_kpixels"], r6["serial_ms"], r6["striped_ms"]),
    )
    written.append(p)

    r7 = figures["fig7"]
    p = out / "fig7.csv"
    sw = r7["straightforward"].latency()
    mg = r7["managed"].latency()
    mo = r7["managed"].output_latency()
    pr = r7["predicted"]
    _write(
        p,
        [
            "frame",
            "straightforward_ms",
            "managed_ms",
            "managed_output_ms",
            "predicted_ms",
        ],
        zip(range(len(sw)), sw, mg, mo, pr),
    )
    written.append(p)

    r2 = table2.run(ctx)
    p = out / "table2a.csv"
    n = r2["n_states"]
    _write(
        p,
        ["state"] + [f"s{j}" for j in range(n)],
        ([f"s{i}", *row] for i, row in enumerate(r2["transition"])),
    )
    written.append(p)

    return written
