"""Fig. 6 reproduction: effective latency vs ROI size.

The paper sweeps the ROI size to ~300 Kpixels, fits the linear
growth function ``y = 0.067 t_k + 20.6`` (Eq. 3) and shows the
2-stripe data-parallel partitioning roughly halving the ROI-dependent
part.  We sweep the ROI by cropping windows of controlled size around
the tracked markers, run the ROI-granularity success-path pipeline on
each crop, and simulate both the serial and the 2-stripe mapping.

Our calibration is anchored to Fig. 3 / Table 2(b) (see DESIGN.md),
so the fitted slope differs from Eq. 3's 0.067 in absolute value;
the *shape* -- linearity and the ~2x stripe speedup of the
ROI-dependent part -- is the reproduction target.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentContext
from repro.hw import Mapping
from repro.imaging.couples import select_couple
from repro.imaging.guidewire import extract_guidewire
from repro.imaging.markers import extract_markers
from repro.imaging.registration import register_couples
from repro.imaging.ridge import ridge_filter
from repro.synthetic.sequence import SequenceConfig, XRaySequence
from repro.util.stats import linear_fit

__all__ = ["run", "PAPER_EQ3"]

#: Eq. 3 of the paper: y = 0.067 * t_k + 20.6 (ms, t_k in Kpixels).
PAPER_EQ3 = (0.067, 20.6)


def _frame_reports(seq: XRaySequence, frame_idx: int, edge_px: int, ctx: ExperimentContext):
    """Build the ROI-scenario task reports for one forced ROI size."""
    img, truth = seq.frame(frame_idx)
    h, w = img.shape
    cy = int((truth.marker_a[0] + truth.marker_b[0]) / 2)
    cx = int((truth.marker_a[1] + truth.marker_b[1]) / 2)
    half = edge_px // 2
    r0 = int(np.clip(cy - half, 0, max(0, h - edge_px)))
    c0 = int(np.clip(cx - half, 0, max(0, w - edge_px)))
    crop = img[r0 : r0 + edge_px, c0 : c0 + edge_px]

    reports = {}
    ridge, rep = ridge_filter(crop, task="RDG_ROI")
    reports[rep.task] = rep
    cands, rep = extract_markers(crop, ridge=ridge, task="MKX_ROI_RDG")
    reports[rep.task] = rep
    sep = seq.config.resolved_phantom().marker_separation
    couple, rep = select_couple(cands, sep)
    reports[rep.task] = rep
    transform, rep = register_couples(couple, couple, sep)
    reports[rep.task] = rep
    if couple.found:
        gw_a, gw_b = couple.marker_a, couple.marker_b
    else:
        gw_a, gw_b = truth.marker_a, truth.marker_b
        gw_a = (gw_a[0] - r0, gw_a[1] - c0)
        gw_b = (gw_b[0] - r0, gw_b[1] - c0)
    _, rep = extract_guidewire(crop, gw_a, gw_b)
    reports[rep.task] = rep
    return reports, crop.size


def run(
    ctx: ExperimentContext,
    n_frames_per_size: int = 6,
    seed: int = 60606,
) -> dict:
    """Sweep the ROI size; fit the linear growth; compare mappings."""
    seq = XRaySequence(
        SequenceConfig(
            n_frames=64,
            seed=seed,
            clutter_level=1.0,
            contrast_base=0.45,
            injection_frame=0,
            visibility_dips=0,
        )
    )
    scale = ctx.profile_config.pixel_scale
    sim_serial = ctx.profile_config.make_simulator()
    sim_striped = ctx.profile_config.make_simulator()
    two_stripe = (
        Mapping.serial()
        .with_partition("RDG_ROI", (0, 1))
    )

    frame_edge = seq.config.width
    edges = np.linspace(32, frame_edge - 8, 8).astype(int)
    n_points = edges.size * n_frames_per_size
    roi = np.empty(n_points)
    ser = np.empty(n_points)
    par = np.empty(n_points)
    for i, (edge, k) in enumerate(
        (e, k) for e in edges for k in range(n_frames_per_size)
    ):
        frame_idx = (int(edge) * 7 + k * 5) % len(seq)
        reports, px = _frame_reports(seq, frame_idx, int(edge), ctx)
        key = ("fig6", int(edge), k)
        ser[i] = sim_serial.simulate_frame(reports, Mapping.serial(), key).latency_ms
        par[i] = sim_striped.simulate_frame(reports, two_stripe, key).latency_ms
        roi[i] = px * scale / 1000.0
    slope_s, icpt_s = linear_fit(roi, ser)
    slope_p, icpt_p = linear_fit(roi, par)

    lines = ["Fig. 6 -- effective latency vs ROI size", ""]
    lines.append(
        f"serial:    y = {slope_s:.4f} * t_k + {icpt_s:.1f} ms "
        f"(paper Eq. 3: y = {PAPER_EQ3[0]} * t_k + {PAPER_EQ3[1]})"
    )
    lines.append(f"2-stripe:  y = {slope_p:.4f} * t_k + {icpt_p:.1f} ms")
    ratio = slope_s / slope_p if slope_p > 0 else float("inf")
    lines.append(
        f"slope ratio serial / 2-stripe = {ratio:.2f} "
        f"(ideal data-parallel split: 2.0)"
    )
    return {
        "roi_kpixels": roi,
        "serial_ms": ser,
        "striped_ms": par,
        "serial_fit": (slope_s, icpt_s),
        "striped_fit": (slope_p, icpt_p),
        "slope_ratio": ratio,
        "text": "\n".join(lines),
    }
