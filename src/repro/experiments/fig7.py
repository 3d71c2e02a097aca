"""Fig. 7 reproduction: latency control with Triple-C predictions.

Three runs over the same test sequence:

* **straightforward mapping** (red curve, top): static serial
  execution; latency follows the content (paper: 60-120 ms swings,
  worst-vs-average gap ~85 %);
* **Triple-C semi-automatic parallel** (yellow curve, bottom): the
  resource manager repartitions per frame from the predictions;
  completion latency flattens near the average-case budget with only
  "some small peaks" (paper: gap reduced to ~20 %, jitter ~70 %
  lower);
* **prediction model** (blue curve): the per-frame predicted serial
  time next to the measured one.
"""

from __future__ import annotations


from repro.experiments.common import ExperimentContext, make_pipeline
from repro.runtime import (
    FrameEngine,
    StaticSerialPolicy,
    TripleCPolicy,
    WorstCaseReservationPolicy,
)
from repro.synthetic.sequence import SequenceConfig, XRaySequence
from repro.util.stats import jitter_metrics

__all__ = ["run", "fig7_sequence", "PAPER_RESULTS"]

#: Section 7 headline numbers.
PAPER_RESULTS = {
    "straightforward_worst_over_avg": 0.85,
    "managed_worst_over_avg": 0.20,
    "jitter_reduction": 0.70,
    "straightforward_range_ms": (60.0, 120.0),
}


def fig7_sequence(n_frames: int = 200, seed: int = 777) -> XRaySequence:
    """The Fig. 7 test sequence: steady tracking with content events.

    Contrast injection and clutter drive the RDG switch; a visibility
    dip forces a track loss + full-frame re-acquisition mid-sequence
    -- the events that make the straightforward latency swing.
    """
    return XRaySequence(
        SequenceConfig(
            n_frames=n_frames,
            seed=seed,
            clutter_level=0.9,
            contrast_base=0.35,
            injection_frame=40,
            visibility_dips=1,
        )
    )


def run(ctx: ExperimentContext, n_frames: int = 200) -> dict:
    """Run all three curves and compute the comparison metrics."""
    seq = fig7_sequence(n_frames=n_frames)

    sw = FrameEngine(ctx.profile_config.make_simulator(), StaticSerialPolicy()).run(
        seq, make_pipeline(seq), seq_key="sw"
    )
    sim = ctx.profile_config.make_simulator()
    engine = FrameEngine(sim, TripleCPolicy.for_simulator(ctx.fresh_model(), sim))
    mg = engine.run(seq, make_pipeline(seq), seq_key="mg")
    worst_budget = float(sw.latency().max()) * 1.05
    wc = FrameEngine(
        ctx.profile_config.make_simulator(), WorstCaseReservationPolicy(worst_budget)
    ).run(seq, make_pipeline(seq), seq_key="wc")

    j_sw = jitter_metrics(sw.latency())
    j_mg = jitter_metrics(mg.latency())
    j_out = jitter_metrics(mg.output_latency())
    j_wc = jitter_metrics(wc.output_latency())

    # Prediction-vs-measured on the managed run's serial times.
    pred = mg.predicted()
    meas = mg.serial_latency()

    jitter_reduction = 1.0 - (j_out.std / j_sw.std) if j_sw.std > 0 else 0.0

    lines = ["Fig. 7 -- latency: straightforward vs Triple-C managed", ""]
    lines.append(f"{'run':28s} {'mean':>7s} {'std':>6s} {'p2p':>7s} {'worst/avg':>10s}")

    def row(label: str, j) -> None:
        lines.append(
            f"{label:28s} {j.mean:7.1f} {j.std:6.2f} {j.peak_to_peak:7.1f} "
            f"{j.worst_over_avg * 100:9.1f}%"
        )

    row("straightforward", j_sw)
    row("managed (completion)", j_mg)
    row("managed (output)", j_out)
    row("worst-case reservation", j_wc)
    lines.append("")
    lines.append(
        f"paper: straightforward 60-120 ms, worst/avg 85% -> 20%, "
        f"jitter -70%"
    )
    lines.append(
        f"ours:  straightforward [{sw.latency().min():.0f}, "
        f"{sw.latency().max():.0f}] ms; worst/avg "
        f"{j_sw.worst_over_avg * 100:.0f}% -> {j_mg.worst_over_avg * 100:.0f}% "
        f"(completion); output jitter -{jitter_reduction * 100:.0f}%"
    )
    lines.append(
        f"managed budget {mg.budget_ms:.1f} ms; scenario hit rate "
        f"{mg.scenario_hit_rate():.2f}; mean cores used {mg.mean_cores_used():.2f}"
    )
    return {
        "straightforward": sw,
        "managed": mg,
        "worst_case": wc,
        "jitter": {
            "straightforward": j_sw,
            "managed_completion": j_mg,
            "managed_output": j_out,
            "worst_case_output": j_wc,
        },
        "jitter_reduction": jitter_reduction,
        "predicted": pred,
        "measured_serial": meas,
        "text": "\n".join(lines),
    }
