#!/usr/bin/env python
"""Latency control demo: the Fig. 7 experiment with an ASCII plot.

Runs the same test sequence under (a) the straightforward static
serial mapping and (b) Triple-C-managed semi-automatic parallelization
and renders both latency traces side by side in the terminal.

Run:  python examples/latency_control.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    CorpusSpec,
    ProfileConfig,
    SequenceConfig,
    StentBoostPipeline,
    TripleC,
    XRaySequence,
    generate_corpus,
    profile_corpus,
)
from repro.imaging.pipeline import PipelineConfig
from repro.runtime import FrameEngine, StaticSerialPolicy, TripleCPolicy
from repro.util.stats import jitter_metrics


def ascii_plot(series: np.ndarray, lo: float, hi: float, width: int = 64) -> list[str]:
    """Render a latency trace as one ASCII bar row per frame bucket."""
    n_rows = 16
    buckets = np.array_split(series, min(len(series), n_rows))
    lines = []
    for b in buckets:
        v = float(np.mean(b))
        pos = int((v - lo) / max(hi - lo, 1e-9) * (width - 1))
        pos = int(np.clip(pos, 0, width - 1))
        lines.append("|" + " " * pos + "*" + " " * (width - 1 - pos) + f"| {v:6.1f} ms")
    return lines


def make_pipeline(seq: XRaySequence) -> StentBoostPipeline:
    return StentBoostPipeline(
        PipelineConfig(
            expected_distance=seq.config.resolved_phantom().marker_separation
        )
    )


def main() -> None:
    print("training Triple-C ...")
    config = ProfileConfig()
    traces = profile_corpus(
        generate_corpus(CorpusSpec(n_sequences=8, total_frames=400)), config
    )
    model = TripleC.fit(traces)

    seq_cfg = SequenceConfig(
        n_frames=160, seed=777, visibility_dips=1, clutter_level=0.9, injection_frame=40
    )

    sw = FrameEngine(config.make_simulator(), StaticSerialPolicy()).run(
        XRaySequence(seq_cfg), make_pipeline(XRaySequence(seq_cfg)), seq_key="demo-sw"
    )
    sim = config.make_simulator()
    mg = FrameEngine(sim, TripleCPolicy.for_simulator(model, sim)).run(
        XRaySequence(seq_cfg), make_pipeline(XRaySequence(seq_cfg)), seq_key="demo-mg"
    )

    lat_sw = sw.latency()
    lat_out = mg.output_latency()
    lo = 0.0
    hi = float(max(lat_sw.max(), lat_out.max())) * 1.05

    print("\nstraightforward mapping (latency follows content):")
    for line in ascii_plot(lat_sw, lo, hi):
        print(line)
    print("\nTriple-C managed (output latency pinned to the budget):")
    for line in ascii_plot(lat_out, lo, hi):
        print(line)

    j_sw, j_out = jitter_metrics(lat_sw), jitter_metrics(lat_out)
    print(
        f"\nstraightforward: mean {j_sw.mean:.1f} ms, std {j_sw.std:.2f}, "
        f"worst/avg {j_sw.worst_over_avg * 100:.0f}%"
    )
    print(
        f"managed output:  mean {j_out.mean:.1f} ms, std {j_out.std:.2f}, "
        f"worst/avg {j_out.worst_over_avg * 100:.0f}% "
        f"(budget {mg.budget_ms:.1f} ms)"
    )
    print(
        f"jitter reduction: {100 * (1 - j_out.std / j_sw.std):.0f}% "
        f"(paper reports ~70%)"
    )


if __name__ == "__main__":
    main()
