"""Bench: quality-level QoS control on a constrained platform.

When partitioning alone cannot meet the budget (here: splits capped
at 2 cores, budget below the steady serial latency), the QoS
controller degrades the application's quality level (fewer ridge
scales, tighter candidate cap) instead of missing deadlines -- the
"corresponding QoS control" use of Triple-C from the paper's
abstract.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import pedantic
from repro.core import TripleC
from repro.experiments.common import make_pipeline
from repro.experiments.fig7 import fig7_sequence
from repro.runtime import FrameEngine, QualityController, TripleCPolicy
from repro.runtime.partition import Partitioner

BUDGET_MS = 40.0


def _run(ctx, controller, n_frames=100):
    seq = fig7_sequence(n_frames=n_frames, seed=777)
    model = TripleC.fit(ctx.traces)
    sim = ctx.profile_config.make_simulator()
    part = Partitioner(sim.platform, model.graph, max_parts=2)
    policy = TripleCPolicy.for_simulator(
        model, sim, partitioner=part, budget_ms=BUDGET_MS,
        quality_controller=controller,
    )
    return FrameEngine(sim, policy).run(seq, make_pipeline(seq), seq_key="qb")


def test_quality_scaling(ctx, benchmark):
    def experiment():
        fixed = _run(ctx, None)
        scaled = _run(ctx, QualityController())
        return fixed, scaled

    fixed, scaled = pedantic(benchmark, experiment)

    def excess(run):
        return float(np.sum(np.maximum(run.latency() - BUDGET_MS, 0.0)))

    print()
    print(f"budget {BUDGET_MS} ms, partitioning capped at 2 cores")
    for name, run in (("fixed quality", fixed), ("quality-scaled", scaled)):
        lat = run.latency()
        quals = sorted({f.quality for f in run.frames})
        print(
            f"{name:15s} max {lat.max():5.1f} ms  over-budget mass "
            f"{excess(run):6.1f} ms  levels {quals}"
        )

    assert excess(scaled) < 0.6 * excess(fixed)
    assert scaled.latency().max() < fixed.latency().max()
    assert any(f.quality != "full" for f in scaled.frames)
    # Quality scaling must not break the application: couples are
    # still found (the managed run keeps registering).
    ok_frames = sum(1 for f in scaled.frames if f.actual_scenario % 2 == 1)
    assert ok_frames > 0.6 * len(scaled.frames)