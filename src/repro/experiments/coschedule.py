"""The "more functions on the same platform" experiment.

The paper's recurring motivation: accurate predictions free resources
that worst-case reservation wastes.  We quantify it by running a
divisible background function on the capacity each policy leaves
idle:

* worst-case reservation blocks all cores for the reserved span every
  frame;
* Triple-C management blocks only the cores the partitioner actually
  requested, for the frame's real span.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentContext, make_pipeline
from repro.experiments.fig7 import fig7_sequence
from repro.runtime import FrameEngine, TripleCPolicy, WorstCaseReservationPolicy
from repro.runtime.coschedule import BackgroundFunction, coschedule

__all__ = ["run"]


def run(ctx: ExperimentContext, n_frames: int = 150) -> dict:
    """Background throughput under worst-case vs managed policies."""
    seq = fig7_sequence(n_frames=n_frames, seed=4242)

    model = ctx.fresh_model()
    sim = ctx.profile_config.make_simulator()
    policy = TripleCPolicy.for_simulator(model, sim)
    managed = FrameEngine(sim, policy).run(seq, make_pipeline(seq), seq_key="co-mg")

    # The static alternative: reserve, for *every* frame, the cores a
    # worst-case-scenario frame needs to meet the same latency budget
    # (Section 6's "task partitioning based on worst-case resource
    # usage").  The worst-case run itself executes serially inside
    # that reservation and pads with the delay line.
    from repro.imaging.pipeline import SwitchState

    worst_sid = SwitchState(True, False, True).scenario_id
    worst_tasks = {
        t: model.computation.train_mean_ms.get(t, 0.0)
        for t in ctx.graph.active_tasks(SwitchState.from_scenario_id(worst_sid))
    }
    static_decision = policy.partitioner.choose_robust(
        {worst_sid: worst_tasks}, managed.budget_ms or 50.0
    )
    static_cores = static_decision.cores_used

    worst_budget = float(managed.serial_latency().max()) * 1.1
    reserved = FrameEngine(
        ctx.profile_config.make_simulator(), WorstCaseReservationPolicy(worst_budget)
    ).run(seq, make_pipeline(seq), seq_key="co-wc")

    bg = BackgroundFunction(work_ms_per_item=5.0)
    res_mg = coschedule(managed, ctx.platform, bg)
    res_wc = coschedule(reserved, ctx.platform, bg, reserved_cores=static_cores)
    gain = (
        res_mg.items_per_second / res_wc.items_per_second
        if res_wc.items_per_second > 0
        else float("inf")
    )

    lines = ['"More functions on the same platform" (co-scheduling)', ""]
    lines.append(
        f"static worst-case reservation: {static_cores} cores pinned "
        f"every frame (to meet {managed.budget_ms:.1f} ms under the "
        f"worst-case scenario)"
    )
    lines.append(f"{'policy':26s} {'idle core-ms/frame':>19s} {'bg items/s':>11s}")
    for r in (res_wc, res_mg):
        lines.append(
            f"{r.label:26s} {r.idle_core_ms_per_frame:19.1f} "
            f"{r.items_per_second:11.1f}"
        )
    lines.append("")
    lines.append(
        f"background throughput gain of Triple-C management over "
        f"worst-case reservation: {gain:.2f}x"
    )
    return {
        "managed": res_mg,
        "worst_case": res_wc,
        "static_cores": static_cores,
        "gain": gain,
        "text": "\n".join(lines),
    }
