"""Run the pipeline over sequences and collect trace records.

This is the reproduction of the paper's profiling step: "For training
the prediction models, we have used a data set of 37 video sequences
of in total 1,921 video frames" (Section 7).  Profiling always uses
the *serial* mapping so the recorded per-task times are single-core
compute times -- the quantity the prediction models are defined over;
parallelization decisions later scale these via the partition model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import repro.obs as obs
from repro.graph.flowgraph import FlowGraph
from repro.hw import CostModel, Mapping, PlatformSimulator, blackford
from repro.hw.bus import BandwidthLedger
from repro.hw.spec import PlatformSpec
from repro.imaging.pipeline import PipelineConfig
from repro.parallel import map_sequences
from repro.profiling.traces import TraceSet
from repro.synthetic.sequence import SequenceConfig, XRaySequence
from repro.workloads import DEFAULT_WORKLOAD, REGISTRY_VERSION, get_workload

__all__ = [
    "ProfileConfig",
    "profile_sequence",
    "profile_corpus",
    "profile_shards",
    "merge_shards",
]


@dataclass
class ProfileConfig:
    """Everything the profiler needs besides the sequences.

    Attributes
    ----------
    platform:
        Platform spec (defaults to the Fig. 4 Blackford system).
    pixel_scale:
        Area factor to native geometry; the default 16 corresponds to
        256x256 rendering of the native 1024x1024 application.
    seed:
        Cost-model jitter seed.
    pipeline:
        Pipeline tunables; workload pipeline factories may override
        fields per sequence (StentBoost derives ``expected_distance``
        from the phantom spec, the clinical prior).
    workload:
        Registry name of the application to profile; selects the flow
        graph, the pipeline factory and the cost table.
    """

    platform: PlatformSpec = field(default_factory=blackford)
    pixel_scale: float = 16.0
    seed: int = 0
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    workload: str = DEFAULT_WORKLOAD

    def make_simulator(self, graph: FlowGraph | None = None) -> PlatformSimulator:
        """Build the simulator this config describes."""
        wl = get_workload(self.workload)
        cost = CostModel(
            self.platform,
            pixel_scale=self.pixel_scale,
            seed=self.seed,
            task_costs=wl.task_costs,
        )
        return PlatformSimulator(
            self.platform, cost, graph=graph or wl.build_graph()
        )


def profile_sequence(
    sequence: XRaySequence,
    config: ProfileConfig | None = None,
    seq_id: int = 0,
    simulator: PlatformSimulator | None = None,
    traces: TraceSet | None = None,
) -> TraceSet:
    """Profile one sequence with the serial mapping.

    Parameters
    ----------
    sequence:
        The frames to process.
    config:
        Profiling configuration (fresh default when omitted).
    seq_id:
        Sequence id stored in the records.
    simulator:
        Reuse an existing simulator (keeps one bandwidth ledger
        across a corpus); built from ``config`` when omitted.
    traces:
        Append to an existing trace set instead of a new one.
    """
    config = config or ProfileConfig()
    sim = simulator or config.make_simulator()
    ts = traces if traces is not None else TraceSet(
        pixel_scale=config.pixel_scale,
        platform=config.platform.name,
        workload=config.workload,
        registry_version=REGISTRY_VERSION,
    )
    mapping = Mapping.serial()

    pipe = get_workload(config.workload).make_pipeline(
        sequence, config.pipeline
    )

    o = obs.get_obs()
    # Instruments resolved once per sequence, not per frame (the
    # disabled path hands out shared no-op instruments, so hoisting
    # is safe unconditionally).
    frames_total = o.metrics.counter("profile_frames_total")
    frame_latency_ms = o.metrics.histogram("profile_frame_latency_ms")
    with o.tracer.span("profile.sequence") as seq_span:
        if o.enabled:
            seq_span.set(seq=seq_id, n_frames=sequence.config.n_frames)
        for img, _truth in sequence.iter_frames():
            with o.tracer.span("profile.frame") as sp:
                analysis = pipe.process(img)
                result = sim.simulate_frame(
                    analysis.reports, mapping, frame_key=(seq_id, analysis.index)
                )
                if o.enabled:
                    sp.set(
                        seq=seq_id,
                        frame=analysis.index,
                        scenario=analysis.scenario_id,
                        latency_ms=result.latency_ms,
                        task_ms=dict(result.task_ms),
                    )
                    frames_total.inc()
                    frame_latency_ms.observe(result.latency_ms)
            # Append-free columnar write: one structured-row store,
            # no per-frame record object in the hot loop.
            ts.add_frame(
                seq=seq_id,
                frame=analysis.index,
                scenario_id=analysis.scenario_id,
                task_ms=result.task_ms,
                roi_kpixels=analysis.extras["roi_kpixels"]
                * config.pixel_scale,
                latency_ms=result.latency_ms,
                eviction_bytes=result.eviction_bytes,
                external_bytes=result.external_bytes,
            )
    return ts


def _profile_one(
    item: tuple[int, XRaySequence | SequenceConfig], config: ProfileConfig
) -> TraceSet:
    """Pool worker: profile one ``(seq_id, sequence)`` item.

    An :class:`XRaySequence` is profiled as given; a
    :class:`SequenceConfig` is built into one here, in the worker.
    Each sequence gets its own simulator: per-frame jitter is keyed by
    ``(seed, task, seq_id, frame)``, and ``simulate_frame`` under the
    serial profiling mapping has no cross-frame state, so a private
    per-sequence simulator yields records bit-identical to a shared
    one.  The private simulator's ledger is attached as
    ``meta["ledger"]`` so callers can merge corpus-wide traffic
    accounting.
    """
    seq_id, seq = item
    sequence = seq if isinstance(seq, XRaySequence) else XRaySequence(seq)
    sim = config.make_simulator()
    ts = profile_sequence(sequence, config, seq_id=seq_id, simulator=sim)
    ts.meta["ledger"] = sim.ledger
    return ts


def profile_shards(
    items: Sequence[tuple[int, SequenceConfig]],
    config: ProfileConfig | None = None,
    jobs: int | None = None,
) -> list[TraceSet]:
    """Profile ``(seq_id, config)`` pairs into independent trace shards.

    Each shard is one sequence's :class:`TraceSet` with that
    sequence's bandwidth ledger in ``meta["ledger"]``.  Shards are
    computed in parallel when ``jobs`` resolves above 1 (see
    :func:`repro.parallel.resolve_jobs`) and always returned in input
    order.  This is the unit the experiment layer's sharded trace
    cache stores and the delta it recomputes when a corpus changes.
    """
    config = config or ProfileConfig()
    return map_sequences(partial(_profile_one, config=config), items, jobs=jobs)


def profile_corpus(
    sequences: list[XRaySequence],
    config: ProfileConfig | None = None,
    jobs: int | None = None,
) -> TraceSet:
    """Profile a corpus of sequences into one trace set.

    The corpus-wide bandwidth ledger is exposed via the returned trace
    set's ``meta["ledger"]``.

    Parameters
    ----------
    sequences:
        The corpus, in training order (record order follows it).
    config:
        Profiling configuration (fresh default when omitted).
    jobs:
        Fan sequences out across a process pool
        (``None`` -> ``REPRO_JOBS`` -> :func:`repro.parallel.available_cpus`;
        pass 1 to force the serial path, which profiles the caller's
        sequences in place; a pool pickles them by value).  Sequences
        are independent and every stochastic draw is keyed by
        ``(seq_id, frame)``, so the parallel path merges per-sequence
        shards back in sequence order into a trace set whose
        serialized form is *byte identical* to the serial one.  Only
        the ledger's float totals can differ in the last ulp
        (per-sequence partial sums), and the ledger is never
        serialized.
    """
    config = config or ProfileConfig()
    shards = map_sequences(
        partial(_profile_one, config=config), enumerate(sequences), jobs=jobs
    )
    return merge_shards(shards, config)


def merge_shards(shards: Sequence[TraceSet], config: ProfileConfig) -> TraceSet:
    """Merge per-sequence trace shards into one corpus trace set.

    Records concatenate in shard order (callers keep shards in
    sequence order); per-shard ledgers fold into one corpus ledger.
    A shard without a ledger would leave the merged ledger's totals
    short, so the merged ``meta["ledger"]`` is only attached when every
    shard carried one.
    """
    ts = TraceSet(
        pixel_scale=config.pixel_scale,
        platform=config.platform.name,
        workload=config.workload,
        registry_version=REGISTRY_VERSION,
    )
    ledger: BandwidthLedger | None = BandwidthLedger()
    for shard in shards:
        ts.extend(shard)
        shard_ledger = shard.meta.get("ledger")
        if isinstance(shard_ledger, BandwidthLedger) and ledger is not None:
            ledger.merge(shard_ledger)
        else:
            ledger = None
    ts.meta["n_sequences"] = len(shards)
    if ledger is not None:
        ts.meta["ledger"] = ledger
    return ts
