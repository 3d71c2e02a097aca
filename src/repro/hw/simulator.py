"""Discrete-event execution of a mapped frame on core timelines.

The per-frame task set (the pipeline's work reports, in flow-graph
order) forms a dependency chain; each task runs on its mapped cores,
split into partitions when the mapping says so.  The simulator keeps
one timeline per core, charges inter-task communication on the link
the producer/consumer placement implies (same L2 cluster vs system
bus), adds partition fork/join overhead and halo traffic, and records
all external-memory and bus traffic in a
:class:`~repro.hw.bus.BandwidthLedger`.

The frame's *effective latency* is the completion time of its last
task -- the quantity Figs. 6 and 7 of the paper plot.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping as TMapping

import numpy as np

import repro.obs as obs
from repro.graph.flowgraph import FlowGraph
from repro.hw.bus import BandwidthLedger
from repro.hw.cost import BatchCost, CostModel
from repro.hw.mapping import Mapping
from repro.imaging.common import WorkReport
from repro.util.units import MS_PER_S

__all__ = ["FrameResult", "PlatformSimulator"]


@dataclass
class FrameResult:
    """Outcome of simulating one frame.

    Attributes
    ----------
    latency_ms:
        Effective frame latency (completion of the last task).
    task_ms:
        Convenience map task -> single-core compute time (the value
        the Triple-C computation predictors model).
    eviction_bytes, external_bytes:
        Cache swap traffic and total external-memory traffic.
    """

    latency_ms: float
    task_ms: dict[str, float] = field(default_factory=dict)
    eviction_bytes: int = 0
    external_bytes: int = 0


class PlatformSimulator:
    """Schedules mapped frames onto platform core timelines.

    Parameters
    ----------
    platform:
        Platform spec (core count, links, caches).
    cost_model:
        Work-to-time converter; its platform should be the same spec.
    graph:
        Optional flow graph; when given, partitioning requests are
        validated against each task's ``divisible`` /
        ``functional_parallel`` capability.
    fork_ms, join_ms:
        Fixed per-partition fork/join control overhead ("the overhead
        imposed by task switching and control", Section 4).
    halo_fraction:
        Fraction of a partitioned task's input re-read across stripe
        boundaries per extra partition (overlap of filter supports).
    dram_contention:
        Model DRAM bandwidth sharing between overlapping tasks.  Each
        scheduled task posts its external-traffic demand as a
        ``(start, end, bytes/ms)`` interval; a new task whose
        interval overlaps posted demand has its memory-bound part
        stretched by the aggregate oversubscription of the channel
        bandwidth.  The approximation is *causal* (a task only sees
        demand already scheduled), which keeps the schedule
        single-pass while capturing the first-order effect -- see
        DESIGN.md §7.  Demand is scoped to one call: the frames of one
        :meth:`simulate_stream` contend with each other, while a
        :meth:`simulate_frame` chain never overlaps itself.
    """

    def __init__(
        self,
        platform,
        cost_model: CostModel,
        graph: FlowGraph | None = None,
        fork_ms: float = 0.12,
        join_ms: float = 0.10,
        halo_fraction: float = 0.02,
        dram_contention: bool = False,
    ) -> None:
        self.platform = platform
        self.cost_model = cost_model
        self.graph = graph
        self.fork_ms = float(fork_ms)
        self.join_ms = float(join_ms)
        self.halo_fraction = float(halo_fraction)
        self.dram_contention = bool(dram_contention)
        self.ledger = BandwidthLedger()

    # -- contention -----------------------------------------------------------

    def _dram_slowdown(
        self,
        begin: float,
        end: float,
        own_rate: float,
        demand: list[tuple[float, float, float]],
    ) -> float:
        """Oversubscription factor of the DRAM channels on [begin, end].

        Aggregate demand rate (own + time-weighted overlap of the
        posted ``(start_ms, end_ms, bytes_per_ms)`` intervals) over the
        total streaming capacity; 1.0 when the window is within
        capacity.
        """
        if end <= begin:
            return 1.0
        capacity = self.platform.total_dram_stream_bw / 1e3  # bytes/ms
        overlap_rate = 0.0
        window = end - begin
        for s, e, rate in demand:
            ov = min(end, e) - max(begin, s)
            if ov > 0:
                overlap_rate += rate * (ov / window)
        total = own_rate + overlap_rate
        return max(1.0, total / capacity)

    def contended_costs(self, cost: BatchCost) -> BatchCost:
        """Pre-priced executions as :meth:`simulate_frame` prices them.

        A frame's chain never overlaps itself, so under DRAM
        contention an execution competes only with its own traffic:
        its memory-bound part stretches when the task alone
        oversubscribes the channels.  The float operations are
        :meth:`_dram_slowdown`'s with no posted demand.  Returns
        ``cost`` unchanged when contention is off.
        """
        if not self.dram_contention:
            return cost
        capacity = self.platform.total_dram_stream_bw / 1e3  # bytes/ms
        total = cost.total_ms
        # Idle executions (total 0) get factor 1.0: no stretch.
        own_rate = np.divide(
            cost.external_bytes, total, out=np.zeros_like(total), where=total > 0
        )
        factor = np.maximum(1.0, own_rate / capacity)
        return replace(cost, total_ms=total + cost.cache_stall_ms * (factor - 1.0))

    # -- helpers --------------------------------------------------------------

    def _validate_partition(self, task: str, n_parts: int) -> None:
        if n_parts <= 1 or self.graph is None:
            return
        spec = self.graph.tasks.get(task)
        if spec is None:
            return
        if not (spec.divisible or spec.functional_parallel):
            raise ValueError(
                f"task {task!r} is neither divisible nor functionally "
                f"parallel; cannot split over {n_parts} cores"
            )

    def _comm_time_ms(
        self, nbytes: float, src_core: int, dst_core: int
    ) -> tuple[float, str]:
        """Transfer time and link label between two cores."""
        if src_core == dst_core:
            return 0.0, "l2"
        if self.platform.share_l2(src_core, dst_core):
            return nbytes / self.platform.l1_l2_bw * MS_PER_S, "l2"
        return nbytes / self.platform.l2_bus_bw * MS_PER_S, "bus"

    def _price(
        self, reports: TMapping[str, WorkReport], frame_key: tuple[object, ...]
    ) -> tuple[dict[str, tuple[float, int, int]], dict[str, float]]:
        """Price every report with :meth:`CostModel.time_ms`: the
        walk's ``(compute_ms, eviction_bytes, external_bytes)`` per
        task, and each task's cache-stall ms (what contention
        stretches)."""
        time_ms = self.cost_model.time_ms
        costs: dict[str, tuple[float, int, int]] = {}
        stall_ms: dict[str, float] = {}
        for name, report in reports.items():
            b = time_ms(report, frame_key=frame_key)
            costs[name] = (b.total_ms, b.cache.eviction_bytes, b.cache.external_bytes)
            stall_ms[name] = b.cache_stall_ms
        return costs, stall_ms

    # -- main entry point ------------------------------------------------------

    def simulate_frame(
        self,
        reports: TMapping[str, WorkReport],
        mapping: Mapping,
        frame_key: tuple[object, ...] = (),
        start_ms: float = 0.0,
    ) -> FrameResult:
        """Simulate one frame's task chain under ``mapping``.

        Parameters
        ----------
        reports:
            Ordered task -> work report map (insertion order = flow
            order), e.g. ``FrameAnalysis.reports``.
        mapping:
            Task placement / partitioning.
        frame_key:
            Execution identity for the deterministic jitter streams.
        start_ms:
            Frame arrival time on the simulated clock.

        The frame sees an otherwise idle platform; for overlapping
        frames sharing the cores, use :meth:`simulate_stream`.
        """
        costs, stall_ms = self._price(reports, frame_key)
        return self._walk(
            reports,
            mapping,
            costs,
            start_ms,
            [start_ms] * self.platform.n_cores,
            [] if self.dram_contention else None,
            stall_ms,
        )

    def simulate_stream(
        self,
        frames: list[tuple[TMapping[str, WorkReport], Mapping, tuple[object, ...]]],
        period_ms: float,
        arrivals: list[float] | None = None,
    ) -> list[FrameResult]:
        """Simulate frames arriving every ``period_ms`` on shared cores.

        Per-frame effective latency can exceed the frame period (the
        paper's 60-120 ms latencies at a 33 ms / 30 Hz period), so a
        sustainable deployment keeps several frames *in flight*:
        frame ``k+1`` starts on whatever cores are free while frame
        ``k`` is still completing.  The core timelines persist across
        frames, so insufficient capacity shows up as unboundedly
        growing latency -- the throughput-collapse signature the
        managed runtime must avoid ("guarantees a constant
        throughput", Section 8).

        Parameters
        ----------
        frames:
            Per-frame ``(reports, mapping, frame_key)`` triples in
            arrival order.  Rotating the mapping's cores across frames
            (see :meth:`repro.hw.mapping.Mapping.rotated`) spreads
            consecutive frames over the platform.
        period_ms:
            Frame inter-arrival time (33.3 ms at 30 Hz).
        arrivals:
            Optional explicit arrival times, overriding the periodic
            ``k * period_ms`` schedule -- this is how several
            applications sharing the platform interleave (frames of
            different apps arriving at the same tick).  Must be
            non-decreasing and match ``frames`` in length.

        Returns
        -------
        One :class:`FrameResult` per frame; ``latency_ms`` is measured
        from the frame's *arrival*, so queueing delay is included.
        """
        if period_ms <= 0:
            raise ValueError("period must be positive")
        if arrivals is not None:
            if len(arrivals) != len(frames):
                raise ValueError("arrivals must match frames in length")
            if any(b < a for a, b in zip(arrivals, arrivals[1:])):
                raise ValueError("arrivals must be non-decreasing")
        core_free = [0.0] * self.platform.n_cores
        demand: list[tuple[float, float, float]] | None = (
            [] if self.dram_contention else None
        )
        results: list[FrameResult] = []
        for k, (reports, mapping, frame_key) in enumerate(frames):
            arrival = arrivals[k] if arrivals is not None else k * period_ms
            costs, stall_ms = self._price(reports, frame_key)
            results.append(
                self._walk(
                    reports, mapping, costs, arrival, core_free, demand, stall_ms
                )
            )
        return results

    def simulate_costed_frame(
        self,
        reports: TMapping[str, WorkReport],
        mapping: Mapping,
        costs: TMapping[str, tuple[float, int, int]],
        start_ms: float = 0.0,
    ) -> FrameResult:
        """Simulate one frame whose task costs are already priced.

        The batched engine prices every execution up front with the
        columnar cost path (``CostModel.time_ms_many``) and hands each
        frame's ``task -> (compute_ms, eviction_bytes, external_bytes)``
        here; the scheduling walk, ledger records and totals are
        those of :meth:`simulate_frame`, without re-deriving costs.
        Under DRAM contention the costs come from
        :meth:`contended_costs` (already stretched), so the walk
        posts no demand.
        """
        return self._walk(
            reports,
            mapping,
            costs,
            start_ms,
            [start_ms] * self.platform.n_cores,
            None,
            None,
        )

    def _walk(
        self,
        reports: TMapping[str, WorkReport],
        mapping: Mapping,
        costs: TMapping[str, tuple[float, int, int]],
        start_ms: float,
        core_free: list[float],
        demand: list[tuple[float, float, float]] | None,
        stall_ms: TMapping[str, float] | None,
    ) -> FrameResult:
        """Schedule one priced frame chain onto (possibly busy) core
        timelines.

        ``costs`` maps each task to its ``(compute_ms, eviction_bytes,
        external_bytes)``.  ``demand``, when not ``None``, holds the
        DRAM-demand intervals posted so far in this call (see
        ``dram_contention``): each task's memory-bound part
        (``stall_ms``) stretches by the oversubscription in its
        window, and the chain appends its own intervals.
        """
        max_core = mapping.max_core()
        if max_core >= self.platform.n_cores:
            raise ValueError(
                f"mapping uses core {max_core} but platform has "
                f"{self.platform.n_cores} cores"
            )
        scale = self.cost_model.pixel_scale
        # Hoisted out of the task loop (loop-invariant attribute chains).
        l2_bus_bw = self.platform.l2_bus_bw
        record = self.ledger.record

        task_ms: dict[str, float] = {}
        eviction_total = 0
        external_total = 0
        prev_end = start_ms
        prev_core: int | None = None
        prev_out_bytes = 0.0

        for name, report in reports.items():
            cores = mapping.cores_for(name)
            n_parts = len(cores)
            self._validate_partition(name, n_parts)

            compute_ms, eviction_bytes, external_bytes = costs[name]
            eviction_total += eviction_bytes
            external_total += external_bytes
            record("dram", external_bytes)

            # Input transfer from the producing task's core.
            comm_ms = 0.0
            if prev_core is not None and prev_out_bytes > 0:
                comm_ms, link = self._comm_time_ms(
                    prev_out_bytes, prev_core, cores[0]
                )
                record(link, prev_out_bytes)
            begin = max(prev_end + comm_ms, core_free[cores[0]])

            # Optional DRAM sharing: stretch the memory-bound part of
            # the task by the channel oversubscription in its window.
            if demand is not None and compute_ms > 0:
                factor = self._dram_slowdown(
                    begin, begin + compute_ms, external_bytes / compute_ms, demand
                )
                compute_ms += stall_ms[name] * (factor - 1.0)
            task_ms[name] = compute_ms

            if n_parts == 1:
                end = begin + compute_ms
                core_free[cores[0]] = end
            else:
                # Partitioned execution: fork, run slices in parallel,
                # join.  Each extra partition re-reads a halo slice of
                # the input (overlapping filter supports).
                halo_bytes = (
                    report.bytes_in * scale * self.halo_fraction * (n_parts - 1)
                )
                record("bus", halo_bytes)
                halo_ms = halo_bytes / l2_bus_bw * MS_PER_S
                slice_ms = compute_ms / n_parts + halo_ms
                fork_done = begin + self.fork_ms
                # Every slice ends at or after fork_done, so the
                # incremental max equals max(slice_ends).
                last_slice = fork_done
                for core in cores:
                    e = max(fork_done, core_free[core]) + slice_ms
                    core_free[core] = e
                    if e > last_slice:
                        last_slice = e
                end = last_slice + self.join_ms
                core_free[cores[0]] = max(core_free[cores[0]], end)

            if demand is not None and end > begin:
                demand.append((begin, end, external_bytes / (end - begin)))
            prev_end = end
            prev_core = cores[0]
            prev_out_bytes = report.bytes_out * scale

        self.ledger.frame_done()
        o = obs.get_obs()
        if o.enabled:
            o.metrics.counter("hw_eviction_bytes_total").inc(float(eviction_total))
            o.metrics.counter("hw_external_bytes_total").inc(float(external_total))
        return FrameResult(
            latency_ms=prev_end - start_ms,
            task_ms=task_ms,
            eviction_bytes=eviction_total,
            external_bytes=external_total,
        )
