"""Greedy flow-graph repartitioning from resource predictions.

"Based on the outcome from the resource predictions for subsequent
frames, the resource manager can decide to repartition the flow-graph
to handle an increase or decrease of resource consumption, to keep
the output latency stable at the initialized (average-case) value."
(Section 6)

The partitioner mirrors the simulator's partition timing model
analytically: a task split ``k`` ways costs
``compute/k + fork + join + halo(k)``.  Starting from the serial
mapping it repeatedly splits the task with the largest *gain* until
the predicted frame latency fits the budget or no split helps --
and, symmetrically, it never uses more cores than the budget needs,
leaving the rest free "to execute more functions on the same
platform".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping as TMapping

import repro.obs as obs
from repro.graph.flowgraph import FlowGraph
from repro.hw.mapping import Mapping
from repro.hw.spec import PlatformSpec
from repro.util.units import KIB, MS_PER_S

__all__ = ["PartitionDecision", "Partitioner"]


@dataclass(frozen=True)
class PartitionDecision:
    """Outcome of one partitioning round.

    Attributes
    ----------
    mapping:
        The chosen task placement.
    predicted_latency_ms:
        Analytic frame latency under that mapping and the prediction.
    parts:
        Partition count per split task (1 for everything else).
    cores_used:
        Number of distinct cores the mapping touches.
    """

    mapping: Mapping
    predicted_latency_ms: float
    parts: dict[str, int]
    cores_used: int


class Partitioner:
    """Greedy latency-driven partitioner.

    Parameters
    ----------
    platform:
        Core count and link bandwidths.
    graph:
        Flow graph (divisibility capabilities, input sizes for halo
        cost).
    fork_ms, join_ms, halo_fraction:
        Must match the simulator's partition overhead model so the
        analytic latency is faithful.
    max_parts:
        Upper bound on partitions per task (diminishing returns:
        fork/join and halo overhead eventually dominate).
    """

    def __init__(
        self,
        platform: PlatformSpec,
        graph: FlowGraph,
        fork_ms: float = 0.12,
        join_ms: float = 0.10,
        halo_fraction: float = 0.02,
        max_parts: int = 4,
    ) -> None:
        self.platform = platform
        self.graph = graph
        self.fork_ms = float(fork_ms)
        self.join_ms = float(join_ms)
        self.halo_fraction = float(halo_fraction)
        self.max_parts = int(min(max_parts, platform.n_cores))

    # -- analytic timing -------------------------------------------------------

    def splittable(self, task: str) -> bool:
        """Whether the graph allows partitioning this task."""
        spec = self.graph.tasks.get(task)
        if spec is None:
            return False
        return bool(spec.divisible or spec.functional_parallel)

    def _halo_ms(self, task: str, k: int) -> float:
        """Stripe-boundary re-read cost for a k-way split."""
        if k <= 1:
            return 0.0
        spec = self.graph.tasks.get(task)
        input_bytes = (spec.input_kb if spec else 0.0) * KIB
        halo_bytes = input_bytes * self.halo_fraction * (k - 1)
        return halo_bytes / self.platform.l2_bus_bw * MS_PER_S

    def task_latency_ms(self, task: str, compute_ms: float, k: int) -> float:
        """Analytic latency of one task split ``k`` ways."""
        if k <= 1:
            return compute_ms
        return (
            compute_ms / k
            + self.fork_ms
            + self.join_ms
            + self._halo_ms(task, k)
        )

    def frame_latency_ms(
        self, task_ms: TMapping[str, float], parts: TMapping[str, int]
    ) -> float:
        """Analytic serial-chain frame latency under a partitioning."""
        return float(
            sum(
                self.task_latency_ms(t, ms, parts.get(t, 1))
                for t, ms in task_ms.items()
            )
        )

    # -- decision ---------------------------------------------------------------

    def choose_robust(
        self,
        scenario_task_ms: TMapping[int, TMapping[str, float]],
        budget_ms: float,
    ) -> PartitionDecision:
        """Partitioning that fits the budget under *every* plausible
        scenario.

        A key asymmetry makes this nearly free: a partitioned task
        that does not run this frame costs nothing, while an
        un-partitioned expensive task in a mispredicted scenario
        blows the latency budget.  So the manager hands this method
        the predictions of all scenarios with non-negligible
        transition probability and partitions for their *worst*
        latency; the measured cost is only the fork/join overhead of
        the splits that actually execute.
        """
        if budget_ms <= 0:
            raise ValueError("budget must be positive")
        if not scenario_task_ms:
            raise ValueError("need at least one scenario")
        union: dict[str, float] = {}
        for tm in scenario_task_ms.values():
            for t, ms in tm.items():
                union[t] = max(union.get(t, 0.0), float(ms))
        parts: dict[str, int] = {t: 1 for t in union}

        def worst() -> tuple[float, TMapping[str, float]]:
            worst_ms, worst_tm = -1.0, None
            for tm in scenario_task_ms.values():
                lat = self.frame_latency_ms(tm, parts)
                if lat > worst_ms:
                    worst_ms, worst_tm = lat, tm
            return worst_ms, worst_tm  # type: ignore[return-value]

        latency, critical = worst()
        while latency > budget_ms:
            best_task, best_gain = None, 0.0
            for t, ms in critical.items():
                k = parts[t]
                if k >= self.max_parts or not self.splittable(t):
                    continue
                gain = self.task_latency_ms(t, ms, k) - self.task_latency_ms(
                    t, ms, k + 1
                )
                if gain > best_gain:
                    best_task, best_gain = t, gain
            if best_task is None or best_gain <= 1e-9:
                break
            parts[best_task] += 1
            latency, critical = worst()

        if latency > budget_ms:
            obs.get_obs().metrics.counter("partition_infeasible_total").inc()
        return self._decision(union, parts)

    def _decision(
        self, task_ms: TMapping[str, float], parts: dict[str, int]
    ) -> PartitionDecision:
        mapping = Mapping.serial()
        cores_used = 1
        o = obs.get_obs()
        for t, k in parts.items():
            if k > 1:
                mapping = mapping.with_partition(t, tuple(range(k)))
                cores_used = max(cores_used, k)
                if o.enabled:
                    o.metrics.counter("partition_split_total", task=t).inc()
        o.metrics.counter("partition_decision_total").inc()
        return PartitionDecision(
            mapping=mapping,
            predicted_latency_ms=self.frame_latency_ms(task_ms, parts),
            parts=parts,
            cores_used=cores_used,
        )
