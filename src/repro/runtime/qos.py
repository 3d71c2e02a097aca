"""Latency budget and delay-line QoS control.

"During a live interventional X-ray procedure, large latency
differences between succeeding frames are not allowed for clinical
reasons (eye-hand coordination of the physician)." (Section 6)

The delay line holds each frame's output until the budget deadline,
so frames completing early leave at the same relative latency as
frames completing on time; frames *missing* the budget leave late and
are counted as violations.  The output-latency series of a run is
therefore ``max(completion, budget)``, whose jitter the Fig. 7
comparison evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["LatencyBudget", "DelayLine", "QosTier", "MissBudget"]


@dataclass
class LatencyBudget:
    """The runtime latency target.

    Attributes
    ----------
    target_ms:
        The per-frame latency budget (None until initialized).
    slack:
        Multiplier applied when initializing from an average-case
        estimate (headroom for prediction error).
    """

    target_ms: float | None = None
    slack: float = 1.08

    @property
    def initialized(self) -> bool:
        return self.target_ms is not None

    def initialize(self, average_case_ms: float) -> float:
        """Set the budget from an average-case estimate (Section 6,
        "Initialization"); returns the chosen target."""
        if average_case_ms <= 0:
            raise ValueError("average-case estimate must be positive")
        self.target_ms = float(average_case_ms) * self.slack
        return self.target_ms

    def require(self) -> float:
        """The target, raising if the budget was never initialized."""
        if self.target_ms is None:
            raise RuntimeError("latency budget not initialized")
        return self.target_ms


@dataclass
class DelayLine:
    """Output-side latency equalizer.

    Collects per-frame completion latencies and emits each frame at
    ``max(completion, budget)``.
    """

    budget: LatencyBudget
    completion_ms: list[float] = field(default_factory=list)
    output_ms: list[float] = field(default_factory=list)
    violations: int = 0

    def push(self, completion_latency_ms: float) -> float:
        """Register one frame; returns its output latency."""
        target = self.budget.require()
        out = max(float(completion_latency_ms), target)
        if completion_latency_ms > target + 1e-9:
            self.violations += 1
        self.completion_ms.append(float(completion_latency_ms))
        self.output_ms.append(out)
        return out

    @property
    def n_frames(self) -> int:
        return len(self.output_ms)

    def violation_rate(self) -> float:
        """Fraction of frames that missed the budget."""
        return self.violations / self.n_frames if self.n_frames else 0.0

    def output_jitter_std(self) -> float:
        """Std-dev of the output latency (what the physician sees)."""
        return float(np.std(self.output_ms)) if self.output_ms else 0.0


@dataclass(frozen=True)
class QosTier:
    """One tenant class's service contract.

    The fleet layer admits, orders and (under overload) sheds work by
    tier; the per-frame runtime reuses the same vocabulary for a
    single stream's budget.

    Attributes
    ----------
    name:
        Tier identifier (``"gold"``, ``"silver"``, ...).
    priority:
        Scheduling precedence; higher runs earlier in the pending
        queue.
    wait_budget_ms:
        Queue-wait latency target: the tier's :class:`LatencyBudget`
        for time *before* execution starts.
    max_pending:
        Admission depth cap: beyond this many queued jobs of the
        tier, new arrivals are shed (ignored for unsheddable tiers).
    miss_budget:
        Allowed fraction of deadline misses (the tier's error
        budget); burn above 1.0 means the contract is broken.
    sheddable:
        Whether overload may reject this tier's arrivals at all.
    shed_wait_factor:
        Load-shedding trigger as a multiple of the wait budget:
        arrivals are turned away once the projected wait exceeds
        ``shed_wait_factor * wait_budget_ms``.  The budget itself is
        the SLO target (violations are counted against it); shedding
        starts only where service would degrade beyond salvage.
    """

    name: str
    priority: int
    wait_budget_ms: float
    max_pending: int
    miss_budget: float
    sheddable: bool = True
    shed_wait_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.wait_budget_ms <= 0:
            raise ValueError("wait_budget_ms must be positive")
        if self.max_pending <= 0:
            raise ValueError("max_pending must be positive")
        if not 0.0 < self.miss_budget <= 1.0:
            raise ValueError("miss_budget must be in (0, 1]")
        if self.shed_wait_factor < 1.0:
            raise ValueError("shed_wait_factor must be >= 1")

    @property
    def shed_wait_ms(self) -> float:
        """Projected wait beyond which arrivals are shed."""
        return self.wait_budget_ms * self.shed_wait_factor

    def wait_budget(self) -> LatencyBudget:
        """The tier's wait target as an initialized latency budget."""
        return LatencyBudget(target_ms=self.wait_budget_ms)


@dataclass
class MissBudget:
    """Deadline-miss error budget (SRE-style burn accounting).

    ``allowed_fraction`` of outcomes may miss their deadline; the
    *burn* is the observed miss rate over that allowance, so burn 1.0
    means the budget is exactly exhausted and burn > 1.0 means the
    SLO is violated.
    """

    allowed_fraction: float
    misses: int = 0
    total: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.allowed_fraction <= 1.0:
            raise ValueError("allowed_fraction must be in (0, 1]")

    def record(self, missed: bool) -> None:
        """Count one outcome."""
        self.total += 1
        if missed:
            self.misses += 1

    @property
    def miss_rate(self) -> float:
        """Observed fraction of missed outcomes."""
        return self.misses / self.total if self.total else 0.0

    def burn(self) -> float:
        """Budget burn: miss rate relative to the allowance."""
        return self.miss_rate / self.allowed_fraction
