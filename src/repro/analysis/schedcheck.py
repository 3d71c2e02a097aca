"""Scenario-space schedulability model checker for composite graphs.

The graph checks (:mod:`repro.analysis.graphcheck`) verify each
application *alone*, one scenario at a time.  This pass closes the
multi-application gap of Section 7: given a mix of registry workloads
sharing one platform (``stentboost+stentboost``,
``stentboost+ultrasound`` ...), it exhaustively enumerates the *joint*
scenario space -- the product of every application's ``2**n_switches``
switch assignments -- and statically verifies each joint scenario
against the platform budgets:

``sched/compute-budget`` (ERROR)
    The aggregate static compute lower bound of all active tasks must
    fit the core supply within one frame period.  Task costs are the
    *data-independent* part of the calibrated cost model (fixed cost
    plus the per-kpixel term over the task's Table 1 input), so an
    ERROR is provable: no data can make the scenario cheaper.
``sched/deadline`` (ERROR)
    Per application and scenario, the critical path through the active
    tasks -- with divisible tasks optimistically split across every
    core -- must meet the frame period.  This bound ignores all
    interference, so a violation is again provable.
``sched/bus-budget`` (ERROR)
    The joint scenario's aggregate inter-task bandwidth must fit the
    weakest platform link (L2 bus vs aggregate DRAM streams).
``sched/l2-pressure`` (WARNING)
    The joint scenario's aggregate stream working set vs the
    platform's total L2 capacity.  Overflow is legitimate (it is what
    feeds the Fig. 5 swap model), hence a warning, not an error.

Violations are *reachability-weighted*: each workload carries a
first-order scenario chain (:class:`repro.workloads.ScenarioDynamics`);
the product of the per-application chains
(:func:`repro.core.markov.product_chain`) is the joint chain, and each
violating joint scenario is reported with its stationary probability
and a shortest witness path from the initial joint scenario -- the
counterexample trace.  A violation *without* a witness is downgraded
one severity step: either some application provably cannot reach its
scenario at all (no positive-probability path from its initial
scenario), or the applications -- which advance in lockstep -- cannot
all reach their targets in the same number of frames within
:data:`MAX_WITNESS_FRAMES`.  Every full-severity finding therefore
carries a concrete counterexample trace.

The search is pruned: identical application instances are enumerated
as multisets (symmetry reduction -- two StentBoost instances in
scenarios ``(3, 5)`` and ``(5, 3)`` are the same orbit), and subtrees
whose component-wise worst case already fits every budget are cut
without expansion.  All metrics are monotone sums/maxima of per-app
loads, so both reductions are exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Protocol, Sequence, runtime_checkable

from repro.analysis.findings import Finding, Severity
from repro.analysis.graphcheck import scenario_ids_for
from repro.core.markov import MarkovChain, product_chain
from repro.graph.composite import CompositeGraph, build_multiapp_graph
from repro.graph.scenarios import scenario_name
from repro.hw.cost import DEFAULT_TASK_COSTS, TaskCostSpec
from repro.imaging.pipeline import SwitchState
from repro.util.units import BYTES_PER_PIXEL, HZ_VIDEO, KIB, MB, MIB, MS_PER_S, PX_PER_KPX
from repro.workloads import Workload, get_workload

__all__ = [
    "PlatformLike",
    "MAX_WITNESS_FRAMES",
    "DEFAULT_REPORT_CAP",
    "SchedReport",
    "FeasibilityEnvelope",
    "static_task_cost_ms",
    "check_schedulability",
    "compute_envelope",
]

#: Longest witness path the checker searches for (frames).  Every
#: registered workload's chain reaches everything in one step (all
#: stay probabilities strictly inside (0, 1)); the bound only matters
#: for nearly-deterministic fixture dynamics.
MAX_WITNESS_FRAMES = 32

#: Most-probable violating joint scenarios reported per rule; the
#: remainder is counted in one ``sched/report-cap`` note so nothing
#: is dropped silently.
DEFAULT_REPORT_CAP = 24

_EPS = 1e-9


@runtime_checkable
class CacheLike(Protocol):
    """The cache facts the budget checks consume."""

    capacity_bytes: int


@runtime_checkable
class PlatformLike(Protocol):
    """The platform facts the budget checks consume.

    A structural subset of :class:`repro.hw.spec.PlatformSpec`; the
    checks are typed against this protocol rather than duck-typing
    attribute-by-attribute with ``getattr``, so a platform missing a
    budget is a type error at the call site, not a silently skipped
    check.
    """

    n_cores: int
    l2: CacheLike
    l2_bus_bw: float
    n_l2: int
    total_dram_stream_bw: float


# -- static per-task cost ----------------------------------------------------


def static_task_cost_ms(
    input_kb: float, cost: TaskCostSpec | None
) -> float:
    """Data-independent lower bound on one task execution (ms).

    ``fixed_ms`` plus the per-kpixel term over the task's Table 1
    input at the native 2 B/pixel geometry.  Content-dependent
    per-count terms are excluded -- they can be zero on easy frames --
    so the bound is sound: no input makes the task cheaper.
    """
    if cost is None:
        return 0.0
    kpx = input_kb * KIB / BYTES_PER_PIXEL / PX_PER_KPX
    return cost.fixed_ms + cost.per_kpixel_ms * kpx


# -- per-application model ---------------------------------------------------


@dataclass(frozen=True)
class _Load:
    """Monotone joint-scenario metrics of one app in one scenario."""

    cost_ms: float
    bw_bytes: float
    ws_bytes: float

    def __add__(self, other: "_Load") -> "_Load":
        return _Load(
            self.cost_ms + other.cost_ms,
            self.bw_bytes + other.bw_bytes,
            self.ws_bytes + other.ws_bytes,
        )


_ZERO_LOAD = _Load(0.0, 0.0, 0.0)


class _AppModel:
    """Everything the checker precomputes about one workload."""

    def __init__(
        self, workload: Workload, cores: int, rate_hz: float
    ) -> None:
        self.workload = workload
        self.name = workload.name
        self.graph = workload.build_graph()
        dynamics = workload.scenarios
        ids = scenario_ids_for(workload.switch_names)
        if len(ids) != dynamics.n_scenarios:
            raise ValueError(
                f"workload {workload.name!r}: {len(workload.switch_names)} "
                f"switches imply {len(ids)} scenarios but its dynamics "
                f"model {dynamics.n_scenarios}"
            )
        self.n_scenarios = dynamics.n_scenarios
        self.initial = dynamics.initial_scenario
        self.chain = MarkovChain.from_transition(dynamics.transition())
        self.stationary = tuple(float(p) for p in self.chain.stationary())

        costs = dict(workload.task_costs or DEFAULT_TASK_COSTS)
        self.loads: list[_Load] = []
        self.span_ms: list[float] = []
        for sid in ids:
            state = SwitchState.from_scenario_id(sid)
            self.loads.append(self._load(state, costs, rate_hz))
            try:
                self.span_ms.append(self._span(state, costs, cores))
            except ValueError as exc:
                raise ValueError(f"workload {workload.name!r}: {exc}") from exc
        self.max_load = _Load(
            max(l.cost_ms for l in self.loads),
            max(l.bw_bytes for l in self.loads),
            max(l.ws_bytes for l in self.loads),
        )
        self._build_reachability()

    def _load(
        self,
        state: SwitchState,
        costs: Mapping[str, TaskCostSpec],
        rate_hz: float,
    ) -> _Load:
        graph = self.graph
        active = graph.active_tasks(state)
        cost = sum(
            static_task_cost_ms(graph.tasks[n].input_kb, costs.get(n))
            for n in active
        )
        bw = graph.total_bandwidth_mbps(state, rate_hz) * MB
        ws = 0.0
        for name in sorted(active):
            task = graph.tasks[name]
            if task.kind != "stream":
                continue
            peak_kb = max(
                (p.total_kb for p in task.phases), default=task.total_kb
            )
            ws += peak_kb * KIB
        return _Load(float(cost), float(bw), float(ws))

    def _span(
        self,
        state: SwitchState,
        costs: Mapping[str, TaskCostSpec],
        cores: int,
    ) -> float:
        """Critical path with divisible tasks split over all cores."""
        graph = self.graph
        order = graph.execution_order(state)
        running = set(order)
        preds: dict[str, list[str]] = {}
        for e in graph.active_edges(state):
            if e.src in running and e.dst in running:
                preds.setdefault(e.dst, []).append(e.src)
        finish: dict[str, float] = {}
        for name in order:
            task = graph.tasks[name]
            w = static_task_cost_ms(task.input_kb, costs.get(name))
            if task.divisible and cores > 1:
                w /= cores
            start = max(
                (finish[p] for p in preds.get(name, []) if p in finish),
                default=0.0,
            )
            finish[name] = start + w
        return max(finish.values(), default=0.0)

    def _build_reachability(self) -> None:
        t = self.chain.transition
        succ = [
            [j for j in range(self.n_scenarios) if t[i][j] > 0.0]
            for i in range(self.n_scenarios)
        ]
        # BFS hop counts from the initial scenario (None: unreachable).
        dist: list[int | None] = [None] * self.n_scenarios
        dist[self.initial] = 0
        frontier = [self.initial]
        while frontier:
            nxt: list[int] = []
            for s in frontier:
                for d in succ[s]:
                    if dist[d] is None:
                        dist[d] = dist[s] + 1  # type: ignore[operator]
                        nxt.append(d)
            frontier = nxt
        self.dist = dist
        # Exact-length layers with parents, for witness extraction: a
        # joint witness needs every app to reach its target in the
        # *same* number of frames, which BFS distance alone cannot give.
        self.exact: list[set[int]] = [{self.initial}]
        self.parent: list[dict[int, int]] = [{}]
        for _ in range(MAX_WITNESS_FRAMES):
            layer: set[int] = set()
            par: dict[int, int] = {}
            for s in sorted(self.exact[-1]):
                for d in succ[s]:
                    if d not in par:
                        par[d] = s
                        layer.add(d)
            self.exact.append(layer)
            self.parent.append(par)

    def path_of_length(self, target: int, length: int) -> list[int]:
        """A positive-probability path initial -> target in exactly
        ``length`` steps (caller guarantees one exists)."""
        path = [target]
        for step in range(length, 0, -1):
            path.append(self.parent[step][path[-1]])
        path.reverse()
        return path

    def label(self, sid: int) -> str:
        return scenario_name(
            SwitchState.from_scenario_id(sid), self.workload.switch_names
        )


# -- results -----------------------------------------------------------------


@dataclass
class SchedReport:
    """Outcome of one schedulability check."""

    apps: tuple[str, ...]
    cores: int
    rate_hz: float
    #: Size of the full joint scenario space (product over apps).
    n_joint: int
    #: Symmetry-reduced orbits the space collapses to.
    n_orbits: int
    #: Orbits actually evaluated at a leaf.
    n_checked: int
    #: Subtrees cut because their worst case already fit every budget.
    n_pruned: int
    findings: list[Finding] = field(default_factory=list)

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity >= Severity.ERROR]


@dataclass(frozen=True)
class FeasibilityEnvelope:
    """Statically-proven concurrency limits per workload.

    ``max_instances[name]`` is the largest number of concurrent
    instances of ``name`` for which the checker finds no ERROR on the
    given platform -- the feasibility region boundary along each
    homogeneous axis.  The fleet's admission controller consumes this
    as a per-app in-flight cap (:meth:`as_app_caps`): a job that would
    exceed the statically-proven envelope is shed at the door instead
    of admitted into an unschedulable mix.
    """

    cores: int
    rate_hz: float
    max_instances: Mapping[str, int]

    def as_app_caps(self) -> dict[str, int]:
        """Plain per-app caps for the fleet admission controller."""
        return dict(self.max_instances)

    def to_doc(self) -> dict[str, object]:
        return {
            "schema": ENVELOPE_SCHEMA,
            "cores": self.cores,
            "rate_hz": self.rate_hz,
            "max_instances": dict(sorted(self.max_instances.items())),
        }


#: Schema tag of the envelope JSON document.
ENVELOPE_SCHEMA = "repro-sched-envelope/1"


# -- the checker -------------------------------------------------------------


def _resolve_workload(app: "str | Workload") -> Workload:
    if isinstance(app, Workload):
        return app
    return get_workload(app)


def _multinomial(combo: Sequence[int]) -> int:
    """Assignments in the orbit of one within-group multiset."""
    counts: dict[int, int] = {}
    for sid in combo:
        counts[sid] = counts.get(sid, 0) + 1
    orbit = math.factorial(len(combo))
    for c in counts.values():
        orbit //= math.factorial(c)
    return orbit


@dataclass
class _Violation:
    rule: str
    severity: Severity
    sids: tuple[int, ...]
    prob: float
    orbit: int
    detail: str


def check_schedulability(
    apps: "Sequence[str | Workload]",
    platform: PlatformLike,
    cores: int | None = None,
    rate_hz: float = HZ_VIDEO,
    report_cap: int = DEFAULT_REPORT_CAP,
    graph: CompositeGraph | None = None,
) -> SchedReport:
    """Exhaustively model-check one application mix on one platform.

    ``apps`` is the mix, one entry per concurrent instance (workload
    names or :class:`Workload` objects).  ``cores`` defaults to the
    platform's core count.  ``graph`` optionally supplies a prebuilt
    composite; by default the mix is materialized through
    :func:`repro.graph.composite.build_multiapp_graph`, which also
    validates that the composite graph itself is well formed.  A
    workload whose activation order runs against one of its edges
    raises ``ValueError`` naming the workload and the edge.
    """
    if not apps:
        raise ValueError("need at least one app")
    workloads = [_resolve_workload(a) for a in apps]
    n_cores = platform.n_cores if cores is None else int(cores)
    if n_cores < 1:
        raise ValueError(f"cores must be >= 1, got {n_cores}")
    if graph is None:
        # Materializing the composite exercises the generalized
        # builders (prefix uniqueness, shared pseudo-nodes) on the
        # exact mix under check.
        graph = build_multiapp_graph([w.build_graph for w in workloads])

    models: dict[str, _AppModel] = {}
    for w in workloads:
        if w.name not in models:
            models[w.name] = _AppModel(w, n_cores, rate_hz)
    instances = [models[w.name] for w in workloads]
    names = tuple(w.name for w in workloads)
    label = "+".join(names) + f"@{n_cores}c"

    period_ms = MS_PER_S / rate_hz
    supply_core_ms = n_cores * period_ms
    bus_budget = min(
        float(platform.l2_bus_bw), float(platform.total_dram_stream_bw)
    )
    l2_total = float(platform.n_l2 * platform.l2.capacity_bytes)

    findings: list[Finding] = []

    # Per-app deadline feasibility: the critical path depends on one
    # app's scenario only, so checking it inside the joint loop would
    # replicate each violation across the whole product space.
    for i, model in enumerate(instances):
        for sid in range(model.n_scenarios):
            span = model.span_ms[sid]
            if span <= period_ms + _EPS:
                continue
            severity = Severity.ERROR
            suffix = _app_reach_suffix(model, sid)
            if model.dist[sid] is None:
                severity = Severity.WARNING
            findings.append(
                Finding(
                    rule="sched/deadline",
                    severity=severity,
                    location=f"schedcheck[{label}] app {i} scenario {sid}",
                    message=(
                        f"critical path {span:.2f} ms of {model.name} "
                        f"scenario {sid} [{model.label(sid)}] exceeds the "
                        f"{period_ms:.2f} ms frame period even split "
                        f"across all {n_cores} core(s)"
                        f"{suffix}"
                    ),
                )
            )

    # Group identical instances for symmetry reduction.  Positions
    # remember where each group's instances sit in the original order
    # so representative tuples read in ``apps`` order.
    groups: list[tuple[_AppModel, list[int]]] = []
    by_name: dict[str, int] = {}
    for pos, model in enumerate(instances):
        g = by_name.get(model.name)
        if g is None:
            by_name[model.name] = len(groups)
            groups.append((model, [pos]))
        else:
            groups[g][1].append(pos)

    n_joint = math.prod(m.n_scenarios for m in instances)
    n_orbits = math.prod(
        math.comb(m.n_scenarios + len(pos) - 1, len(pos))
        for m, pos in groups
    )

    def fits(load: _Load) -> bool:
        return (
            load.cost_ms <= supply_core_ms + _EPS
            and load.bw_bytes <= bus_budget + _EPS
            and load.ws_bytes <= l2_total + _EPS
        )

    suffix_max = [_ZERO_LOAD] * (len(groups) + 1)
    for g in range(len(groups) - 1, -1, -1):
        model, positions = groups[g]
        worst = _ZERO_LOAD
        for _ in positions:
            worst = worst + model.max_load
        suffix_max[g] = suffix_max[g + 1] + worst

    violations: list[_Violation] = []
    stats = {"checked": 0, "pruned": 0}

    def leaf(chosen: list[tuple[int, ...]], load: _Load) -> None:
        stats["checked"] += 1
        broken: list[tuple[str, Severity, str]] = []
        if load.cost_ms > supply_core_ms + _EPS:
            broken.append(
                (
                    "sched/compute-budget",
                    Severity.ERROR,
                    f"aggregate compute demand {load.cost_ms:.2f} "
                    f"core-ms/frame exceeds supply "
                    f"{supply_core_ms:.2f} core-ms "
                    f"({n_cores} core(s) x {period_ms:.2f} ms period)",
                )
            )
        if load.bw_bytes > bus_budget + _EPS:
            broken.append(
                (
                    "sched/bus-budget",
                    Severity.ERROR,
                    f"aggregate inter-task bandwidth "
                    f"{load.bw_bytes / MB:.0f} MByte/s exceeds the "
                    f"weakest platform link ({bus_budget / MB:.0f} "
                    f"MByte/s)",
                )
            )
        if load.ws_bytes > l2_total + _EPS:
            broken.append(
                (
                    "sched/l2-pressure",
                    Severity.WARNING,
                    f"aggregate stream working set "
                    f"{load.ws_bytes / MIB:.1f} MiB exceeds the "
                    f"platform's total L2 ({l2_total / MIB:.1f} MiB)",
                )
            )
        if not broken:
            return
        sids = [0] * len(instances)
        orbit = 1
        prob = 1.0
        for (model, positions), combo in zip(groups, chosen):
            orbit *= _multinomial(combo)
            for pos, sid in zip(positions, combo):
                sids[pos] = sid
                prob *= model.stationary[sid]
        for rule, severity, detail in broken:
            violations.append(
                _Violation(
                    rule=rule,
                    severity=severity,
                    sids=tuple(sids),
                    prob=prob,
                    orbit=orbit,
                    detail=detail,
                )
            )

    def rec(g: int, chosen: list[tuple[int, ...]], load: _Load) -> None:
        if fits(load + suffix_max[g]):
            stats["pruned"] += 1
            return
        if g == len(groups):
            leaf(chosen, load)
            return
        model, positions = groups[g]
        for combo in itertools.combinations_with_replacement(
            range(model.n_scenarios), len(positions)
        ):
            extra = _ZERO_LOAD
            for sid in combo:
                extra = extra + model.loads[sid]
            chosen.append(combo)
            rec(g + 1, chosen, load + extra)
            chosen.pop()

    rec(0, [], _ZERO_LOAD)

    findings += _render_violations(
        violations, instances, label, report_cap
    )
    report = SchedReport(
        apps=names,
        cores=n_cores,
        rate_hz=rate_hz,
        n_joint=n_joint,
        n_orbits=n_orbits,
        n_checked=stats["checked"],
        n_pruned=stats["pruned"],
        findings=findings,
    )
    return report


def _app_reach_suffix(model: _AppModel, sid: int) -> str:
    """Reachability annotation of one single-app scenario."""
    pi = model.stationary[sid]
    d = model.dist[sid]
    if d is None:
        return (
            f"; stationary p={pi:.3e}; statically unreachable from "
            f"initial scenario {model.initial} -- downgraded"
        )
    path = "->".join(
        str(s) for s in model.path_of_length(sid, d)
    )
    return f"; stationary p={pi:.3e}; witness ({d} frame(s)): {path}"


def _joint_witness(
    instances: Sequence[_AppModel], sids: Sequence[int]
) -> "tuple[str, bool]":
    """Reachability annotation of one joint scenario.

    Returns ``(suffix, witnessed)``; a violation without a witness is
    downgraded -- per-app reachability alone is not enough, because
    independent apps advance in lockstep and a joint scenario needs
    every app to reach its target in the *same* number of frames
    (two deterministic copies can each reach 0 and 7 individually yet
    never sit in (0, 7) together).
    """
    if any(m.dist[s] is None for m, s in zip(instances, sids)):
        initials = ",".join(str(m.initial) for m in instances)
        return (
            f"; statically unreachable from initial scenario "
            f"({initials}) -- downgraded"
        ), False
    length = None
    for l in range(MAX_WITNESS_FRAMES + 1):
        if all(s in m.exact[l] for m, s in zip(instances, sids)):
            length = l
            break
    if length is None:
        return (
            f"; no witness within {MAX_WITNESS_FRAMES} frames of the "
            f"initial scenario -- downgraded"
        ), False
    paths = [
        m.path_of_length(s, length) for m, s in zip(instances, sids)
    ]
    steps = [
        "(" + ",".join(str(p[t]) for p in paths) + ")"
        for t in range(length + 1)
    ]
    return f"; witness ({length} frame(s)): {'->'.join(steps)}", True


def _render_violations(
    violations: list[_Violation],
    instances: Sequence[_AppModel],
    label: str,
    report_cap: int,
) -> list[Finding]:
    """Most-probable-first findings, capped per rule with a note."""
    findings: list[Finding] = []
    by_rule: dict[str, list[_Violation]] = {}
    for v in violations:
        by_rule.setdefault(v.rule, []).append(v)
    for rule in sorted(by_rule):
        ranked = sorted(by_rule[rule], key=lambda v: (-v.prob, v.sids))
        for v in ranked[:report_cap]:
            witness, witnessed = _joint_witness(instances, v.sids)
            severity = v.severity
            if not witnessed and severity > Severity.INFO:
                severity = Severity(severity - 1)
            sids_str = ",".join(str(s) for s in v.sids)
            labels = " | ".join(
                m.label(s) for m, s in zip(instances, v.sids)
            )
            orbit_note = (
                f"; orbit x{v.orbit}" if v.orbit > 1 else ""
            )
            findings.append(
                Finding(
                    rule=rule,
                    severity=severity,
                    location=(
                        f"schedcheck[{label}] joint scenario ({sids_str})"
                    ),
                    message=(
                        f"{v.detail} in joint scenario ({sids_str}) "
                        f"[{labels}]; stationary p={v.prob:.3e}"
                        f"{orbit_note}"
                        f"{witness}"
                    ),
                )
            )
        dropped = len(ranked) - report_cap
        if dropped > 0:
            findings.append(
                Finding(
                    rule="sched/report-cap",
                    severity=Severity.INFO,
                    location=f"schedcheck[{label}] rule {rule}",
                    message=(
                        f"{dropped} more violating joint scenario "
                        f"orbit(s) beyond the {report_cap} most "
                        f"probable reported for {rule}"
                    ),
                )
            )
    return findings


def product_scenario_chain(
    apps: "Sequence[str | Workload]",
) -> MarkovChain:
    """The joint scenario chain of a mix (first app most significant).

    Exposed for diagnostics and tests: the checker itself factors
    reachability per application, but the product chain *is* the
    semantics being factored -- its stationary distribution over joint
    states equals the product of the per-app stationaries the checker
    multiplies.
    """
    chains = [
        MarkovChain.from_transition(
            _resolve_workload(a).scenarios.transition()
        )
        for a in apps
    ]
    return product_chain(chains)


def compute_envelope(
    platform: PlatformLike,
    cores: int | None = None,
    rate_hz: float = HZ_VIDEO,
    workloads: "Sequence[str | Workload] | None" = None,
    search_cap: int = 16,
) -> FeasibilityEnvelope:
    """Max statically-feasible concurrent instances per workload.

    For each workload, the largest homogeneous mix with no ERROR
    finding, by linear search up to ``search_cap`` (the metrics are
    monotone in the instance count, so the first failure is the
    boundary).
    """
    if workloads is None:
        from repro.workloads import all_workloads

        candidates: list[Workload] = all_workloads()
    else:
        candidates = [_resolve_workload(w) for w in workloads]
    n_cores = platform.n_cores if cores is None else int(cores)
    caps: dict[str, int] = {}
    for w in candidates:
        feasible = 0
        for n in range(1, search_cap + 1):
            report = check_schedulability(
                [w] * n, platform, cores=n_cores, rate_hz=rate_hz
            )
            if report.errors:
                break
            feasible = n
        caps[w.name] = feasible
    return FeasibilityEnvelope(
        cores=n_cores, rate_hz=rate_hz, max_instances=caps
    )
