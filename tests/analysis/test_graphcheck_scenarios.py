"""Graph checks against the composite (multi-app / co-schedule) graphs.

Satellite coverage for :mod:`repro.analysis.graphcheck`: the checks
must accept the paper's Section-7 composite workloads and must object
when a composite spec starves a task.  Whether the aggregate load fits
the platform is schedcheck's question (``test_schedcheck.py``).
"""

from __future__ import annotations

import pytest

from repro.analysis.findings import Severity, sort_key
from repro.analysis.graphcheck import (
    check_flowgraph,
    check_scenarios,
    scenario_ids_for,
)
from repro.analysis.schedcheck import PlatformLike
from repro.graph.composite import (
    BACKGROUND_TASK,
    CompositeGraph,
    app_prefix,
    build_coschedule_graph,
    build_multiapp_graph,
    resolve_apps,
)
from repro.graph.flowgraph import FlowGraph
from repro.graph.stentboost import build_stentboost_graph
from repro.hw.spec import blackford
from repro.imaging.pipeline import SwitchState
from repro.workloads import all_workloads, get_workload


def _warnings_or_worse(findings):
    return [f for f in findings if f.severity >= Severity.WARNING]


class TestMultiApp:
    def test_two_apps_pass_on_blackford(self):
        findings = check_flowgraph(build_multiapp_graph(2))
        assert _warnings_or_worse(findings) == [], [
            f.render() for f in findings
        ]

    def test_three_apps_pass_on_blackford(self):
        findings = check_flowgraph(build_multiapp_graph(3))
        assert _warnings_or_worse(findings) == []

    def test_task_names_are_prefixed_per_app(self):
        graph = build_multiapp_graph(2)
        assert all(
            name.startswith((app_prefix(0), app_prefix(1)))
            for name in graph.tasks
        )
        # Both instances contribute the same task count.
        a0 = [n for n in graph.tasks if n.startswith(app_prefix(0))]
        a1 = [n for n in graph.tasks if n.startswith(app_prefix(1))]
        assert len(a0) == len(a1) > 0

    def test_rejects_zero_apps(self):
        try:
            build_multiapp_graph(0)
        except ValueError:
            pass
        else:
            raise AssertionError("n_apps=0 must be rejected")


class TestCoschedule:
    def test_coschedule_passes_on_blackford(self):
        findings = check_flowgraph(build_coschedule_graph())
        assert _warnings_or_worse(findings) == []

    def test_background_task_active_in_every_scenario(self):
        graph = build_coschedule_graph()
        from repro.imaging.pipeline import SwitchState

        for sid in range(8):
            order = graph.execution_order(SwitchState.from_scenario_id(sid))
            assert BACKGROUND_TASK in order

    def test_starved_background_task_is_reported(self):
        # Rebuild the co-schedule graph but drop the INPUT feed of the
        # background task: it is active yet never fed.
        graph = build_coschedule_graph()
        edges = [e for e in graph.edges if e.dst != BACKGROUND_TASK]
        starved = FlowGraph(dict(graph.tasks), edges, graph.active_tasks)
        findings = check_scenarios(starved)
        starved_rules = {
            f.rule for f in findings if BACKGROUND_TASK in f.location
        }
        assert "graph/starved-task" in starved_rules


class TestEveryWorkload:
    """Satellite coverage: the checks hold per registered workload,
    with the scenario-id range derived from its switch count."""

    @pytest.mark.parametrize(
        "name", [w.name for w in all_workloads()]
    )
    def test_workload_passes_on_blackford(self, name):
        workload = get_workload(name)
        findings = check_flowgraph(
            workload.build_graph(),
            scenario_ids=scenario_ids_for(workload.switch_names),
        )
        assert _warnings_or_worse(findings) == [], [
            f.render() for f in findings
        ]

    def test_scenario_ids_follow_switch_count(self):
        assert scenario_ids_for(("a",)) == (0, 1)
        assert scenario_ids_for(("a", "b", "c")) == tuple(range(8))

    def test_platform_satisfies_the_protocol(self):
        # schedcheck's budget checks are typed against PlatformLike
        # rather than getattr duck-typing; the reference spec must
        # satisfy it.
        assert isinstance(blackford(), PlatformLike)


class TestHeterogeneousComposite:
    def test_hetero_pair_passes_on_blackford(self):
        graph = build_multiapp_graph(["stentboost", "ultrasound"])
        findings = check_flowgraph(graph)
        assert _warnings_or_worse(findings) == []
        assert graph.app_names == ("stentboost", "ultrasound")

    def test_joint_accessors_match_per_component(self):
        graph = build_multiapp_graph(["stentboost", "ultrasound"])
        states = [
            SwitchState.from_scenario_id(5),
            SwitchState.from_scenario_id(2),
        ]
        joint = graph.active_tasks_joint(states)
        expected = [
            app_prefix(0) + n
            for n in graph.components[0].active_tasks(states[0])
        ] + [
            app_prefix(1) + n
            for n in graph.components[1].active_tasks(states[1])
        ]
        assert joint == expected
        # With the same state broadcast to every app, the joint
        # bandwidth equals the plain FlowGraph aggregate.
        s = SwitchState.from_scenario_id(5)
        assert graph.total_bandwidth_mbps_joint([s, s]) == pytest.approx(
            graph.total_bandwidth_mbps(s)
        )

    def test_joint_accessor_arity_checked(self):
        graph = build_multiapp_graph(["stentboost", "ultrasound"])
        with pytest.raises(ValueError):
            graph.active_tasks_joint([SwitchState.from_scenario_id(0)])

    def test_resolve_apps_accepts_every_spelling(self):
        by_count = resolve_apps(2)
        assert [n for n, _ in by_count] == ["stentboost", "stentboost"]
        by_name = resolve_apps(["ultrasound"])
        assert by_name[0][0] == "ultrasound"
        by_factory = resolve_apps([build_stentboost_graph])
        assert isinstance(by_factory[0][1], FlowGraph)
        prebuilt = build_stentboost_graph()
        by_graph = resolve_apps([prebuilt])
        assert by_graph[0][1] is prebuilt

    def test_resolve_apps_rejects_junk(self):
        with pytest.raises(ValueError):
            resolve_apps([])
        with pytest.raises(KeyError):
            resolve_apps(["no-such-workload"])
        with pytest.raises(TypeError):
            resolve_apps([42])

    def test_composite_type_and_prefixes(self):
        graph = build_multiapp_graph(
            ["stentboost", "ultrasound", "robotvision"]
        )
        assert isinstance(graph, CompositeGraph)
        assert graph.n_apps == 3
        assert graph.prefixes == ("A0__", "A1__", "A2__")

    def test_coschedule_accepts_registry_names(self):
        graph = build_coschedule_graph("ultrasound")
        assert BACKGROUND_TASK in graph.tasks
        findings = check_flowgraph(graph)
        assert _warnings_or_worse(findings) == []


class TestOrderingStability:
    def test_findings_sort_is_deterministic(self):
        # Drop every INPUT feed: each app's first task starves in every
        # scenario, so both instances report.
        graph = build_multiapp_graph(2)
        edges = [e for e in graph.edges if e.src != FlowGraph.INPUT]
        starved = FlowGraph(dict(graph.tasks), edges, graph.active_tasks)
        findings = check_flowgraph(starved)
        assert len(findings) > 1
        a = sorted(findings, key=sort_key)
        b = sorted(reversed(findings), key=sort_key)
        assert [f.render() for f in a] == [f.render() for f in b]
