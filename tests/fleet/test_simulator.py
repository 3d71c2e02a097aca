"""End-to-end simulator tests: determinism, shedding, policy wins."""

from __future__ import annotations

import json
import random

import pytest

from repro.fleet.estimates import make_estimator
from repro.fleet.jobs import JobRecord, synthetic_burst_trace
from repro.fleet.nodes import Fleet, FleetNode, default_fleet
from repro.fleet.policies import BackfillScheduler, FcfsScheduler
from repro.fleet.simulator import FleetSimulator
from repro.runtime.qos import QosTier


def run_policy(trace, policy: str, fleet=None, tiers=None):
    scheduler = FcfsScheduler() if policy == "fcfs" else BackfillScheduler()
    estimator_kind = {
        "fcfs": "worst-case",
        "easy": "worst-case",
        "predictive": "triplec",
        "oracle": "oracle",
    }[policy]
    sim = FleetSimulator(
        fleet if fleet is not None else default_fleet(),
        scheduler,
        make_estimator(estimator_kind, trace),
        tiers=tiers,
    )
    return sim.run(trace)


@pytest.fixture(scope="module")
def smoke_trace():
    return synthetic_burst_trace(n_jobs=400, seed=7)


class TestDeterminism:
    def test_same_seed_same_summary_bytes(self, smoke_trace):
        a = run_policy(smoke_trace, "predictive").slo_summary()
        b = run_policy(
            synthetic_burst_trace(n_jobs=400, seed=7), "predictive"
        ).slo_summary()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_different_seed_different_trace(self):
        a = synthetic_burst_trace(n_jobs=50, seed=1)
        b = synthetic_burst_trace(n_jobs=50, seed=2)
        assert [j.runtime_ms for j in a] != [j.runtime_ms for j in b]

    def test_trace_order_does_not_matter(self):
        """The simulator replays arrivals in (submit, job id) order, so
        the Triple-C warmup prefix must be taken in that order too: a
        shuffled trace is the same workload."""
        trace = synthetic_burst_trace(n_jobs=500, seed=3)
        shuffled = list(trace)
        random.Random(0).shuffle(shuffled)
        a = run_policy(trace, "predictive").slo_summary()
        b = run_policy(shuffled, "predictive").slo_summary()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_all_jobs_accounted(self, smoke_trace):
        result = run_policy(smoke_trace, "easy")
        assert len(result.outcomes) == len(smoke_trace)
        assert len(result.completed) + len(result.shed) == len(smoke_trace)


class TestConservation:
    def test_no_core_oversubscription(self, smoke_trace):
        """After a full drain every node is back to fully free."""
        fleet = default_fleet()
        run_policy(smoke_trace, "predictive", fleet=fleet)
        for node in fleet.nodes:
            assert node.free_cores == node.n_cores

    def test_wait_times_non_negative(self, smoke_trace):
        result = run_policy(smoke_trace, "easy")
        assert all(o.wait_ms >= 0.0 for o in result.completed)

    def test_utilization_in_unit_range(self, smoke_trace):
        result = run_policy(smoke_trace, "fcfs")
        assert 0.0 < result.utilization() <= 1.0


class TestSheddingUnderBurst:
    def tight_tiers(self):
        return {
            "gold": QosTier(
                name="gold",
                priority=2,
                wait_budget_ms=500.0,
                max_pending=10_000,
                miss_budget=0.5,
                sheddable=False,
            ),
            "silver": QosTier(
                name="silver",
                priority=1,
                wait_budget_ms=500.0,
                max_pending=16,
                miss_budget=0.5,
                shed_wait_factor=2.0,
            ),
            "bronze": QosTier(
                name="bronze",
                priority=0,
                wait_budget_ms=250.0,
                max_pending=8,
                miss_budget=0.5,
                shed_wait_factor=1.0,
            ),
        }

    def test_burst_sheds_low_tiers_never_gold(self):
        # Small fleet + tight tiers: the synthetic bursts overwhelm it.
        fleet = Fleet(
            [
                FleetNode(name="n0", n_cores=16, speed=1.0),
                FleetNode(name="n1", n_cores=4, speed=1.0),
            ]
        )
        trace = synthetic_burst_trace(n_jobs=400, seed=7)
        result = run_policy(trace, "easy", fleet=fleet, tiers=self.tight_tiers())
        shed_tiers = {o.tier for o in result.shed if o.tier != "gold"} | {
            o.tier for o in result.shed
        }
        assert len(result.shed) > 0
        assert "gold" not in {o.tier for o in result.shed if o.node == ""}
        assert shed_tiers <= {"silver", "bronze"}
        # Bronze (smallest depth cap, factor 1.0) sheds at a higher
        # rate than silver.
        by_tier = {"silver": [0, 0], "bronze": [0, 0]}
        for o in result.outcomes:
            if o.tier in by_tier:
                by_tier[o.tier][0] += o.state == "shed"
                by_tier[o.tier][1] += 1
        bronze_rate = by_tier["bronze"][0] / by_tier["bronze"][1]
        silver_rate = by_tier["silver"][0] / by_tier["silver"][1]
        assert bronze_rate > silver_rate

    def test_graceful_degradation_keeps_gold_wait_bounded(self):
        fleet = Fleet([FleetNode(name="n0", n_cores=16, speed=1.0)])
        trace = synthetic_burst_trace(n_jobs=300, seed=7)
        result = run_policy(trace, "easy", fleet=fleet, tiers=self.tight_tiers())
        report = result.tier_report
        # With silver/bronze shed at the door, gold's wait violations
        # stay a small fraction despite the overload.
        assert report["gold"]["admitted"] > 0
        assert report["gold"]["shed"] == 0
        assert report["silver"]["shed"] + report["bronze"]["shed"] > 0


class TestPolicyComparison:
    def test_predictive_beats_fcfs_on_tail_wait(self):
        """The acceptance property, at test scale: prediction-aware
        backfill completes at least as much work with a lower p99
        queue wait than strict FCFS."""
        trace = synthetic_burst_trace(n_jobs=1000, seed=7)
        fcfs = run_policy(trace, "fcfs").slo_summary()
        predictive = run_policy(trace, "predictive").slo_summary()
        assert predictive["wait_ms"]["p99"] < fcfs["wait_ms"]["p99"]
        assert predictive["utilization"] >= fcfs["utilization"] - 1e-6
        assert predictive["jobs"]["completed"] >= fcfs["jobs"]["completed"]

    def test_oracle_at_least_as_good_as_worst_case_backfill(self):
        trace = synthetic_burst_trace(n_jobs=600, seed=7)
        easy = run_policy(trace, "easy").slo_summary()
        oracle = run_policy(trace, "oracle").slo_summary()
        assert oracle["wait_ms"]["p99"] <= easy["wait_ms"]["p99"] * 1.05


class TestStallGuards:
    def test_infeasible_job_shed_not_stalled(self):
        fleet = Fleet([FleetNode(name="tiny", n_cores=2, speed=1.0)])
        trace = [
            JobRecord(
                job_id="giant",
                tenant="t",
                tier="gold",
                app="a",
                submit_ms=0.0,
                cores=64,
                runtime_ms=100.0,
                limit_ms=100.0,
                deadline_ms=1e9,
                priority=2,
            ),
            JobRecord(
                job_id="ok",
                tenant="t",
                tier="gold",
                app="a",
                submit_ms=1.0,
                cores=1,
                runtime_ms=50.0,
                limit_ms=50.0,
                deadline_ms=1e9,
                priority=2,
            ),
        ]
        result = run_policy(trace, "easy", fleet=fleet)
        states = {o.job_id: o.state for o in result.outcomes}
        assert states == {"giant": "shed", "ok": "done"}

    def test_empty_trace_raises(self):
        with pytest.raises(ValueError, match="empty trace"):
            run_policy([], "easy", fleet=default_fleet())
