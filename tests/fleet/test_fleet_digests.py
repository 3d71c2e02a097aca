"""Pinned fleet outcomes: every policy's placements, byte for byte.

The sha256 of each run's SLO summary plus its per-job outcomes on the
2,000-job burst trace.  The digests were recorded from the
whole-fleet-scan schedulers (``tests/fleet/reference_policies.py``),
so any scheduling or simulator change that moves a single start time
or node choice fails here.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.fleet.cli import POLICIES
from repro.fleet.estimates import make_estimator
from repro.fleet.jobs import JobRecord, synthetic_burst_trace
from repro.fleet.nodes import default_fleet
from repro.fleet.simulator import FleetSimulator

#: (seed, policy) -> sha256 of the run, on ``synthetic_burst_trace(2000, seed)``.
DIGESTS: dict[tuple[int, str], str] = {
    (7, "fcfs"): "dafc4095fc73a42d561e48789351e67368f2560fb86f72f1ef40a43a40fa425b",
    (7, "easy"): "8746635689b91e99fec9561d1b545e00b5c3e86ccb2c26bfabd98665b0c41f64",
    (7, "predictive"): "62251f25fb6a4445481c12caa76118593a201d4af298e4224fa1066446a6711e",
    (7, "oracle"): "da7dd63e58d648e1416cc2f91a6b0654c12c43d8036a63f387c9ad057edfc14c",
    (1, "fcfs"): "c7cac59b6578344a5d5e9de122154989152dbc321917353576c2c50d956cde5d",
    (1, "easy"): "43757bd884046ef91400c22456c02c86fb000ee0205ee9c54c1c9776b05a0816",
    (1, "predictive"): "984360b3ca4ef26f23b8dfdf9e144939a7b7a2c9fb5f0f3796b7c93070577e24",
    (1, "oracle"): "c47e932c2a1369f24b6171dbcc5a193ff9c8397e7b64476a775ce680a05e5292",
}


@pytest.fixture(scope="module")
def burst_traces() -> dict[int, list[JobRecord]]:
    return {seed: synthetic_burst_trace(n_jobs=2000, seed=seed) for seed in (7, 1)}


def run_digest(trace: list[JobRecord], policy: str) -> str:
    """sha256 over the run's SLO summary and every job outcome."""
    scheduler_cls, estimator_kind = POLICIES[policy]
    result = FleetSimulator(
        default_fleet(), scheduler_cls(), make_estimator(estimator_kind, trace)
    ).run(trace)
    doc = {
        "summary": result.slo_summary(),
        "outcomes": [asdict(o) for o in result.outcomes],
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "seed,policy", sorted(DIGESTS), ids=[f"seed{s}-{p}" for s, p in sorted(DIGESTS)]
)
def test_burst_digest_pinned(
    burst_traces: dict[int, list[JobRecord]], seed: int, policy: str
) -> None:
    assert run_digest(burst_traces[seed], policy) == DIGESTS[(seed, policy)]
