"""Persistence of trained Triple-C models.

A deployed runtime manager should not re-profile 1,921 frames at
start-up: the trained model (quantizers, transition matrices, linear
fits, scenario table, training means) serializes to a single JSON
document and round-trips exactly.  Online state (EWMA values, last
residuals, current scenario) is deliberately *not* persisted -- it is
per-sequence state that ``start_sequence`` initializes.

Predictor documents are produced and consumed by the predictor
table (:data:`repro.core.computation.PREDICTORS`); this module owns
only the envelope.

Format: ``{format_version, graph, platform, rate_hz, predictors,
train_mean_ms, scenario_counts}`` at version 2, the only version the
loader accepts.  The ``graph`` and ``platform`` identifiers make a
model trained against one flow graph / hardware spec fail loudly when
loaded against another, instead of silently predicting garbage.
(Version 1, which lacked them, is no longer read.)
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.core.computation import (
    ComputationModel,
    predictor_from_dict,
    predictor_to_dict,
)
from repro.core.scenario import ScenarioTable
from repro.core.triplec import TripleC
from repro.hw.spec import blackford
from repro.workloads import get_workload

__all__ = ["save_model", "load_model", "FORMAT_VERSION"]

FORMAT_VERSION = 2


def _infer_workload(model: TripleC) -> str:
    """Registered workload whose flow graph matches the model's.

    Task-name sets are unique across registered workloads, so the
    match identifies the application the model was trained for.
    """
    from repro.workloads import all_workloads

    tasks = set(model.graph.tasks)
    for wl in all_workloads():
        if set(wl.build_graph().tasks) == tasks:
            return wl.name
    raise ValueError(
        "cannot infer the model's workload from its flow graph "
        "(no registered workload has this task set); pass "
        "save_model(..., workload=<registered name>)"
    )


def save_model(
    model: TripleC, path: str | Path, workload: str | None = None
) -> None:
    """Serialize a trained model to JSON.

    Only the trained parameters travel; graph and platform are
    reconstructed at load time by resolving ``workload`` through the
    registry (they are code, not data), and the name is recorded so a
    mismatched load is rejected.  When ``workload`` is omitted it is
    inferred by matching the model's graph against the registry.
    """
    if workload is None:
        workload = _infer_workload(model)
    doc = {
        "format_version": FORMAT_VERSION,
        "graph": workload,
        "platform": model.cache.platform.name,
        "rate_hz": model.rate_hz,
        "predictors": {
            t: predictor_to_dict(p)
            for t, p in model.computation.predictors.items()
        },
        "train_mean_ms": model.computation.train_mean_ms,
        "scenario_counts": model.scenarios.counts.tolist(),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True))


def load_model(path: str | Path) -> TripleC:
    """Inverse of :func:`save_model` (fresh online state).

    Raises
    ------
    ValueError
        If the document's format version is unsupported, its ``graph``
        identifier names no registered workload, or its
        ``platform`` identifier does not match the builder this
        loader reconstructs.
    """
    doc = json.loads(Path(path).read_text())
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format {version!r} "
            f"(supported: {FORMAT_VERSION})"
        )
    platform = blackford()
    doc_graph = str(doc["graph"])
    try:
        graph = get_workload(doc_graph).build_graph()
    except KeyError:
        raise ValueError(
            f"model was trained for flow graph {doc_graph!r}, which "
            "names no registered workload"
        ) from None
    doc_platform = doc["platform"]
    if doc_platform != platform.name:
        raise ValueError(
            f"model was trained for platform {doc_platform!r}; "
            f"this build provides {platform.name!r}"
        )
    comp = ComputationModel(
        predictors={
            t: predictor_from_dict(d) for t, d in doc["predictors"].items()
        },
        train_mean_ms={t: float(v) for t, v in doc["train_mean_ms"].items()},
    )
    table = ScenarioTable(np.asarray(doc["scenario_counts"], dtype=np.float64))
    from repro.core.bandwidth import BandwidthModel
    from repro.core.cachemodel import CacheMemoryModel

    return TripleC(
        computation=comp,
        scenarios=table,
        cache=CacheMemoryModel(graph, platform),
        bandwidth=BandwidthModel(graph, platform),
        graph=graph,
        rate_hz=float(doc["rate_hz"]),
    )
