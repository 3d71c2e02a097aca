"""Regenerate the engine-parity golden data.

Usage::

    PYTHONPATH=src python tests/runtime/gen_engine_parity_golden.py

Writes ``tests/runtime/golden/engine_parity.json``: the RunResults of
the four reference runs (straightforward, managed, worst-case
reservation, managed + quality control) plus the multiapp/throughput
mapping transforms, all on the fig7 smoke sequence with a model
trained on the shared test corpus (``CorpusSpec(5, 220, 7)``).

The committed golden file was produced by the pre-refactor
implementations (the managed-run, baseline and driver loops *before*
the frame engine existed), so
``tests/runtime/test_engine_parity.py`` pins the refactored engine
bit-for-bit to the original behavior.  Only regenerate it when a
deliberate behavioral change is made (e.g. recalibration), and say so
in the commit message.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from repro.core import TripleC
from repro.experiments.common import make_pipeline
from repro.experiments.fig7 import fig7_sequence
from repro.hw.mapping import Mapping
from repro.profiling import ProfileConfig, profile_corpus
from repro.runtime import (
    FrameEngine,
    Partitioner,
    QualityController,
    StaticSerialPolicy,
    TripleCPolicy,
    WorstCaseReservationPolicy,
)
from repro.synthetic import CorpusSpec, generate_corpus

OUT = Path(__file__).parent / "golden" / "engine_parity.json"

#: Matches tests/conftest.py's session corpus so the parity test can
#: reuse the shared ``traces`` fixture.
CORPUS = CorpusSpec(n_sequences=5, total_frames=220, base_seed=7)
N_FRAMES = 48


def run_to_dict(result) -> dict:
    return {
        "label": result.label,
        "budget_ms": result.budget_ms,
        "frames": [asdict(f) for f in result.frames],
        "jitter": asdict(result.jitter()),
    }


def mapping_to_dict(mapping: Mapping) -> dict:
    return {
        "assignments": {
            t: list(cores) for t, cores in sorted(mapping.assignments.items())
        },
        "default_core": mapping.default_core,
    }


def multiapp_transform(parts: dict[str, int], k: int, half: int, core_base: int) -> Mapping:
    """The pre-refactor multiapp._app_frames mapping construction."""
    mapping = Mapping.serial()
    for task, n_parts in parts.items():
        if n_parts > 1:
            mapping = mapping.with_partition(task, tuple(range(min(n_parts, half))))
    local = mapping.rotated(k, half)
    return Mapping(
        assignments={
            t: tuple(c + core_base for c in cores)
            for t, cores in local.assignments.items()
        },
        default_core=local.default_core + core_base,
    )


def throughput_transform(parts: dict[str, int], k: int, n_cores: int) -> Mapping:
    """The pre-refactor throughput managed-rotated mapping construction."""
    mapping = Mapping.serial()
    for task, n_parts in parts.items():
        if n_parts > 1:
            mapping = mapping.with_partition(task, tuple(range(n_parts)))
    return mapping.rotated(k, n_cores)


def main() -> None:
    config = ProfileConfig()
    traces = profile_corpus(generate_corpus(CORPUS), config)
    seq = fig7_sequence(n_frames=N_FRAMES)

    sw = FrameEngine(config.make_simulator(), StaticSerialPolicy()).run(
        seq, make_pipeline(seq), seq_key="par-sw"
    )

    sim = config.make_simulator()
    mg = FrameEngine(sim, TripleCPolicy.for_simulator(TripleC.fit(traces), sim)).run(
        seq, make_pipeline(seq), seq_key="par-mg"
    )

    worst_budget = float(sw.latency().max()) * 1.05
    wc = FrameEngine(
        config.make_simulator(), WorstCaseReservationPolicy(worst_budget)
    ).run(seq, make_pipeline(seq), seq_key="par-wc")

    model_q = TripleC.fit(traces)
    sim_q = config.make_simulator()
    policy_q = TripleCPolicy.for_simulator(
        model_q,
        sim_q,
        partitioner=Partitioner(sim_q.platform, model_q.graph, max_parts=2),
        budget_ms=40.0,
        quality_controller=QualityController(),
    )
    quality = FrameEngine(sim_q, policy_q).run(seq, make_pipeline(seq), seq_key="par-q")

    n_cores = sim_q.platform.n_cores
    half = n_cores // 2
    transforms = {
        "multiapp": [
            mapping_to_dict(multiapp_transform(f.parts, k, half, core_base=half))
            for k, f in enumerate(mg.frames)
        ],
        "throughput": [
            mapping_to_dict(throughput_transform(f.parts, k, n_cores))
            for k, f in enumerate(mg.frames)
        ],
        "n_cores": n_cores,
        "half": half,
    }

    doc = {
        "corpus": {
            "n_sequences": CORPUS.n_sequences,
            "total_frames": CORPUS.total_frames,
            "base_seed": CORPUS.base_seed,
        },
        "n_frames": N_FRAMES,
        "worst_budget_ms": worst_budget,
        "runs": {
            "straightforward": run_to_dict(sw),
            "managed": run_to_dict(mg),
            "worst_case": run_to_dict(wc),
            "quality": run_to_dict(quality),
        },
        "transforms": transforms,
    }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(doc, indent=1))
    print(f"wrote {OUT} ({len(mg.frames)} managed frames)")


if __name__ == "__main__":
    main()
