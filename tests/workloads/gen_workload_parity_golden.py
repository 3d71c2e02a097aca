"""Regenerate the workload-registry parity golden data.

Usage::

    PYTHONPATH=src python tests/workloads/gen_workload_parity_golden.py

Writes ``tests/workloads/golden/workload_parity.json``: the exact
artifacts the pre-registry code produced for the StentBoost
application -- corpus-config fingerprint, a fully profiled smoke
``TraceSet`` payload, the scenario table, and straightforward engine
latencies -- so ``tests/workloads/test_workload_parity.py`` can pin
that resolving ``stentboost`` through ``repro.workloads`` is
bit-identical to the old direct ``build_stentboost_graph`` /
``StentBoostPipeline`` path.

The committed golden file was produced by the *pre-refactor* seed
implementation (direct imports, no registry).  Only regenerate it when
a deliberate behavioral change is made, and say so in the commit
message.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

from repro.experiments.common import make_pipeline
from repro.graph.scenarios import scenario_table
from repro.graph.stentboost import build_stentboost_graph
from repro.profiling import ProfileConfig, profile_corpus
from repro.runtime import FrameEngine, StaticSerialPolicy
from repro.synthetic import CorpusSpec, corpus_configs, generate_corpus

OUT = Path(__file__).parent / "golden" / "workload_parity.json"

#: Tiny dedicated corpus -- small enough to profile in seconds, big
#: enough to exercise scenario switching.
CORPUS = CorpusSpec(n_sequences=2, total_frames=40, base_seed=11)
N_FRAMES = 24


def corpus_fingerprint(spec: CorpusSpec) -> str:
    blob = json.dumps(
        [asdict(cfg) for cfg in corpus_configs(spec)], sort_keys=True
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def main() -> None:
    config = ProfileConfig()
    traces = profile_corpus(generate_corpus(CORPUS), config, jobs=1)
    payload = {
        "pixel_scale": traces.pixel_scale,
        "platform": traces.platform,
        "records": [asdict(r) for r in traces.records],
    }

    rows = [
        {
            "id": row["id"],
            "name": row["name"],
            "tasks": list(row["tasks"]),
            "bandwidth_mbps": row["bandwidth_mbps"],
        }
        for row in scenario_table(build_stentboost_graph())
    ]

    seq = generate_corpus(CorpusSpec(1, N_FRAMES, base_seed=13))[0]
    sw = FrameEngine(config.make_simulator(), StaticSerialPolicy()).run(
        seq, make_pipeline(seq), seq_key="wl-par"
    )

    doc = {
        "corpus": {
            "n_sequences": CORPUS.n_sequences,
            "total_frames": CORPUS.total_frames,
            "base_seed": CORPUS.base_seed,
        },
        "corpus_fingerprint": corpus_fingerprint(CORPUS),
        "traces": payload,
        "scenario_table": rows,
        "engine": {
            "n_frames": N_FRAMES,
            "latency_ms": [f.latency_ms for f in sw.frames],
            "scenario_ids": [f.actual_scenario for f in sw.frames],
        },
    }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(doc, indent=1, sort_keys=True))
    print(f"wrote {OUT} ({len(traces.records)} trace records)")


if __name__ == "__main__":
    main()
