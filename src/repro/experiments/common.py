"""Shared experiment state: corpus, traces, trained model, caching.

The paper's training setup is 37 sequences / 1,921 frames; profiling
that corpus takes ~40 s on a laptop, so the resulting traces are
cached on disk under ``.cache/``.  The cache is *sharded per
sequence*: each shard is keyed by (calibration version, sequence
index, the sequence's full config, the profiling configuration
including pipeline tunables), so changing the corpus only re-profiles
the sequences whose shard keys changed, and missing shards are
profiled in parallel (``REPRO_JOBS`` / ``jobs=``).  Shards are the
only cache layout: a fresh checkout profiles its corpus once.

Set ``REPRO_FAST=1`` to use a small corpus for smoke runs;
``REPRO_CACHE_DIR`` moves the cache.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

from repro.core.triplec import TripleC
from repro.graph.flowgraph import FlowGraph
from repro.hw.bus import BandwidthLedger
from repro.hw.spec import PlatformSpec
from repro.imaging.pipeline import AnalysisPipeline
from repro.profiling import (
    ProfileConfig,
    TraceSet,
    merge_shards,
    profile_shards,
)
from repro.synthetic import CorpusSpec
from repro.synthetic.sequence import SequenceConfig, XRaySequence
from repro.workloads import DEFAULT_WORKLOAD, get_workload

__all__ = ["ExperimentContext", "default_context", "make_pipeline"]

#: Bump when cost-model calibration or pipeline behaviour changes, so
#: stale cached traces are never reused.  (v4: a v3 shard may hold
#: another workload's records.  v5: a v4 shard's sidecar has the v1
#: layout, one compressed member per task, which the loader no longer
#: reads -- each v4 shard would load through the slow JSON fallback
#: forever instead of re-profiling once.  v6: likewise, a v5 shard's
#: sidecar is a ``repro-traces-npz/2`` zip, which the loader no longer
#: reads now that the sidecar is raw bytes.)
CALIBRATION_VERSION = "v6"

_DEFAULT_CACHE = Path(__file__).resolve().parents[3] / ".cache"


def _cache_dir() -> Path:
    """The cache root (not created here: only a shard write makes it)."""
    root = os.environ.get("REPRO_CACHE_DIR", "")
    return Path(root) if root else _DEFAULT_CACHE


def make_pipeline(
    sequence: XRaySequence, workload: str = DEFAULT_WORKLOAD
) -> AnalysisPipeline:
    """Default-tunables pipeline of a workload for one sequence.

    Delegates to the registry entry's pipeline factory, which may
    read per-sequence priors (StentBoost derives its
    ``expected_distance`` from the phantom's marker separation).
    """
    return get_workload(workload).make_pipeline(sequence, None)


def _plain(value: object) -> object:
    """A dataclass as nested dicts of its fields (leaves as they are)."""
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    return value


def _sequence_blob(config: SequenceConfig) -> str:
    """Stable serialization of a sequence config (nested dataclasses).

    Equal to ``json.dumps(asdict(config), sort_keys=True)`` without
    ``asdict``'s deep copy of every nested spec.
    """
    return json.dumps(_plain(config), sort_keys=True)


@dataclass
class ExperimentContext:
    """Everything the experiment modules share.

    Attributes
    ----------
    corpus_spec:
        The training corpus parameters.
    profile_config:
        Platform + cost-model + pipeline configuration.
    jobs:
        Worker count for profiling fan-out (``None`` -> ``REPRO_JOBS``
        -> ``os.cpu_count()``; see :func:`repro.parallel.resolve_jobs`).
    traces:
        Profiled training traces (lazily computed, shard-cached on
        disk per sequence).
    model:
        Triple-C trained on ``traces`` (lazily computed).
    """

    corpus_spec: CorpusSpec = field(default_factory=CorpusSpec)
    profile_config: ProfileConfig = field(default_factory=ProfileConfig)
    jobs: int | None = None
    _traces: TraceSet | None = field(default=None, repr=False)
    _model: TripleC | None = field(default=None, repr=False)
    _graph: FlowGraph | None = field(default=None, repr=False)

    @property
    def platform(self) -> PlatformSpec:
        return self.profile_config.platform

    @property
    def workload(self) -> str:
        """Registry name of the application this context studies."""
        return self.profile_config.workload

    @property
    def graph(self) -> FlowGraph:
        """The workload's flow graph (built once, memoized)."""
        if self._graph is None:
            self._graph = get_workload(self.workload).build_graph()
        return self._graph

    # -- cache keys -----------------------------------------------------------

    def _profile_fingerprint(self) -> str:
        """Everything in the profiling config that shapes a trace.

        Includes the pipeline tunables: a tuned run (e.g. an
        ``expected_distance`` override or a different candidate cap)
        may never reuse traces profiled under other tunables.
        """
        pipe = self.profile_config.pipeline
        return (
            f"{CALIBRATION_VERSION}|{self.workload}|"
            f"{self.profile_config.pixel_scale}|"
            f"{self.profile_config.seed}|{self.platform.name}|"
            f"{pipe.expected_distance}|{pipe.max_candidates}|"
            f"{pipe.enhancer_decay}|{pipe.roi_margin_factor}|"
            f"{pipe.reset_after_lost}"
        )

    def _shard_key(
        self, seq_id: int, config: SequenceConfig, fingerprint: str | None = None
    ) -> str:
        """Per-sequence shard key.

        The sequence index participates because execution jitter is
        keyed by ``(seq_id, frame)``: the same sequence config
        profiled at a different corpus position yields different
        times, so a shard is only reusable at its own index.
        ``fingerprint`` is :meth:`_profile_fingerprint`, passed in by
        callers that key a whole corpus.
        """
        if fingerprint is None:
            fingerprint = self._profile_fingerprint()
        blob = f"{fingerprint}|{seq_id}|{_sequence_blob(config)}"
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    # -- the sharded trace cache ----------------------------------------------

    def _shard_paths(
        self, configs: list[SequenceConfig]
    ) -> list[Path]:
        shard_dir = _cache_dir() / "trace-shards"
        fingerprint = self._profile_fingerprint()
        return [
            shard_dir / f"shard-{self._shard_key(i, cfg, fingerprint)}.json"
            for i, cfg in enumerate(configs)
        ]

    def _load_or_profile_traces(self) -> TraceSet:
        configs = get_workload(self.workload).corpus_configs(self.corpus_spec)
        paths = self._shard_paths(configs)
        missing = [i for i, p in enumerate(paths) if not p.exists()]
        fresh: dict[int, TraceSet] = {}
        if missing:
            paths[0].parent.mkdir(parents=True, exist_ok=True)
            computed = profile_shards(
                [(i, configs[i]) for i in missing],
                self.profile_config,
                jobs=self.jobs,
            )
            for i, shard in zip(missing, computed):
                fresh[i] = shard
                ledger = shard.meta.get("ledger")
                if isinstance(ledger, BandwidthLedger):
                    shard.meta["ledger_state"] = ledger.state_dict()
                shard.save(paths[i])

        shards: list[TraceSet] = []
        for i, path in enumerate(paths):
            shard = fresh.get(i)
            if shard is None:
                shard = TraceSet.load(path)
                state = shard.meta.get("ledger_state")
                if isinstance(state, dict):
                    shard.meta["ledger"] = BandwidthLedger.from_state(state)
            shards.append(shard)
        return merge_shards(shards, self.profile_config)

    @property
    def traces(self) -> TraceSet:
        """Training traces (profiled once, shard-cached on disk)."""
        if self._traces is None:
            self._traces = self._load_or_profile_traces()
        return self._traces

    @property
    def model(self) -> TripleC:
        """Triple-C trained on the training traces."""
        if self._model is None:
            self._model = TripleC.fit(
                self.traces,
                graph=self.graph,
                platform=self.platform,
            )
        return self._model

    def fresh_model(self, **fit_kwargs) -> TripleC:
        """An independently fitted model (for ablations)."""
        return TripleC.fit(
            self.traces, graph=self.graph, platform=self.platform, **fit_kwargs
        )


def default_context() -> ExperimentContext:
    """The standard experiment context.

    Paper-scale corpus (37 sequences / 1,921 frames) unless
    ``REPRO_FAST=1``, which shrinks it to 8 / 400 for smoke runs.
    ``REPRO_WORKLOAD`` selects the application (default
    ``stentboost``).
    """
    if os.environ.get("REPRO_FAST", "") == "1":
        spec = CorpusSpec(n_sequences=8, total_frames=400)
    else:
        spec = CorpusSpec()
    workload = os.environ.get("REPRO_WORKLOAD", DEFAULT_WORKLOAD)
    return ExperimentContext(
        corpus_spec=spec,
        profile_config=ProfileConfig(workload=workload),
    )
