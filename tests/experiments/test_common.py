"""Tests for the experiment context and its sharded disk cache."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict
from unittest import mock

from repro.experiments.common import (
    ExperimentContext,
    _sequence_blob,
    default_context,
)
from repro.imaging.pipeline import PipelineConfig
from repro.profiling import ProfileConfig, TraceSet, profile_corpus
from repro.synthetic import CorpusSpec, generate_corpus
from repro.workloads import get_workload, workload_names


class TestExperimentContext:
    def test_traces_cached_on_disk(self, tmp_path):
        spec = CorpusSpec(n_sequences=2, total_frames=20, base_seed=99)
        with mock.patch.dict(os.environ, {"REPRO_CACHE_DIR": str(tmp_path)}):
            ctx = ExperimentContext(corpus_spec=spec)
            traces1 = ctx.traces
            shards = list((tmp_path / "trace-shards").glob("shard-*.json"))
            assert len(shards) == spec.n_sequences
            # A fresh context loads from the shard files.
            ctx2 = ExperimentContext(corpus_spec=spec)
            traces2 = ctx2.traces
            assert len(traces2) == len(traces1)
            assert traces2.records[0] == traces1.records[0]
            # The corpus ledger survives the cache round trip.
            assert traces2.meta["ledger"].frames == len(traces2)

    def test_delta_reprofiling_recomputes_only_missing_shard(self, tmp_path):
        spec = CorpusSpec(n_sequences=3, total_frames=30, base_seed=99)
        with mock.patch.dict(os.environ, {"REPRO_CACHE_DIR": str(tmp_path)}):
            full = ExperimentContext(corpus_spec=spec).traces
            shard_dir = tmp_path / "trace-shards"
            shards = sorted(shard_dir.glob("shard-*.json"))
            assert len(shards) == 3
            victim = shards[1]
            kept_mtimes = {
                p: p.stat().st_mtime_ns for p in shards if p != victim
            }
            victim.unlink()
            rebuilt = ExperimentContext(corpus_spec=spec).traces
            assert victim.exists()
            for p, mtime in kept_mtimes.items():
                assert p.stat().st_mtime_ns == mtime  # untouched
            assert [r for r in rebuilt.records] == [r for r in full.records]

    def test_pre_shard_monolith_never_feeds_another_workload(self, tmp_path):
        # Plant a StentBoost trace set under the file name the removed
        # monolithic cache used.  That name hashed the corpus and
        # profiling parameters but not the workload, so it matched
        # every workload's context.
        spec = CorpusSpec(n_sequences=2, total_frames=20, base_seed=99)
        config = ProfileConfig(workload="robotvision")
        stentboost = profile_corpus(generate_corpus(spec), ProfileConfig())
        blob = (
            f"v3|{spec.n_sequences}|{spec.total_frames}|{spec.width}|"
            f"{spec.height}|{spec.base_seed}|{config.pixel_scale}|"
            f"{config.seed}|{config.platform.name}"
        )
        name = hashlib.sha256(blob.encode()).hexdigest()[:16]
        stentboost.save(tmp_path / f"traces-{name}.json")
        with mock.patch.dict(os.environ, {"REPRO_CACHE_DIR": str(tmp_path)}):
            ctx = ExperimentContext(corpus_spec=spec, profile_config=config)
            traces = ctx.traces
        robotvision_tasks = set(get_workload("robotvision").build_graph().tasks)
        assert traces.tasks()
        assert set(traces.tasks()) <= robotvision_tasks

    def test_cache_key_sensitive_to_spec(self):
        """The shard key tells two corpora's sequences apart."""
        from repro.synthetic import corpus_configs

        specs = [
            CorpusSpec(n_sequences=2, total_frames=20, base_seed=seed)
            for seed in (1, 2)
        ]
        a, b = (ExperimentContext(corpus_spec=spec) for spec in specs)
        cfg_a, cfg_b = (corpus_configs(spec)[0] for spec in specs)
        assert a._shard_key(0, cfg_a) != b._shard_key(0, cfg_b)

    def test_cache_key_sensitive_to_pipeline_tunables(self):
        spec = CorpusSpec(n_sequences=2, total_frames=20, base_seed=1)
        a = ExperimentContext(corpus_spec=spec)
        b = ExperimentContext(
            corpus_spec=spec,
            profile_config=ProfileConfig(
                pipeline=PipelineConfig(max_candidates=8)
            ),
        )
        from repro.synthetic import corpus_configs

        cfg = corpus_configs(spec)[0]
        assert a._shard_key(0, cfg) != b._shard_key(0, cfg)

    def test_shard_key_sensitive_to_sequence_index(self, tiny_context):
        from repro.synthetic import corpus_configs

        cfgs = corpus_configs(tiny_context.corpus_spec)
        assert tiny_context._shard_key(0, cfgs[0]) != tiny_context._shard_key(
            1, cfgs[0]
        )

    def test_sequence_blob_matches_asdict(self):
        """The field walk serializes every corpus config as ``asdict`` does."""
        for name in workload_names():
            configs = get_workload(name).corpus_configs(CorpusSpec())
            assert configs
            for cfg in configs:
                assert _sequence_blob(cfg) == json.dumps(asdict(cfg), sort_keys=True)

    def test_graph_memoized(self, tiny_context):
        assert tiny_context.graph is tiny_context.graph

    def test_model_memoized(self, tiny_context):
        assert tiny_context.model is tiny_context.model

    def test_fresh_model_independent(self, tiny_context):
        m1 = tiny_context.fresh_model()
        m2 = tiny_context.fresh_model()
        assert m1 is not m2
        m1.observe(3, {"REG": 2.0}, 100.0)
        assert m2._current_scenario is None

    def test_traces_type(self, tiny_context):
        assert isinstance(tiny_context.traces, TraceSet)


class TestDefaultContext:
    def test_fast_mode(self):
        with mock.patch.dict(os.environ, {"REPRO_FAST": "1"}):
            ctx = default_context()
            assert ctx.corpus_spec.n_sequences == 8

    def test_paper_mode(self):
        with mock.patch.dict(os.environ, {}, clear=False):
            os.environ.pop("REPRO_FAST", None)
            ctx = default_context()
            assert ctx.corpus_spec.n_sequences == 37
            assert ctx.corpus_spec.total_frames == 1921
