"""Registry behavior + per-workload smoke over the whole stack.

Every registered workload must survive the same pipeline StentBoost
does: synthetic corpus generation, serial and parallel profiling
(byte-identical traces, matching bandwidth ledgers), the straightforward engine run, and trace
provenance round-trips.  The two new applications additionally pin
their contrasting scenario dynamics (slow navigation drift vs abrupt
per-frame switching).
"""

from __future__ import annotations

import json
import math

import pytest

from repro.profiling import ProfileConfig, profile_corpus
from repro.profiling.traces import TraceSet
from repro.runtime import FrameEngine, StaticSerialPolicy
from repro.synthetic import CorpusSpec, XRaySequence
from repro.workloads import (
    DEFAULT_WORKLOAD,
    REGISTRY_VERSION,
    all_workloads,
    get_workload,
    workload_names,
)

SMOKE = CorpusSpec(n_sequences=2, total_frames=16, base_seed=21)

ALL_NAMES = ("stentboost", "robotvision", "ultrasound")


def smoke_sequences(name: str) -> list[XRaySequence]:
    return [XRaySequence(c) for c in get_workload(name).corpus_configs(SMOKE)]


class TestRegistry:
    def test_registered_names(self):
        assert workload_names() == list(ALL_NAMES)
        assert [wl.name for wl in all_workloads()] == list(ALL_NAMES)

    def test_default_workload_registered(self):
        assert get_workload(DEFAULT_WORKLOAD).name == DEFAULT_WORKLOAD

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("mri")

    def test_switch_names_are_triples(self):
        for wl in all_workloads():
            assert len(wl.switch_names) == 3

    def test_fleet_params_consistent(self):
        for wl in all_workloads():
            fp = wl.fleet
            assert len(fp.transition) == len(fp.state_base_ms)
            for row in fp.transition:
                assert len(row) == len(fp.state_base_ms)
                assert abs(sum(row) - 1.0) < 1e-9
            assert all(c > 0 for c in fp.cores_choices)
            assert 0.0 < fp.weight <= 1.0

    def test_graphs_have_eight_scenario_tables(self):
        from repro.graph.scenarios import scenario_table

        for wl in all_workloads():
            rows = scenario_table(wl.build_graph(), wl.switch_names)
            assert len(rows) == 8
            assert all(row["tasks"] for row in rows)


@pytest.mark.parametrize("name", ALL_NAMES)
class TestPerWorkloadSmoke:
    def test_profile_serial_parallel_byte_identity(self, name, tmp_path):
        config = ProfileConfig(workload=name)
        sequences = smoke_sequences(name)
        serial = profile_corpus(sequences, config, jobs=1)
        pooled = profile_corpus(sequences, config, jobs=2)
        p_serial = tmp_path / "serial.json"
        p_pooled = tmp_path / "pooled.json"
        serial.save(p_serial)
        pooled.save(p_pooled)
        assert p_serial.read_bytes() == p_pooled.read_bytes()
        # The ledger is never serialized, so compare it directly: a pool
        # worker that leaks simulator state across sequences shows up
        # here and nowhere in the saved traces.  Per-sequence partial
        # sums may move a link total by at most one ulp.
        s_ledger, p_ledger = serial.meta["ledger"], pooled.meta["ledger"]
        assert s_ledger.frames == p_ledger.frames == len(serial)
        assert s_ledger.links() == p_ledger.links()
        for link in s_ledger.links():
            a, b = s_ledger.total_bytes(link), p_ledger.total_bytes(link)
            assert abs(a - b) <= math.ulp(max(a, b)), link

    def test_trace_provenance_recorded(self, name):
        traces = profile_corpus(
            smoke_sequences(name), ProfileConfig(workload=name), jobs=1
        )
        assert traces.workload == name
        assert traces.registry_version == REGISTRY_VERSION
        assert len(traces) == SMOKE.total_frames

    def test_provenance_save_load_round_trip(self, name, tmp_path):
        traces = profile_corpus(
            smoke_sequences(name), ProfileConfig(workload=name), jobs=1
        )
        path = tmp_path / "traces.json"
        traces.save(path)
        loaded = TraceSet.load(path)
        # meta drops the (unserializable) live ledger on save; every
        # serialized field must survive.
        assert loaded.records == traces.records
        assert loaded.pixel_scale == traces.pixel_scale
        assert loaded.platform == traces.platform
        assert loaded.workload == name
        assert loaded.registry_version == REGISTRY_VERSION
        # The JSON fallback path (stale/missing sidecar) keeps it too.
        path.with_suffix(".npz").unlink()
        fallback = TraceSet.load(path)
        assert fallback.workload == name
        assert fallback.registry_version == REGISTRY_VERSION

    def test_engine_straightforward_run(self, name):
        wl = get_workload(name)
        seq = smoke_sequences(name)[0]
        config = ProfileConfig(workload=name)
        result = FrameEngine(config.make_simulator(), StaticSerialPolicy()).run(
            seq, wl.make_pipeline(seq, None), seq_key=f"smoke-{name}"
        )
        assert len(result.frames) == len(seq)
        assert all(f.latency_ms > 0 for f in result.frames)
        assert all(0 <= f.actual_scenario <= 7 for f in result.frames)


class TestLegacyProvenance:
    def test_fresh_trace_set_has_empty_provenance(self):
        assert TraceSet().workload == ""
        assert TraceSet().registry_version == ""

    def test_legacy_json_without_keys_loads_empty(self, tmp_path):
        traces = profile_corpus(
            smoke_sequences("stentboost"),
            ProfileConfig(workload="stentboost"),
            jobs=1,
        )
        path = tmp_path / "legacy.json"
        traces.save(path)
        payload = json.loads(path.read_text())
        del payload["workload"]
        del payload["registry_version"]
        path.write_text(json.dumps(payload, sort_keys=True))
        path.with_suffix(".npz").unlink()
        loaded = TraceSet.load(path)
        assert loaded.workload == ""
        assert loaded.registry_version == ""
        assert loaded.records == traces.records


class TestScenarioDynamics:
    """The two new applications contrast as designed: robotvision
    drifts slowly, ultrasound switches abruptly."""

    N_FRAMES = 64

    def _scenario_ids(self, name: str) -> list[int]:
        wl = get_workload(name)
        spec = CorpusSpec(n_sequences=1, total_frames=self.N_FRAMES, base_seed=33)
        seq = XRaySequence(wl.corpus_configs(spec)[0])
        pipe = wl.make_pipeline(seq, None)
        return [
            pipe.process(img).scenario_id for img, _truth in seq.iter_frames()
        ]

    @staticmethod
    def _changes(sids: list[int]) -> int:
        return sum(a != b for a, b in zip(sids, sids[1:]))

    def test_ultrasound_switches_abruptly(self):
        sids = self._scenario_ids("ultrasound")
        assert len(set(sids)) >= 3
        assert self._changes(sids) >= len(sids) // 4

    def test_robotvision_drifts_slowly(self):
        sids = self._scenario_ids("robotvision")
        assert len(set(sids)) >= 2

    def test_contrast_between_the_two(self):
        rv = self._changes(self._scenario_ids("robotvision"))
        us = self._changes(self._scenario_ids("ultrasound"))
        assert rv < us
