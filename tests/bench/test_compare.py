"""Tests for the bench regression gate (``python -m repro.bench.compare``)."""

from __future__ import annotations

import json

import pytest

from repro.bench.compare import compare_docs, main
from repro.bench.harness import SCHEMA


def doc(corpus=None, **results):
    base = {
        "parallel_speedup": 2.0,
        "predict_batch_speedup": 10.0,
        "byte_identical": True,
        "profile_serial_s": 1.5,
    }
    base.update(results)
    out = {"schema": SCHEMA, "results": base}
    out["corpus"] = (
        corpus
        if corpus is not None
        else {"n_sequences": 2, "total_frames": 60, "smoke": True}
    )
    return out


class TestCompareDocs:
    def test_identical_docs_pass(self):
        failures, notes = compare_docs(doc(), doc(), tolerance=0.5)
        assert failures == []
        assert any("parallel_speedup: ok" in n for n in notes)

    def test_ratio_below_floor_fails(self):
        failures, _ = compare_docs(
            doc(), doc(parallel_speedup=0.9), tolerance=0.5
        )
        assert len(failures) == 1
        assert "parallel_speedup" in failures[0]

    def test_ratio_at_floor_passes(self):
        failures, _ = compare_docs(
            doc(), doc(parallel_speedup=1.0), tolerance=0.5
        )
        assert failures == []

    def test_tighter_tolerance_catches_smaller_drop(self):
        cur = doc(parallel_speedup=1.7)
        assert compare_docs(doc(), cur, tolerance=0.5)[0] == []
        assert compare_docs(doc(), cur, tolerance=0.9)[0] != []

    def test_ratio_improvement_passes(self):
        failures, _ = compare_docs(
            doc(), doc(predict_batch_speedup=50.0), tolerance=0.5
        )
        assert failures == []

    def test_byte_identity_regression_always_fails(self):
        failures, _ = compare_docs(
            doc(), doc(byte_identical=False), tolerance=0.5
        )
        assert any("byte_identical" in f for f in failures)

    def test_byte_identity_false_baseline_tolerated(self):
        failures, _ = compare_docs(
            doc(byte_identical=False), doc(byte_identical=False), tolerance=0.5
        )
        assert failures == []

    def test_metric_missing_from_baseline_skipped(self):
        base = doc()
        del base["results"]["predict_batch_speedup"]
        failures, notes = compare_docs(base, doc(), tolerance=0.5)
        assert failures == []
        assert any("not in baseline" in n for n in notes)

    def test_metric_missing_from_current_fails(self):
        cur = doc()
        del cur["results"]["parallel_speedup"]
        failures, _ = compare_docs(doc(), cur, tolerance=0.5)
        assert any("missing from current" in f for f in failures)

    def test_absolute_timings_never_gate(self):
        failures, notes = compare_docs(
            doc(), doc(profile_serial_s=999.0), tolerance=0.5
        )
        assert failures == []
        assert any("profile_serial_s: informational" in n for n in notes)

    @pytest.mark.parametrize("tolerance", [0.0, -0.5, 1.5])
    def test_tolerance_out_of_range_rejected(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            compare_docs(doc(), doc(), tolerance)

    def test_corpus_mismatch_fails_and_skips_ratios(self):
        full = doc(corpus={"n_sequences": 8, "total_frames": 400, "smoke": False})
        # The ratio would regress too, but the corpus mismatch is the
        # reported failure -- incomparable numbers are never judged.
        failures, notes = compare_docs(
            full, doc(parallel_speedup=0.1), tolerance=0.5
        )
        assert len(failures) == 1
        assert "not comparable" in failures[0]
        assert any("parallel_speedup: skipped (corpus mismatch)" in n for n in notes)

    def test_corpus_mismatch_still_gates_booleans(self):
        full = doc(corpus={"n_sequences": 8, "total_frames": 400, "smoke": False})
        failures, _ = compare_docs(full, doc(byte_identical=False), tolerance=0.5)
        assert any("byte_identical" in f for f in failures)

    def test_missing_corpus_sections_assumed_comparable(self):
        base, cur = doc(), doc()
        del base["corpus"]
        failures, notes = compare_docs(base, cur, tolerance=0.5)
        assert failures == []
        assert any("assumed comparable" in n for n in notes)

    def test_engine_metrics_gate_like_the_others(self):
        base = doc(engine_batch_speedup=6.0, engine_byte_identical=True)
        failures, _ = compare_docs(
            base,
            doc(engine_batch_speedup=1.5, engine_byte_identical=True),
            tolerance=0.5,
        )
        assert any("engine_batch_speedup" in f for f in failures)
        failures, _ = compare_docs(
            base,
            doc(engine_batch_speedup=6.0, engine_byte_identical=False),
            tolerance=0.5,
        )
        assert any("engine_byte_identical" in f for f in failures)

    def test_fleet_metrics_gate_like_the_others(self):
        base = doc(fleet_p99_wait_gain=1.3, fleet_deterministic=True)
        failures, _ = compare_docs(
            base,
            doc(fleet_p99_wait_gain=0.4, fleet_deterministic=True),
            tolerance=0.5,
        )
        assert any("fleet_p99_wait_gain" in f for f in failures)
        failures, _ = compare_docs(
            base,
            doc(fleet_p99_wait_gain=1.3, fleet_deterministic=False),
            tolerance=0.5,
        )
        assert any("fleet_deterministic" in f for f in failures)

    def test_replay_metrics_gate_like_the_others(self):
        base = doc(replay_p99_wait_gain=1.4, replay_deterministic=True)
        failures, _ = compare_docs(
            base,
            doc(replay_p99_wait_gain=0.4, replay_deterministic=True),
            tolerance=0.5,
        )
        assert any("replay_p99_wait_gain" in f for f in failures)
        failures, _ = compare_docs(
            base,
            doc(replay_p99_wait_gain=1.4, replay_deterministic=False),
            tolerance=0.5,
        )
        assert any("replay_deterministic" in f for f in failures)

    def test_v3_baseline_without_replay_metrics_skipped(self):
        base = doc()
        cur = doc(replay_p99_wait_gain=1.4, replay_deterministic=True)
        failures, notes = compare_docs(base, cur, tolerance=0.5)
        assert failures == []
        assert any(
            "replay_p99_wait_gain: not in baseline" in n for n in notes
        )

    def test_v2_baseline_without_fleet_metrics_skipped(self):
        base = doc()
        cur = doc(fleet_p99_wait_gain=1.3, fleet_deterministic=True)
        failures, notes = compare_docs(base, cur, tolerance=0.5)
        assert failures == []
        assert any(
            "fleet_p99_wait_gain: not in baseline" in n for n in notes
        )

    def test_fleet_wait_ms_values_informational(self):
        base = doc(fleet_fcfs_p99_wait_ms=100.0)
        cur = doc(fleet_fcfs_p99_wait_ms=9999.0)
        failures, notes = compare_docs(base, cur, tolerance=0.5)
        assert failures == []
        assert any(
            "fleet_fcfs_p99_wait_ms: informational" in n for n in notes
        )

    def test_v1_baseline_without_engine_metrics_skipped(self):
        # A baseline without the engine stage must not fail a
        # current run that has it.
        base = doc()
        cur = doc(engine_batch_speedup=6.0, engine_byte_identical=True)
        failures, notes = compare_docs(base, cur, tolerance=0.5)
        assert failures == []
        assert any(
            "engine_batch_speedup: not in baseline" in n for n in notes
        )


def matrix(*pairs):
    return [{"jobs": j, "elapsed_s": s, "speedup": pairs[0][1] / s} for j, s in pairs]


class TestJobsMatrixGate:
    def test_monotone_matrix_passes(self):
        cur = doc(jobs_matrix=matrix((1, 4.0), (2, 2.1), (4, 1.2)))
        failures, notes = compare_docs(doc(), cur, tolerance=0.5)
        assert failures == []
        assert any("jobs_matrix: ok" in n for n in notes)

    def test_single_entry_passes_trivially(self):
        # A single-core runner clamps the matrix to [1]; nothing to
        # degrade against, so the gate passes.
        cur = doc(jobs_matrix=matrix((1, 4.0)))
        failures, _ = compare_docs(doc(), cur, tolerance=0.5)
        assert failures == []

    def test_degradation_beyond_tolerance_fails(self):
        # jobs=4 takes >2x the best earlier time at tolerance 0.5.
        cur = doc(jobs_matrix=matrix((1, 4.0), (2, 2.0), (4, 4.5)))
        failures, _ = compare_docs(doc(), cur, tolerance=0.5)
        assert any("jobs_matrix" in f and "jobs=4" in f for f in failures)

    def test_mild_degradation_within_tolerance_passes(self):
        # jobs=4 slower than jobs=2 but within the 1/tolerance band.
        cur = doc(jobs_matrix=matrix((1, 4.0), (2, 2.0), (4, 2.8)))
        failures, _ = compare_docs(doc(), cur, tolerance=0.5)
        assert failures == []

    def test_unsorted_counts_fail(self):
        cur = doc(jobs_matrix=matrix((2, 2.0), (1, 4.0)))
        failures, _ = compare_docs(doc(), cur, tolerance=0.5)
        assert any("not ascending" in f for f in failures)

    def test_empty_matrix_fails(self):
        cur = doc(jobs_matrix=[])
        failures, _ = compare_docs(doc(), cur, tolerance=0.5)
        assert any("jobs_matrix" in f for f in failures)

    def test_absent_matrix_skipped_with_note(self):
        failures, notes = compare_docs(doc(), doc(), tolerance=0.5)
        assert failures == []
        assert any("jobs_matrix: not in current run" in n for n in notes)


class TestMain:
    def _write(self, path, document):
        path.write_text(json.dumps(document), encoding="utf-8")
        return str(path)

    def test_pass_exits_0(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", doc())
        cur = self._write(tmp_path / "cur.json", doc())
        assert main(["--baseline", base, "--current", cur]) == 0
        assert "bench compare: ok" in capsys.readouterr().out

    def test_regression_exits_1(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", doc())
        cur = self._write(tmp_path / "cur.json", doc(parallel_speedup=0.1))
        assert main(["--baseline", base, "--current", cur]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", doc())
        assert (
            main(["--baseline", base, "--current", str(tmp_path / "nope.json")])
            == 2
        )
        assert "bench compare:" in capsys.readouterr().err

    def test_wrong_schema_exits_2(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", doc())
        # "repro-bench/2" is a retired schema: only the current one loads.
        for schema in ("other/9", "repro-bench/2"):
            bad = dict(doc(), schema=schema)
            cur = self._write(tmp_path / "cur.json", bad)
            assert main(["--baseline", base, "--current", cur]) == 2
            assert "schema" in capsys.readouterr().err

    def test_not_an_object_exits_2(self, tmp_path):
        base = self._write(tmp_path / "base.json", doc())
        cur = tmp_path / "cur.json"
        cur.write_text("[1, 2, 3]")
        assert main(["--baseline", base, "--current", str(cur)]) == 2

    def test_missing_results_exits_2(self, tmp_path):
        base = self._write(tmp_path / "base.json", doc())
        cur = self._write(tmp_path / "cur.json", {"schema": SCHEMA})
        assert main(["--baseline", base, "--current", cur]) == 2

    def test_committed_baseline_compares_against_itself(self, capsys):
        from pathlib import Path

        baseline = Path(__file__).resolve().parents[2] / "BENCH_parallel.json"
        assert baseline.exists()
        code = main(["--baseline", str(baseline), "--current", str(baseline)])
        assert code == 0
        assert "byte_identical: ok" in capsys.readouterr().out
