"""The ZOOM presentation image is rendered on first read, not per frame.

``StentBoostPipeline.process`` records the ZOOM work report from shapes
and keeps a deferred render; ``FrameAnalysis.output`` renders it once.
These tests pin that the lazy image is the eager one byte for byte,
that it renders at most once, that it survives pickling either side of
the render, and that the timing paths (profiling, tape recording) never
render at all.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro.imaging.zoom as zoom_module
from repro.imaging.enhance import TemporalEnhancer
from repro.imaging.pipeline import PipelineConfig, StentBoostPipeline
from repro.profiling import ProfileConfig, profile_corpus
from repro.runtime.tape import record_tape
from repro.synthetic import CorpusSpec, SequenceConfig, XRaySequence, generate_corpus


@pytest.fixture(scope="module")
def sequence() -> XRaySequence:
    return XRaySequence(SequenceConfig(n_frames=30, seed=11, visibility_dips=0))


def _pipeline(sequence: XRaySequence) -> StentBoostPipeline:
    sep = sequence.config.resolved_phantom().marker_separation
    return StentBoostPipeline(PipelineConfig(expected_distance=sep))


@pytest.fixture()
def zoom_calls(monkeypatch) -> list[int]:
    """Count calls of ``repro.imaging.zoom.zoom_roi``."""
    calls: list[int] = []
    real = zoom_module.zoom_roi

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(zoom_module, "zoom_roi", counting)
    return calls


def _success_analyses(sequence: XRaySequence):
    pipeline = _pipeline(sequence)
    analyses = [pipeline.process(img) for img, _ in sequence.iter_frames()]
    success = [a for a in analyses if a.switches.reg_success]
    assert success, "sequence never registered successfully"
    return success


class TestLazyOutput:
    def test_output_equals_eager_zoom(self, sequence, monkeypatch):
        enhanced_frames: list[np.ndarray] = []
        real_enhance = TemporalEnhancer.enhance

        def recording(self, img, transform):
            enhanced, rep = real_enhance(self, img, transform)
            enhanced_frames.append(enhanced.copy())
            return enhanced, rep

        monkeypatch.setattr(TemporalEnhancer, "enhance", recording)
        success = _success_analyses(sequence)
        assert len(enhanced_frames) == len(success)
        h, w = sequence.config.height, sequence.config.width
        out_shape = (int(round(h * np.sqrt(2.0))), int(round(w * np.sqrt(2.0))))
        for analysis, enhanced in zip(success, enhanced_frames):
            eager, rep = zoom_module.zoom_roi(enhanced, analysis.roi_next, out_shape)
            lazy = analysis.output
            assert lazy is not None
            assert lazy.dtype == eager.dtype and lazy.shape == eager.shape
            assert lazy.tobytes() == eager.tobytes()
            assert analysis.reports["ZOOM"] == rep

    def test_failed_frames_have_no_output(self, sequence, zoom_calls):
        pipeline = _pipeline(sequence)
        analyses = [pipeline.process(img) for img, _ in sequence.iter_frames()]
        failed = [a for a in analyses if not a.switches.reg_success]
        for analysis in failed:
            assert analysis.output is None
            assert "ZOOM" not in analysis.reports
        assert zoom_calls == []

    def test_output_renders_once(self, sequence, zoom_calls):
        analysis = _success_analyses(sequence)[0]
        assert zoom_calls == []
        first = analysis.output
        second = analysis.output
        assert first is second
        assert len(zoom_calls) == 1

    def test_pickle_round_trip_before_and_after_render(self, sequence, zoom_calls):
        analysis = _success_analyses(sequence)[0]
        before = pickle.loads(pickle.dumps(analysis))
        assert zoom_calls == []
        rendered = analysis.output
        after = pickle.loads(pickle.dumps(analysis))
        # The rendered image travels with the pickle: no re-render.
        assert after.output.tobytes() == rendered.tobytes()
        assert len(zoom_calls) == 1
        # An unrendered copy renders the same image on its own read.
        assert before.output.tobytes() == rendered.tobytes()
        assert len(zoom_calls) == 2
        assert before.reports == after.reports == analysis.reports

    def test_render_holds_only_the_window(self, sequence):
        analysis = _success_analyses(sequence)[0]
        render = analysis.render
        assert render is not None
        assert render.window.shape == (
            analysis.roi_next.height,
            analysis.roi_next.width,
        )
        assert render.window.base is None  # a copy, not a frame view


class TestTimingPathsSkipRender:
    def test_profile_corpus_never_renders(self, zoom_calls):
        corpus = generate_corpus(CorpusSpec(n_sequences=2, total_frames=40, base_seed=7))
        traces = profile_corpus(corpus, ProfileConfig(), jobs=1)
        assert "ZOOM" in traces.tasks()
        assert zoom_calls == []

    def test_record_tape_never_renders(self, sequence, zoom_calls):
        tape = record_tape(sequence, _pipeline(sequence))
        assert any("ZOOM" in a.reports for a in tape.analyses)
        assert zoom_calls == []
