"""What ``profile_corpus`` ships: the caller's sequences, nothing else.

The serial path profiles the caller's ``XRaySequence`` objects in
place (no phantom rebuilt), and the pooled path pickles them by value
through a plain process pool (no shared-memory segment, so no
multiprocessing resource tracker outlives the call).
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import pytest

import repro
from repro.profiling import ProfileConfig, merge_shards, profile_corpus, profile_shards
from repro.synthetic import CorpusSpec, generate_corpus


def test_serial_profiles_callers_sequences_without_rebuilding(tmp_path):
    config = ProfileConfig()
    corpus = generate_corpus(CorpusSpec(n_sequences=3, total_frames=24, base_seed=55))
    expected = merge_shards(
        profile_shards([(i, s.config) for i, s in enumerate(corpus)], config, jobs=1),
        config,
    )
    rebuilt = AssertionError("build_phantom called after the sequences exist")
    with (
        mock.patch("repro.synthetic.sequence.build_phantom", side_effect=rebuilt),
        mock.patch("repro.synthetic.phantom.build_phantom", side_effect=rebuilt),
    ):
        traces = profile_corpus(corpus, config, jobs=1)
    assert traces.records == expected.records
    traces.save(tmp_path / "corpus.json")
    expected.save(tmp_path / "shards.json")
    assert (tmp_path / "corpus.json").read_bytes() == (tmp_path / "shards.json").read_bytes()


_POOLED_RUN = textwrap.dedent(
    """
    import multiprocessing
    import sys
    from multiprocessing import resource_tracker

    if multiprocessing.get_start_method() != "fork":
        sys.exit(3)
    from repro.profiling import ProfileConfig, profile_corpus
    from repro.synthetic import CorpusSpec, generate_corpus

    corpus = generate_corpus(CorpusSpec(n_sequences=2, total_frames=16, base_seed=55))
    traces = profile_corpus(corpus, ProfileConfig(), jobs=2)
    assert len(traces) == 16
    sys.exit(0 if resource_tracker._resource_tracker._pid is None else 1)
    """
)


def test_pooled_profile_starts_no_resource_tracker():
    # A fresh interpreter: the test process may already run a tracker.
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    proc = subprocess.run(
        [sys.executable, "-c", _POOLED_RUN],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    if proc.returncode == 3:
        pytest.skip("the pool's start method is not fork")
    assert proc.returncode == 0, proc.stderr or "resource tracker started"
