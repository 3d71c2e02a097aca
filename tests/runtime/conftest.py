"""Per-workload deployments shared by the engine parity suites."""

from __future__ import annotations

from typing import NamedTuple

import pytest

from repro.core import TripleC
from repro.profiling import ProfileConfig, profile_corpus
from repro.runtime import record_tape
from repro.runtime.tape import FrameTape
from repro.synthetic import CorpusSpec, XRaySequence
from repro.workloads import get_workload, workload_names


class Deployment(NamedTuple):
    """A workload's trained models and one held-out tape."""

    config: ProfileConfig
    model: TripleC
    #: The same corpus fitted with ``online_update=True``.
    online_model: TripleC
    tape: FrameTape


@pytest.fixture(scope="session", params=workload_names())
def deployment(request) -> Deployment:
    wl = get_workload(request.param)
    config = ProfileConfig(workload=request.param)
    reference = profile_corpus(
        [
            XRaySequence(c)
            for c in wl.corpus_configs(CorpusSpec(4, 64, base_seed=2009))
        ],
        config,
        jobs=1,
    )
    seq = XRaySequence(wl.corpus_configs(CorpusSpec(1, 40, base_seed=7))[0])
    tape = record_tape(seq, wl.make_pipeline(seq, None))
    return Deployment(
        config,
        TripleC.fit(reference),
        TripleC.fit(reference, online_update=True),
        tape,
    )
