"""Workloads of the end-to-end benchmark: set-up, timed passes, checks.

A workload is one registered application taken through the flow a
Triple-C user runs on it.  Everything runs in one process as a closed
loop -- each call starts when the previous one returned -- and the
only other processes are the pool workers of the cold-cache call.

**Set-up** builds the inputs.  The *reference deployment* is fixed:
a reference training corpus is profiled, ``TripleC.fit`` trains the
plain and the ``online_update=True`` models on it, the held-out
sequences are recorded as tapes (their image pass), and the fleet's
burst trace is the default multi-class mix of the full
``python -m repro.bench`` fleet stage.  Engine cost depends on the
model severalfold -- the budget's stationary-distribution solve and
the plausible-scenario sets differ between models fitted on different
small corpora -- and fleet cost on how deep a draw's queues get, so
seeded versions of these would make the rates measure the draw rather
than the code.  The seed draws the rest: the training corpus the
profile stage profiles, which the fleet stage also replays as a job
stream.

**The timed phase** then runs ``ROUNDS`` rounds over those same
inputs.  In each round every stage repeats its pass for its share
(``STAGE_SHARES``) of the round, in this order:

1. **fit**: ``TripleC.fit`` on the reference corpus, plain and
   online, once per round;
2. **profile**: the seeded corpus profiled serially -- what
   ``profile_corpus(jobs=1)`` does, one ``profile_shards`` call per
   sequence and a ``merge_shards`` -- then, in the first pass
   only, cold through ``ExperimentContext(jobs=nproc).traces`` into an
   empty ``REPRO_CACHE_DIR`` (pool plus shard writes), then warm from
   that cache (shard reads);
3. **engine**: the held-out tapes replayed by ``FrameEngine.run_tape``
   under five runs: straightforward, managed (``TripleCPolicy``), the
   accuracy protocol (``StaticSerialPolicy(model=...)``), managed with
   the online-update model and managed with ``repro.obs`` on (always
   the scalar loop).  An online-updating predictor also takes the
   scalar loop; only StentBoost's tasks have one, the other
   applications' tasks all fall back to constant predictors.  Every
   replay gets a fresh simulator and a deep copy of the pristine model,
   built outside the timed call: a warmed model would silently take
   the scalar loop;
4. **fleet**: the burst trace under FCFS and prediction-aware
   backfill (deep queues), then the profiled corpus replayed as a
   ``repro-workload-trace/1`` job stream under both (short queues).

Every pass must reproduce the first pass's outputs exactly.

**Measurement.**  A shared virtual machine changes speed by tens of
percent within seconds, and its fast state drifts from minute to
minute, so neither a run's median nor its best pass repeats between
runs.  Every timed call is therefore calibrated: the fixed
kernel ``calibration_s`` (about 3 ms) runs just before and just after
it, and every ``TICK_S`` inside a fleet simulation, and the call's
time is scaled by the kernel's reference time over the mean of those
calibrations, to the power ``SLOWDOWN_EXPONENT``.  A rate adds up,
call by call, the median scaled time of that call at full speed
(:meth:`Run.rates`); ``setup_s`` is the median of three scaled
set-ups.  The times as measured are kept beside them.
"""

from __future__ import annotations

import copy
import gc
import hashlib
import heapq
import json
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

import repro.experiments.common as experiments_common
import repro.imaging.pipeline as stentboost_pipeline
import repro.imaging.zoom as stentboost_zoom
import repro.obs as obs
import repro.runtime.engine as engine_module
from repro.core import prediction_accuracy
from repro.core.serialize import save_model
from repro.core.triplec import TripleC
from repro.experiments.common import ExperimentContext
from repro.fleet.admission import AdmissionController
from repro.fleet.cli import POLICIES
from repro.fleet.estimates import make_estimator
from repro.fleet.jobs import JobRecord, synthetic_burst_trace
from repro.fleet.nodes import default_fleet
from repro.fleet.replay import jobs_from_workload_trace, workload_trace_doc
from repro.fleet.simulator import FleetSimulator
from repro.hw import Mapping
from repro.hw.bus import BandwidthLedger
from repro.imaging.enhance import TemporalEnhancer
from repro.parallel import available_cpus
from repro.profiling import (
    ProfileConfig,
    TraceSet,
    merge_shards,
    profile_corpus,
    profile_shards,
)
from repro.runtime import (
    FrameEngine,
    FrameTable,
    StaticSerialPolicy,
    TripleCPolicy,
    record_tape,
)
from repro.runtime.frametable import FRAME_DTYPE
from repro.runtime.tape import FrameTape
from repro.synthetic import CorpusSpec, XRaySequence
from repro.workloads import REGISTRY_VERSION, get_workload

from spans import LAYERS, Ledger, NullRecorder, SpanRecorder

GOLDEN_PATH = Path(__file__).with_name("golden.json")


@dataclass(frozen=True)
class Scale:
    """Input sizes of one workload run."""

    #: Reference training corpus of the deployment.
    reference_sequences: int
    reference_frames: int
    #: Seeded corpus the profile stage profiles.  Its profiling cost
    #: varies with the draw, less so the more sequences it has.
    profile_sequences: int
    profile_frames: int
    #: Held-out corpus recorded as tapes.
    heldout_sequences: int
    heldout_frames: int
    #: Jobs in the burst trace.
    burst_jobs: int


SCALES = {
    "full": Scale(8, 96, 16, 128, 2, 80, 2000),
    # Test-only: every stage and check runs, in seconds.
    "tiny": Scale(2, 16, 2, 16, 1, 12, 100),
}

#: Corpus seeds of the reference deployment.
REFERENCE_SEED = 2009
HELDOUT_SEED = 7
#: Seed of the reference burst trace.  With the full scale's 2,000
#: jobs it is the trace the full ``python -m repro.bench`` fleet stage
#: simulates; 7 is also ``python -m repro.fleet``'s default seed.
BURST_SEED = 7
#: The timed phase runs in this many rounds, and in each round every
#: stage repeats for its share of the round.  A stage thus gets as many
#: passes as its own cost allows, whatever the other stages cost, and
#: a slow spell of the machine falls on parts of every stage rather
#: than on all of one.  Every stage runs at least once per round, so
#: every run checks that a pass reproduces the first.
ROUNDS = 2
#: Share of a round each stage repeats for.  A pass adds one timed call
#: to each fleet rate, two to each engine rate and seventeen to the
#: profile rate, so the fleet needs the most passes for a steady rate.
STAGE_SHARES = {"profile": 0.3, "engine": 0.2, "fleet": 0.5}
#: Set-up runs this often; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Warm reloads per profile pass (one takes only a few milliseconds).
RELOADS = 20
#: Leading frames of each tape the accuracy score skips (cold model).
ACCURACY_WARMUP = 3
#: The traced run fails when the layers cover less of its frame loop
#: (the serial profile, which involves no experiment-layer glue).
MIN_COVERAGE = 0.95

ENGINE_RUNS = ("straightforward", "managed", "accuracy", "online", "obs")
#: Engine run -> end-to-end rate it reports.
ENGINE_RATES = {
    "managed": "engine_fps",
    "online": "engine_online_fps",
    "obs": "engine_obs_fps",
}

#: StentBoost imaging tasks and the functions the pipeline calls.
IMAGING_TASKS = (
    ("PRECHECK", stentboost_pipeline, "structure_precheck"),
    ("RDG", stentboost_pipeline, "ridge_filter"),
    ("MKX", stentboost_pipeline, "extract_markers"),
    ("CPLS", stentboost_pipeline, "select_couple"),
    ("REG", stentboost_pipeline, "register_couples"),
    ("ROI_EST", stentboost_pipeline, "estimate_roi"),
    ("GW_EXT", stentboost_pipeline, "extract_guidewire"),
    ("ENH", TemporalEnhancer, "enhance"),
    ("ZOOM", stentboost_zoom, "zoom_roi"),
)
_IMAGING_ORIGINALS = [getattr(owner, attr) for _, owner, attr in IMAGING_TASKS]

PROFILE_IO_PATCHES = (
    (experiments_common, "profile_shards", "parallel.profile_shards"),
    (experiments_common, "merge_shards", "profiling.merge"),
    (TraceSet, "save", "profiling.save"),
    (TraceSet, "load", "profiling.load"),
    (BandwidthLedger, "from_state", "hw.ledger_from_state"),
)
ENGINE_PATCHES = (
    (engine_module, "collect_batch_costs", "runtime.collect_costs"),
    (engine_module, "walk_scenario_predictions", "core.scenario_walk"),
    (engine_module, "replay_observes", "core.replay_observes"),
)
FIT_PATCHES = ((TripleC, "fit", "core.fit"),)

NULL = NullRecorder()


@dataclass
class Inputs:
    """What set-up builds: the reference deployment and seeded inputs."""

    reference: TraceSet
    model: TripleC
    online_model: TripleC
    tapes: list[FrameTape]
    #: Wall time of recording the tapes.
    record_s: float
    #: The seeded training corpus the profile stage profiles.
    corpus: CorpusSpec
    burst: list[JobRecord]


def set_up(app: str, seed: int, scale: Scale) -> Inputs:
    """Build the reference deployment and draw the seeded inputs."""
    wl = get_workload(app)
    config = ProfileConfig(workload=app)

    def spec(n_sequences: int, total_frames: int, base_seed: int) -> CorpusSpec:
        return CorpusSpec(
            n_sequences=n_sequences, total_frames=total_frames, base_seed=base_seed
        )

    reference_spec = spec(scale.reference_sequences, scale.reference_frames, REFERENCE_SEED)
    reference = profile_corpus(
        [XRaySequence(c) for c in wl.corpus_configs(reference_spec)], config, jobs=1
    )
    heldout = wl.corpus_configs(
        spec(scale.heldout_sequences, scale.heldout_frames, HELDOUT_SEED)
    )
    t0 = time.perf_counter()
    sequences = [XRaySequence(c) for c in heldout]
    tapes = [record_tape(s, wl.make_pipeline(s, None)) for s in sequences]
    record_s = time.perf_counter() - t0
    return Inputs(
        reference=reference,
        model=TripleC.fit(reference),
        online_model=TripleC.fit(reference, online_update=True),
        tapes=tapes,
        record_s=record_s,
        corpus=spec(scale.profile_sequences, scale.profile_frames, seed),
        burst=synthetic_burst_trace(n_jobs=scale.burst_jobs, seed=BURST_SEED),
    )


_CALIBRATION_IMAGE = np.linspace(0.0, 1.0, 128 * 128).reshape(128, 128)
#: ``calibration_s`` on the reference machine (README, *Measurement*).
#: Rates and set-up times are reported as if measured at that speed.
CALIBRATION_REFERENCE_S = 3.0e-3
#: A call's slowdown is the calibration's slowdown to this power: when
#: the machine slows down, the program slows down more than the
#: kernel.  Of 1.0, 1.1 and 1.2, 1.1 gave the steadiest rates over
#: forty runs per workload on the reference machine.
SLOWDOWN_EXPONENT = 1.1
#: A long call calibrates this often while it runs.
TICK_S = 0.1
#: A call counts towards a rate when its calibration time is within
#: this factor of the run's tenth-percentile calibration time.
FULL_SPEED = 1.15


def calibration_s() -> float:
    """Wall time of a fixed mix of interpreter and small-array work.

    Taken just before and just after every timed call, it measures how
    fast the machine is running at that moment.  The collector is off
    while it runs, so its time does not depend on the program's heap.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        heap: list[tuple[int, int]] = []
        counts: dict[int, int] = {}
        for i in range(3000):
            heapq.heappush(heap, ((i * 7919) % 1009, i))
            counts[i % 97] = counts.get(i % 97, 0) + 1
        while heap:
            heapq.heappop(heap)
        img = _CALIBRATION_IMAGE
        for _ in range(20):
            img = np.sqrt(np.abs(np.diff(img, axis=0, append=img[:1]) + 0.5 * img))
        return time.perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


@dataclass(frozen=True)
class Timing:
    """One timed call: its wall time, the mean calibration time around
    and during it, and the wall time scaled by that to the reference
    speed."""

    seconds: float
    calibration: float
    scaled: float


class Clock:
    """Times calls and calibrates just before and just after each; the
    calibration after one call serves as the one before the next.  A
    long call also calibrates while it runs, wherever it calls
    :meth:`tick`."""

    def __init__(self) -> None:
        self.last = calibration_s()
        self._during: list[float] = []
        self._next_tick = math.inf

    def time(self, fn: Callable[[], Any]) -> tuple[Timing, Any]:
        before = self.last
        self._during = []
        t0 = time.perf_counter()
        self._next_tick = t0 + TICK_S
        out = fn()
        elapsed = time.perf_counter() - t0 - sum(self._during)
        self._next_tick = math.inf
        self.last = calibration_s()
        calibration = statistics.fmean([before, *self._during, self.last])
        scaled = elapsed * (CALIBRATION_REFERENCE_S / calibration) ** SLOWDOWN_EXPONENT
        return Timing(elapsed, calibration, scaled), out

    def tick(self) -> None:
        """Calibrate inside the running call, at most every ``TICK_S``;
        the calibration's own time is not the call's."""
        if time.perf_counter() >= self._next_tick:
            self._during.append(calibration_s())
            self._next_tick = time.perf_counter() + TICK_S


def _passes(seconds: float) -> Iterator[None]:
    """Repeat for ``seconds``: no pass after the first starts that, at
    the mean pass duration so far, would end past the budget."""
    start = time.perf_counter()
    end = start + seconds
    n = 0
    while True:
        yield
        n += 1
        now = time.perf_counter()
        if now + (now - start) / n > end:
            return


class Run:
    """One workload run: its inputs, samples, checks and digests."""

    def __init__(self, app: str, seed: int, work_dir: Path, inputs: Inputs) -> None:
        self.app = app
        self.seed = seed
        self.work_dir = work_dir
        self.inputs = inputs
        self.config = ProfileConfig(workload=app)
        self.jobs = available_cpus()
        #: Per end-to-end rate: the work of one pass, and each untraced
        #: pass's timed calls, in call order.
        self.work: dict[str, float] = {}
        self.passes: dict[str, list[list[Timing]]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        #: Output digests of the first pass.
        self.digests: dict[str, str] = {}
        #: Quality values of the first pass.
        self.quality: dict[str, float] = {}
        #: Per-layer values measured outside spans.
        self.layer: dict[str, float] = {}
        #: Queue depth, shedding and tail wait of each fleet run of the
        #: first pass.
        self.fleet_queues: dict[str, dict[str, float]] = {}
        self.clock = Clock()
        #: Rate of the cold pooled profile, which runs once per run.
        self.pool_fps = 0.0
        #: Call time of every stage's pass 0, untraced (False) and traced.
        self.wall = {False: 0.0, True: 0.0}
        #: Last pass number per (stage, traced).
        self.pass_count: dict[tuple[str, bool], int] = {}
        #: The serial profile's trace set, which the fleet replays.
        self.traces: TraceSet | None = None
        #: What each refit must reproduce: the set-up models, serialized.
        self.models = {
            "fit": _model_digest(inputs.model, work_dir),
            "fit_online": _model_digest(inputs.online_model, work_dir),
        }

    # -- bookkeeping --------------------------------------------------------

    def call(
        self, rec: Any, n: int, name: str, fn: Callable[[], Any]
    ) -> tuple[Timing, Any]:
        """Time one call into the program (a ``bench.<name>`` root),
        calibrated unless traced."""
        self.attempted += 1
        # Every call starts from the same collector state: a cycle
        # collection owed by earlier allocations would otherwise land
        # on whichever call crosses the threshold next.
        gc.collect()
        if rec.enabled:
            with rec.span("bench." + name):
                t0 = time.perf_counter()
                out = fn()
                elapsed = time.perf_counter() - t0
            timing = Timing(elapsed, CALIBRATION_REFERENCE_S, elapsed)
        else:
            timing, out = self.clock.time(fn)
        if n == 0:
            self.wall[rec.enabled] += timing.seconds
        return timing, out

    def sample(self, rec: Any, name: str, work: float, timings: list[Timing]) -> None:
        """Record one pass of the calls ``timings``, which do ``work``."""
        if rec.enabled:
            return
        self.work[name] = work
        self.passes.setdefault(name, []).append(timings)

    def rates(self) -> dict[str, float]:
        """Each rate: its work over the sum, call by call, of the
        median scaled time of that call at full speed.

        Every pass makes the same calls in the same order, so the k-th
        calls of all passes time the same work.  A call is at full
        speed when its calibration time is within ``FULL_SPEED`` of
        the run's typical fast calibration, its tenth percentile: when
        the machine slows down, the program slows down more than the
        calibration kernel, so calls in a slow spell read slow even
        scaled.  Taking the median call by call and adding them up
        averages the noise of the calls, where one median of whole
        passes would keep that of the median pass.
        """
        everything = [t.calibration for ps in self.passes.values() for p in ps for t in p]
        fast = FULL_SPEED * statistics.quantiles(everything, n=10)[0]
        rates = {}
        for name, passes in self.passes.items():
            seconds = 0.0
            for calls in zip(*passes):
                kept = [t.scaled for t in calls if t.calibration <= fast]
                seconds += statistics.median(kept or [t.scaled for t in calls])
            rates[name] = self.work[name] / seconds
        return rates

    def pass_samples(self) -> dict[str, dict[str, list[float]]]:
        """Per rate, each pass's rate (scaled and as measured) and mean
        calibration time, for the ``--out`` document."""
        out: dict[str, dict[str, list[float]]] = {}
        for name, passes in self.passes.items():
            work = self.work[name]
            out[name] = {
                "scaled": [work / sum(t.scaled for t in p) for p in passes],
                "measured": [work / sum(t.seconds for t in p) for p in passes],
                "calibration": [
                    sum(t.calibration * t.seconds for t in p) / sum(t.seconds for t in p)
                    for p in passes
                ],
            }
        return out

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def digest(self, rec: Any, n: int, key: str, value: str) -> None:
        """Pin an output: the untraced first pass records its digest
        and every other pass, traced or not, must reproduce it."""
        if key not in self.digests and not rec.enabled:
            self.digests[key] = value
        else:
            what = "traced pass" if rec.enabled else "pass"
            self.check(
                value == self.digests.get(key),
                f"{key}: {what} {n} changed the output",
            )

    def run(self, seconds: float, recorder: SpanRecorder | None) -> None:
        """Repeat every stage for ``seconds``, in ``ROUNDS`` rounds.

        A traced run first does one untraced pass of every stage: its
        outputs pin the traced ones and its wall time is the base of
        the tracing overhead.
        """
        if recorder is not None:
            self.run_round(0.0, NULL)
        for _ in range(ROUNDS):
            self.run_round(seconds / ROUNDS, recorder or NULL)

    def run_round(self, seconds: float, rec: Any) -> None:
        """Each stage's passes for its share of ``seconds`` (at least
        one), numbered per stage from 0 in untraced and traced runs
        alike; pass 0 runs the once-per-run calls and checks."""
        self.fit(self._next_pass("fit", rec), rec)
        for stage, share in STAGE_SHARES.items():
            for _ in _passes(share * seconds):
                getattr(self, stage)(self._next_pass(stage, rec), rec)

    def _next_pass(self, stage: str, rec: Any) -> int:
        key = (stage, rec.enabled)
        self.pass_count[key] = self.pass_count.get(key, -1) + 1
        return self.pass_count[key]

    # -- stages -------------------------------------------------------------

    def profile(self, n: int, rec: Any) -> None:
        spec = self.inputs.corpus
        configs = get_workload(self.app).corpus_configs(spec)
        frames = spec.total_frames
        cache = self.work_dir / f"cache-{int(rec.enabled)}"
        os.environ["REPRO_CACHE_DIR"] = str(cache)

        rec.run = f"p{n}/profile"
        if rec.enabled:
            timing, serial = self.call(
                rec,
                n,
                "profile_serial",
                lambda: _traced_profile(rec, n, configs, self.config),
            )
            timings = [timing]
        else:
            # What profile_corpus(jobs=1) does, one sequence per call so
            # that each is calibrated on its own.
            timings, shards = [], []
            for item in enumerate(configs):
                timing, (shard,) = self.call(
                    rec,
                    n,
                    "profile_serial",
                    lambda item=item: profile_shards([item], self.config, jobs=1),
                )
                timings.append(timing)
                shards.append(shard)
            timing, serial = self.call(
                rec, n, "profile_merge", lambda: merge_shards(shards, self.config)
            )
            timings.append(timing)
        self.sample(rec, "profile_fps", frames, timings)

        def context() -> TraceSet:
            return ExperimentContext(
                corpus_spec=spec, profile_config=self.config, jobs=self.jobs
            ).traces

        with rec.patched(PROFILE_IO_PATCHES):
            if n == 0:
                # Cold: the pool profiles the corpus and writes the
                # shards every later reload reads.
                rec.run = f"p{n}/pool"
                timing, pooled = self.call(rec, n, "profile_pool", context)
                self.check(
                    serial.records == pooled.records, "pool records differ from serial"
                )
                if not rec.enabled:
                    self.pool_fps = frames / timing.seconds
            rec.run = f"p{n}/reload"
            timings = []
            for _ in range(RELOADS):
                timing, reloaded = self.call(rec, n, "trace_reload", context)
                timings.append(timing)
            self.sample(rec, "trace_reload_fps", RELOADS * frames, timings)

        self.check(len(serial) == frames, f"profiled {len(serial)} of {frames} frames")
        self.check(
            serial.records == reloaded.records, "reloaded records differ from serial"
        )
        self.digest(rec, n, "traces", _traceset_digest(serial, self.work_dir))
        if n == 0 and rec.enabled:
            self.layer["profiling.trace_bytes"] = sum(
                p.stat().st_size for p in cache.rglob("*") if p.is_file()
            )
        self.traces = serial

    def fit(self, n: int, rec: Any) -> None:
        reference = self.inputs.reference
        rec.run = f"p{n}/fit"
        with rec.patched(FIT_PATCHES):
            for name, online in (("fit", False), ("fit_online", True)):
                _, model = self.call(
                    rec, n, name, lambda: TripleC.fit(reference, online_update=online)
                )
                self.check(
                    _model_digest(model, self.work_dir) == self.models[name],
                    f"{name}: refit differs from the set-up model",
                )

    def engine(self, n: int, rec: Any) -> None:
        tapes = self.inputs.tapes
        frames = sum(len(t) for t in tapes)
        tables: dict[str, list[FrameTable]] = {}
        with rec.patched(ENGINE_PATCHES):
            for run in ENGINE_RUNS:
                timings = []
                tables[run] = []
                for i, tape in enumerate(tapes):
                    rec.run = f"p{n}/engine/{run}/tape{i}"
                    engine = self._engine(run, rec)
                    if run == "obs":
                        obs.enable()
                    try:
                        timing, result = self.call(
                            rec,
                            n,
                            "engine_" + run,
                            lambda: engine.run_tape(tape, seq_key=i),
                        )
                    finally:
                        handle = obs.disable() if run == "obs" else None
                    timings.append(timing)
                    tables[run].append(result.table)
                    if handle is not None and rec.enabled and n == 0 and i == 0:
                        self._dump_obs(rec, handle)
                if run in ENGINE_RATES:
                    self.sample(rec, ENGINE_RATES[run], frames, timings)

        for run, run_tables in tables.items():
            self.digest(rec, n, "frames." + run, _tables_digest(run_tables))
        if n == 0 and not rec.enabled:
            self._engine_reference_checks(tables)

    def _engine(self, run: str, rec: Any) -> FrameEngine:
        sim = self.config.make_simulator()
        if run == "straightforward":
            policy: Any = StaticSerialPolicy()
        elif run == "accuracy":
            policy = StaticSerialPolicy(model=copy.deepcopy(self.inputs.model))
        else:
            model = self.inputs.online_model if run == "online" else self.inputs.model
            policy = TripleCPolicy.for_simulator(copy.deepcopy(model), sim)
        if rec.enabled:
            rec.instrument(
                policy,
                {
                    "plan_frame": "runtime.plan_frame",
                    "observe_frame": "runtime.observe_frame",
                    "plan_frames": "runtime.plan_frames",
                    "observe_frames": "runtime.observe_frames",
                },
            )
            policy_model = getattr(policy, "triplec", None) or policy.model
            if policy_model is not None:
                rec.instrument(
                    policy_model,
                    {
                        "predict": "core.predict",
                        "plausible_predictions": "core.plausible",
                        "observe": "core.observe",
                    },
                )
            partitioner = getattr(policy, "partitioner", None)
            if partitioner is not None:
                rec.instrument(partitioner, {"choose_robust": "runtime.choose_robust"})
            rec.instrument(
                sim,
                {
                    "simulate_frame": "hw.simulate_frame",
                    "simulate_costed_frame": "hw.simulate_costed",
                },
            )
        engine = FrameEngine(sim, policy)
        path = "batched" if run != "obs" and policy.supports_batch() else "scalar"
        return rec.instrument(engine, {"run_tape": "runtime.run_tape." + path})

    def _dump_obs(self, rec: SpanRecorder, handle: Any) -> None:
        records = handle.tracer.records
        self.layer["obs.spans"] = sum(1 for r in records if r.get("kind") == "span")
        with rec.span("obs.dump"):
            obs.dump(handle, self.work_dir / "obs")

    def _engine_reference_checks(self, tables: dict[str, list[FrameTable]]) -> None:
        """Parity and quality, on the untraced first pass."""
        for i, tape in enumerate(self.inputs.tapes):
            diff = _table_difference(tables["managed"][i], tables["obs"][i])
            self.check(diff is None, f"tape {i}: observability on vs off: {diff}")
            sim = self.config.make_simulator()
            policy = TripleCPolicy.for_simulator(copy.deepcopy(self.inputs.model), sim)
            scalar = FrameEngine(sim, policy).run_tape(tape, seq_key=i, batched=False)
            diff = _table_difference(tables["managed"][i], scalar.table)
            self.check(diff is None, f"tape {i}: batched vs scalar managed: {diff}")

        predicted, measured = [], []
        for table in tables["accuracy"]:
            scored = table.column("index") >= ACCURACY_WARMUP
            predicted.append(table.column("predicted_ms")[scored])
            measured.append(table.column("serial_ms")[scored])
        self.quality["predict_accuracy"] = prediction_accuracy(
            np.concatenate(predicted), np.concatenate(measured)
        ).mean_accuracy
        straight = np.concatenate([t.column("latency_ms") for t in tables["straightforward"]])
        managed = np.concatenate([t.column("output_ms") for t in tables["managed"]])
        self.quality["jitter_reduction"] = 1.0 - float(np.std(managed) / np.std(straight))

    def fleet(self, n: int, rec: Any) -> None:
        burst = self.inputs.burst
        burst_runs: dict[str, Any] = {}
        for policy in ("fcfs", "predictive"):
            rec.run = f"p{n}/fleet/{policy}/burst"
            timing, burst_runs[policy] = self.call(
                rec,
                n,
                "fleet_" + policy,
                lambda: _simulate(rec, burst, policy, self.clock.tick),
            )
            self.sample(rec, f"fleet_{policy}_jobs_per_s", len(burst), [timing])

        rec.run = f"p{n}/fleet/replay"
        _, replay = self.call(rec, n, "fleet_replay", lambda: self._replay(rec))

        for name, summary in (
            *(("burst " + p, s) for p, s in burst_runs.items()),
            *(("replay " + p, replay[p]) for p in ("fcfs", "predictive")),
        ):
            jobs = summary["jobs"]
            self.check(
                jobs["completed"] + jobs["shed"] == jobs["submitted"],
                f"{name}: completed + shed != submitted ({jobs})",
            )
        # Same-seed fleet runs must be identical: every pass
        # simulates the same traces again.
        self.digest(
            rec,
            n,
            "fleet",
            _sha256(json.dumps({"burst": burst_runs, "replay": replay}, sort_keys=True)),
        )
        if n == 0 and not rec.enabled:
            self.quality["fleet_p99_wait_gain"] = _p99_gain(burst_runs)
            self.quality["replay_p99_wait_gain"] = _p99_gain(replay)
            predictive = burst_runs["predictive"]
            self.layer["fleet.shed"] = predictive["jobs"]["shed"]
            self.layer["fleet.max_pending_depth"] = predictive["max_pending_depth"]
            self.layer["fleet.replay_jobs"] = replay["jobs"]
            self.fleet_queues = {
                f"{stream} {p}": {
                    "max_pending_depth": run[p]["max_pending_depth"],
                    "shed": run[p]["jobs"]["shed"],
                    "p99_wait_ms": run[p]["wait_ms"]["p99"],
                }
                for stream, run in (("burst", burst_runs), ("replay", replay))
                for p in ("fcfs", "predictive")
            }

    def _replay(self, rec: Any) -> dict[str, Any]:
        """The profiled corpus replayed through the fleet."""
        with rec.span("fleet.replay_convert"):
            jobs = jobs_from_workload_trace(
                workload_trace_doc({self.app: self.traces}), seed=self.seed
            )
        out: dict[str, Any] = {"jobs": len(jobs)}
        for policy in ("fcfs", "predictive"):
            out[policy] = _simulate(rec, jobs, policy)
        return out


def _traced_profile(
    rec: SpanRecorder, n: int, configs: list, config: ProfileConfig
) -> TraceSet:
    """The serial profile, driven frame by frame so each layer shows.

    Mirrors ``profile_corpus(jobs=1)``: a private simulator and trace
    shard per sequence, merged in sequence order.  The run checks that
    the result serializes identically to the untraced call's.
    """
    wl = get_workload(config.workload)
    mapping = Mapping.serial()
    shards = []
    with rec.patched(
        [(owner, attr, "imaging.task." + task) for task, owner, attr in IMAGING_TASKS]
    ):
        for seq_id, seq_config in enumerate(configs):
            rec.run = f"p{n}/profile/seq{seq_id}"
            with rec.span("synthetic.phantom"):
                sequence = XRaySequence(seq_config)
            with rec.span("hw.make_simulator"):
                sim = config.make_simulator()
            with rec.span("imaging.make_pipeline"):
                pipe = wl.make_pipeline(sequence, config.pipeline)
            ts = TraceSet(
                pixel_scale=config.pixel_scale,
                platform=config.platform.name,
                workload=config.workload,
                registry_version=REGISTRY_VERSION,
            )
            for k in range(len(sequence)):
                with rec.span("synthetic.frame"):
                    img, _truth = sequence.frame(k)
                with rec.span("imaging.process"):
                    analysis = pipe.process(img)
                with rec.span("hw.simulate_frame"):
                    result = sim.simulate_frame(
                        analysis.reports, mapping, frame_key=(seq_id, analysis.index)
                    )
                with rec.span("profiling.add_frame"):
                    ts.add_frame(
                        seq=seq_id,
                        frame=analysis.index,
                        scenario_id=analysis.scenario_id,
                        task_ms=result.task_ms,
                        roi_kpixels=analysis.extras["roi_kpixels"] * config.pixel_scale,
                        latency_ms=result.latency_ms,
                        eviction_bytes=result.eviction_bytes,
                        external_bytes=result.external_bytes,
                    )
            ts.meta["ledger"] = sim.ledger
            shards.append(ts)
    with rec.span("profiling.merge"):
        return merge_shards(shards, config)


def _simulate(
    rec: Any,
    trace: list[JobRecord],
    policy: str,
    tick: Callable[[], None] | None = None,
) -> dict[str, Any]:
    """One fleet policy over ``trace``, as ``python -m repro.fleet`` runs
    it; ``tick`` runs before every scheduling decision."""
    scheduler_cls, estimator_kind = POLICIES[policy]
    with rec.span("fleet.estimator_build"):
        estimator = make_estimator(estimator_kind, trace)
    rec.instrument(estimator, {"estimate_ms": "fleet.estimate", "observe": "fleet.observe"})
    scheduler = rec.instrument(scheduler_cls(), {"select": "fleet.select"})
    if tick is not None:
        select = scheduler.select

        def ticking_select(*args: Any) -> Any:
            tick()
            return select(*args)

        scheduler.select = ticking_select
    sim = FleetSimulator(default_fleet(), scheduler, estimator)
    with rec.patched([(AdmissionController, "on_submit", "fleet.admit")]):
        with rec.span("fleet.run"):
            result = sim.run(trace)
    with rec.span("fleet.summary"):
        return result.slo_summary()


# -- digests and comparisons -------------------------------------------------


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _traceset_digest(traces: TraceSet, work_dir: Path) -> str:
    """SHA-256 of the trace set as ``TraceSet.save`` serializes it."""
    path = work_dir / "digest-traces.json"
    traces.save(path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    path.unlink()
    path.with_suffix(".npz").unlink()
    return digest


def _model_digest(model: TripleC, work_dir: Path) -> str:
    """SHA-256 of the model as ``save_model`` serializes it: every
    trained predictor, its online-update flag, the training means and
    the scenario counts."""
    path = work_dir / "digest-model.json"
    save_model(model, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    path.unlink()
    return digest


def _tables_digest(tables: list[FrameTable]) -> str:
    h = hashlib.sha256()
    for table in tables:
        for name in FRAME_DTYPE.names:
            h.update(table.column(name).tobytes())
        for task in table.tasks():
            h.update(task.encode("utf-8"))
            h.update(table.task_ms_column(task).tobytes())
        rows = [(log.parts, log.predicted_task_ms, log.quality) for log in table.logs()]
        h.update(json.dumps(rows, sort_keys=True).encode("utf-8"))
    return h.hexdigest()


def _table_difference(a: FrameTable, b: FrameTable) -> str | None:
    """The first column in which two frame tables differ, or None."""
    if len(a) != len(b):
        return f"{len(a)} vs {len(b)} frames"
    for name in FRAME_DTYPE.names:
        if not np.array_equal(a.column(name), b.column(name)):
            return f"column {name}"
    if a.tasks() != b.tasks():
        return f"tasks {a.tasks()} vs {b.tasks()}"
    for task in a.tasks():
        if not np.array_equal(
            a.task_ms_column(task), b.task_ms_column(task), equal_nan=True
        ):
            return f"task_ms column {task}"
    for la, lb in zip(a.logs(), b.logs()):
        if la != lb:
            return f"frame {la.index} parts/predictions"
    return None


#: Resolution of the SLO summary's waits; a p99 wait of 0 counts as
#: this, so a stream that never queues under either policy gains 1.
WAIT_RESOLUTION_MS = 0.001


def _p99_gain(summaries: dict[str, Any]) -> float:
    fcfs, predictive = (
        max(float(summaries[p]["wait_ms"]["p99"]), WAIT_RESOLUTION_MS)
        for p in ("fcfs", "predictive")
    )
    return fcfs / predictive


def load_golden() -> dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def imaging_restored() -> bool:
    return all(
        getattr(owner, attr) is original
        for (_, owner, attr), original in zip(IMAGING_TASKS, _IMAGING_ORIGINALS)
    )


def peak_rss_mb() -> float:
    """Peak resident set of this process and its waited-for children."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


# -- the workload run --------------------------------------------------------


def run_workload(
    app: str,
    seed: int,
    seconds: float,
    scale_name: str,
    work_dir: Path,
    trace_dir: Path | None,
) -> dict[str, Any]:
    """Set up, repeat every stage for ``seconds``, check the outputs.

    With ``trace_dir`` the run is the traced one: it records spans,
    writes ``<app>.spans.jsonl`` and ``<app>.layers.json`` there and
    reports per-layer metrics instead of end-to-end ones.
    """
    recorder = SpanRecorder() if trace_dir is not None else None
    clock = Clock()
    setups: list[Timing] = []
    for _ in range(1 if recorder else SETUP_REPEATS):
        timing, inputs = clock.time(lambda: set_up(app, seed, SCALES[scale_name]))
        setups.append(timing)
    # The inputs live as long as the run: kept out of the collector,
    # they cost neither the calls nor the collection before each.
    gc.collect()
    gc.freeze()
    try:
        run = Run(app, seed, work_dir, inputs)
        run.run(seconds, recorder)
    finally:
        gc.unfreeze()

    run.check(imaging_restored(), "imaging wrappers were not restored")
    if seed == 0:
        golden = load_golden().get(scale_name, {}).get(app, {})
        for key in ("traces", "frames.managed", "fleet"):
            run.check(
                golden.get(key) == run.digests.get(key),
                f"{key}: seed-0 digest {run.digests.get(key)} != golden {golden.get(key)}",
            )

    if recorder is None:
        metrics = run.rates()
        metrics["setup_s"] = statistics.median(t.scaled for t in setups)
        metrics["peak_rss_mb"] = peak_rss_mb()
        for name in ("predict_accuracy", "jitter_reduction", "fleet_p99_wait_gain"):
            metrics[name] = run.quality[name]
    else:
        ledger = Ledger(recorder.spans, reference_run="p0/")
        metrics = _layer_metrics(run, ledger)
        frame_loop = ledger.coverage("bench.profile_serial")
        run.check(
            frame_loop >= MIN_COVERAGE,
            f"layers cover {frame_loop:.3f} of the traced frame loop",
        )
        trace_dir.mkdir(parents=True, exist_ok=True)
        recorder.write(trace_dir / f"{app}.spans.jsonl")
        (trace_dir / f"{app}.layers.json").write_text(
            json.dumps(
                {
                    "workload": app,
                    "seed": seed,
                    "loop_wall_ms": ledger.loop_wall_ns / 1e6,
                    "coverage": ledger.coverage(),
                    "frame_loop_coverage": frame_loop,
                    "layers": {layer: ledger.share(layer) for layer in LAYERS},
                    "metrics": metrics,
                    "spans": ledger.per_name(),
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )

    return {
        "workload": app,
        "seed": seed,
        "scale": scale_name,
        "seconds": seconds,
        "traced": recorder is not None,
        "metrics": metrics,
        "samples": {
            "setup_s": {
                "scaled": [t.scaled for t in setups],
                "measured": [t.seconds for t in setups],
                "calibration": [t.calibration for t in setups],
            },
            **run.pass_samples(),
        },
        "calls": {
            name: [[[t.seconds, t.calibration] for t in p] for p in passes]
            for name, passes in run.passes.items()
        },
        "quality": run.quality,
        "fleet_queues": run.fleet_queues,
        "digests": run.digests,
        "attempted": run.attempted,
        "failures": run.failures,
    }


def _layer_metrics(run: Run, ledger: Ledger) -> dict[str, float]:
    """The per-layer metrics of a traced run."""
    m: dict[str, float] = {f"{layer}.share": ledger.share(layer) for layer in LAYERS}
    # The untraced first pass's rates, as measured.
    ref = {name: s["measured"][0] for name, s in run.pass_samples().items()}
    tapes = run.inputs.tapes

    # The same, of the serial profile's frame loop alone.
    for layer in ("synthetic", "imaging"):
        m[layer + ".frame_loop_share"] = ledger.root_share(layer, "bench.profile_serial")
    m["synthetic.phantom_ms.mean"] = ledger.mean_ms("synthetic.phantom")
    for metric, span in (
        ("synthetic.frame_ms", "synthetic.frame"),
        ("imaging.process_ms", "imaging.process"),
        ("hw.simulate_ms", "hw.simulate_frame"),
    ):
        m[metric + ".p50"] = ledger.quantile_ms(span, 0.5)
        m[metric + ".p90"] = ledger.quantile_ms(span, 0.9)
        m[metric + ".n"] = ledger.n(span)
    # Only StentBoost runs these tasks; shares and counts, which read 0
    # for the other applications, stand in for times that would.
    for task, _, _ in IMAGING_TASKS:
        span = "imaging.task." + task
        m[span + ".calls"] = ledger.calls(span)
        m[span + ".share"] = ledger.name_share(span)

    m["profiling.add_frame_us.mean"] = ledger.mean_ms("profiling.add_frame") * 1e3
    m["profiling.save_ms"] = ledger.mean_ms("profiling.save")
    m["profiling.load_ms"] = ledger.mean_ms("profiling.load")
    m["profiling.trace_bytes"] = run.layer["profiling.trace_bytes"]

    m["parallel.jobs"] = run.jobs
    m["parallel.efficiency"] = run.pool_fps / (run.jobs * ref["profile_fps"])

    m["core.fit_ms"] = ledger.mean_ms("core.fit")
    for what in ("predict", "plausible", "observe"):
        m[f"core.{what}_us.mean"] = ledger.mean_ms("core." + what) * 1e3
    m["core.predict.calls"] = ledger.calls("core.predict")
    m["core.scenario_walk_ms"] = ledger.mean_ms("core.scenario_walk")

    m["runtime.record_tape_ms_per_frame"] = (
        run.inputs.record_s * 1e3 / sum(len(t) for t in tapes)
    )
    m["runtime.collect_costs_ms"] = ledger.mean_ms("runtime.collect_costs")
    m["runtime.plan_frames_ms"] = ledger.mean_ms("runtime.plan_frames")
    m["runtime.observe_frames_ms"] = ledger.mean_ms("runtime.observe_frames")
    m["runtime.fold_ms"] = ledger.self_ms("runtime.run_tape.batched")
    m["runtime.choose_robust_us.mean"] = ledger.mean_ms("runtime.choose_robust") * 1e3
    m["runtime.choose_robust.calls"] = ledger.calls("runtime.choose_robust")
    mean_tape_frames = sum(len(t) for t in tapes) / len(tapes)
    m["runtime.scalar_frame_us.mean"] = (
        ledger.self_ms("runtime.run_tape.scalar") * 1e3 / mean_tape_frames
    )

    m["obs.overhead_ratio"] = ref["engine_fps"] / ref["engine_obs_fps"]
    m["obs.spans"] = run.layer["obs.spans"]
    m["obs.dump_ms"] = ledger.mean_ms("obs.dump")

    m["fleet.select.share"] = ledger.name_share("fleet.select")
    m["fleet.select.calls"] = ledger.calls("fleet.select")
    m["fleet.estimate_us.mean"] = ledger.mean_ms("fleet.estimate") * 1e3
    m["fleet.estimate.calls"] = ledger.calls("fleet.estimate")
    m["fleet.admit.calls"] = ledger.calls("fleet.admit")
    m["fleet.estimator_build_ms"] = ledger.mean_ms("fleet.estimator_build")
    m["fleet.replay_convert_ms"] = ledger.mean_ms("fleet.replay_convert")
    for key in ("fleet.shed", "fleet.max_pending_depth", "fleet.replay_jobs"):
        m[key] = run.layer[key]
    m["fleet.replay_p99_wait_gain"] = run.quality["replay_p99_wait_gain"]

    m["trace.overhead_ratio"] = run.wall[True] / run.wall[False]
    m["trace.coverage"] = ledger.coverage()
    return m
