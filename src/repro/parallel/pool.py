"""The one sanctioned process-pool in the repository.

Design constraints, in order:

1. **Determinism.**  Results are returned in *input order* regardless
   of completion order, so callers that merge per-sequence outputs
   (``profile_corpus``) produce bit-identical aggregates versus their
   serial path.  Workers must therefore be pure functions of their
   pickled arguments -- which every profiling worker is, because all
   randomness flows through named RNG streams keyed by sequence id.
2. **Debuggability.**  ``jobs=1`` (or a single work item) runs inline
   in the calling process: no fork, no pickling, breakpoints and
   coverage behave.  This is also why tests default to the inline
   path unless they opt in.
3. **Auditability.**  No other module in ``src/repro`` constructs a
   ``concurrent.futures`` / ``multiprocessing`` executor, so the
   failure modes of process pools (pickling, inherited state, zombie
   workers) stay confined to this module.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Generic, Iterable, TypeVar

import repro.obs as obs

__all__ = ["available_cpus", "resolve_jobs", "map_sequences"]

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")

#: Environment variable overriding the default worker count.
JOBS_ENV_VAR = "REPRO_JOBS"


def available_cpus() -> int:
    """CPUs actually available to *this process* (>= 1).

    ``os.cpu_count()`` reports the machine; under a container quota,
    taskset, or cgroup cpuset the process may be confined to fewer
    cores, and sizing a pool past the affinity mask just adds context
    switching.  Prefers ``len(os.sched_getaffinity(0))`` where the
    platform provides it (Linux), falling back to ``os.cpu_count()``.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:  # pragma: no cover - affinity query denied
            pass
    return os.cpu_count() or 1


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve a ``jobs`` argument to a concrete worker count (>= 1).

    Resolution order:

    1. an explicit ``jobs`` argument (``0`` means "all available
       cores");
    2. the ``REPRO_JOBS`` environment variable, when set and nonempty
       (again ``0`` means "all available cores");
    3. :func:`available_cpus` (the scheduling-affinity count where the
       platform reports one, else ``os.cpu_count()``).

    A resolved count of 1 means "run inline, no pool".
    """
    if jobs is None:
        env = os.environ.get(JOBS_ENV_VAR, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError as exc:
                raise ValueError(
                    f"{JOBS_ENV_VAR}={env!r} is not an integer"
                ) from exc
        else:
            return available_cpus()
    jobs = int(jobs)
    if jobs == 0:
        return available_cpus()
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


class _ObsTask(Generic[_ItemT, _ResultT]):
    """Picklable worker wrapper that captures per-worker telemetry.

    Used only when the parent has observability enabled.  Under the
    ``fork`` start method a worker would inherit the parent's live
    tracer and mutate a *copy* of it (telemetry silently lost); this
    wrapper installs a fresh worker-local handle instead and ships the
    collected span records + metrics snapshot back with the result, so
    the parent can fold them into one coherent trace.
    """

    __slots__ = ("worker",)

    def __init__(self, worker: Callable[[_ItemT], _ResultT]) -> None:
        self.worker = worker

    def __call__(
        self, item: _ItemT
    ) -> tuple[_ResultT, list[dict[str, object]], dict[str, list[dict[str, object]]]]:
        with obs.observed() as o:
            result = self.worker(item)
            return result, o.tracer.records, o.metrics.snapshot()


def map_sequences(
    worker: Callable[[_ItemT], _ResultT],
    items: Iterable[_ItemT],
    jobs: int | None = None,
) -> list[_ResultT]:
    """Apply ``worker`` to every item, fanning out across processes.

    Parameters
    ----------
    worker:
        A *module-level* callable, or a :func:`functools.partial` of
        one (it is pickled when a pool is used).  Must be a pure
        function of its argument for the ordered merge to be
        reproducible.
    items:
        Work items; each must be picklable when a pool is used.
    jobs:
        Worker-count request, resolved via :func:`resolve_jobs`
        (``None`` -> ``REPRO_JOBS`` -> :func:`available_cpus`).

    Returns
    -------
    Results in the same order as ``items``, whatever order the workers
    finished in.  A resolved worker count of 1 -- or a single work
    item -- executes inline in the calling process.  A pool ships
    ``max(1, len(items) // (4 * jobs))`` items per round trip: at
    least four rounds per worker, amortizing dispatch overhead on
    fine-grained work while keeping the tail balanced; coarse work
    (fewer items than ``4 * jobs``) degrades to 1.
    """
    work = list(items)
    n_jobs = resolve_jobs(jobs)
    o = obs.get_obs()
    if n_jobs <= 1 or len(work) <= 1:
        # Inline: spans/metrics record straight into the live handle.
        with o.tracer.span("parallel.map") as sp:
            if o.enabled:
                sp.set(n_items=len(work), jobs=1)
            return [worker(item) for item in work]
    chunksize = max(1, len(work) // (4 * n_jobs))
    with o.tracer.span("parallel.map") as sp:
        if o.enabled:
            sp.set(
                n_items=len(work),
                jobs=min(n_jobs, len(work)),
                chunksize=chunksize,
            )
        with ProcessPoolExecutor(max_workers=min(n_jobs, len(work))) as pool:
            # Executor.map preserves input order by construction.
            if not o.enabled:
                return list(pool.map(worker, work, chunksize=chunksize))
            shipped = list(
                pool.map(_ObsTask(worker), work, chunksize=chunksize)
            )
        # Fold worker telemetry back in input order: merged traces and
        # counter sums are deterministic however the pool scheduled.
        results: list[_ResultT] = []
        for idx, (result, records, snapshot) in enumerate(shipped):
            o.tracer.merge(records, pool_item=idx)
            o.metrics.merge(snapshot)
            results.append(result)
        return results
