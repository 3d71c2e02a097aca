"""Process-pool fan-out for independent per-sequence work.

The paper's whole premise is that groups of image-processing tasks
can be parallelized once their resource usage is predictable; the
reproduction's own *profiling and experiment* layer deserves the same
treatment.  Sequences are mutually independent and individually
seeded (``CorpusSpec.base_seed`` + index), so corpus-scale work --
profiling, held-out evaluation, benchmark sweeps -- is embarrassingly
parallel across sequences.

All process fan-out in the repository goes through
:func:`map_sequences`: one audited entry point whose inline
short-circuit at ``jobs=1`` keeps tests, coverage and debuggers
working on a single code path.
"""

from repro.parallel.pool import available_cpus, map_sequences, resolve_jobs

__all__ = ["available_cpus", "map_sequences", "resolve_jobs"]
