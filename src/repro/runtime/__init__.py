"""repro.runtime — parallel execution and on-disk memoization.

Characterization is embarrassingly parallel: per-bit threshold
bisections are independent across (bit, delay code) pairs, Monte-Carlo
yield studies are independent across sampled dies, and tester-style
S-curve extraction is independent across stages.  This package supplies
the pieces every such sweep needs:

* :mod:`repro.runtime.resilient` — the one execution engine.  It runs
  a batch serially or across a process pool, lands results in input
  order (so a parallel sweep is *bit-identical* to the serial loop)
  and adds bounded retries with deterministic backoff, per-task
  timeouts, worker-crash recovery (pool rebuild + resubmission of
  unfinished tasks), incremental result persistence and a
  ``raise``/``partial`` failure policy with structured
  :class:`~repro.runtime.resilient.TaskFailure` records;
* :mod:`repro.runtime.executor` — :func:`map_tasks` and
  :func:`cached_map`, thin adapters over the engine that return a
  plain list, plus the ``workers=`` / ``$REPRO_WORKERS`` resolution;
* :mod:`repro.runtime.cache` — an on-disk memoization cache
  (:class:`ResultCache`) keyed by a stable content hash of the inputs
  (design, corner technology, delay code, bisection tolerances), with
  hit/miss/error counters and graceful recovery from corrupt entries;
* :mod:`repro.runtime.chaos` — seeded fault injection (worker kills,
  cache corruption, stuck tasks) for end-to-end resilience drills;
* :mod:`repro.runtime.shm` — zero-copy broadcast of large read-only
  arrays (draw cubes, threshold grids, LTI operators) to pool workers
  via POSIX shared memory: registered once per pool, handles instead
  of pickles, with a per-array inline fallback that keeps the bytes
  identical when shared memory is unavailable (``$REPRO_SHM=0``).

Everything above it (``repro.core.characterization``,
``repro.analysis.yield_study``, ``repro.analysis.repeatability``, the
benches and the CLI) takes ``workers=`` / ``cache=`` keyword arguments
that default to serial, uncached behavior, plus ``retries=`` /
``task_timeout=`` / ``failure_policy=`` resilience options that
default to fail-fast.

This module sits *below* ``repro.core``/``repro.analysis`` in the layer
diagram: it may import only the error types and the standard library,
so any layer can use it without cycles.
"""

from repro.runtime.cache import (
    ResultCache,
    default_cache_dir,
    design_fingerprint,
    resolve_cache,
    stable_hash,
    task_key,
)
from repro.runtime.chaos import ChaosMonkey, KillOnceTask, SleepyTask
from repro.runtime.profiling import PROFILER, PhaseProfiler, PhaseStat, phase
from repro.runtime.executor import (
    cached_map,
    env_workers,
    map_tasks,
    resolve_workers,
)
from repro.runtime.resilient import (
    MapOutcome,
    RetryPolicy,
    RunStats,
    TaskFailure,
    resilient_cached_map,
    resilient_map,
)
from repro.runtime.shm import (
    SHM_ENV,
    SharedArrayHandle,
    SharedArrayPool,
    SharedTask,
    resolve_handle,
    shm_counters,
    shm_enabled,
)

__all__ = [
    "ChaosMonkey",
    "KillOnceTask",
    "MapOutcome",
    "PROFILER",
    "PhaseProfiler",
    "PhaseStat",
    "ResultCache",
    "SHM_ENV",
    "SharedArrayHandle",
    "SharedArrayPool",
    "SharedTask",
    "phase",
    "RetryPolicy",
    "RunStats",
    "SleepyTask",
    "TaskFailure",
    "cached_map",
    "default_cache_dir",
    "design_fingerprint",
    "env_workers",
    "map_tasks",
    "resilient_cached_map",
    "resilient_map",
    "resolve_cache",
    "resolve_handle",
    "resolve_workers",
    "shm_counters",
    "shm_enabled",
    "stable_hash",
    "task_key",
]
