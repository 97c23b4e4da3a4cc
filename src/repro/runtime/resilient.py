"""The execution engine: serial or pooled, with retries, timeouts and
crash recovery.

Every sweep in the repo runs here; :func:`map_tasks
<repro.runtime.executor.map_tasks>` and :func:`cached_map
<repro.runtime.executor.cached_map>` are thin adapters over
:func:`resilient_map` / :func:`resilient_cached_map`.  Results land in
input order whatever the completion order, so a pooled sweep is
bit-identical to the serial one.  The paper pitches the sensor as
infrastructure deployed "on a systematic basis ... as scan chains are
for fault verification"; an infrastructure runtime has to survive the
faults its own payload can detect:

* **Bounded retries with deterministic backoff.**  A failed attempt is
  retried up to ``retries`` times.  The backoff grows exponentially and
  carries *deterministic* jitter — a hash of (task index, attempt), so
  two runs of the same sweep sleep the same schedule and stay
  reproducible (no wall-clock or global RNG in the control path).
* **Worker-crash recovery.**  A killed worker (OOM, SIGKILL, segfault)
  breaks the whole :class:`~concurrent.futures.ProcessPoolExecutor`.
  The engine rebuilds the pool and resubmits only the unfinished tasks.
  Since the pool cannot attribute the crash, every in-flight task is
  charged one attempt — documented, bounded, and honest.
* **Per-task timeouts.**  A task past its deadline is presumed stuck;
  its pool is torn down (stuck workers are killed), innocent in-flight
  tasks are resubmitted *without* an attempt charge, and the stuck task
  is retried or failed.  Timeouts require the pool path: with
  ``workers<=1`` and a timeout set, a single-worker pool is used so the
  deadline is enforceable.
* **Failure policy.**  ``"raise"`` (default) propagates the first
  unrecoverable failure as a member of the
  :class:`~repro.errors.ReproError` hierarchy
  (:class:`~repro.errors.WorkerCrashError`,
  :class:`~repro.errors.TaskTimeoutError`,
  :class:`~repro.errors.RetryExhaustedError` — or the task's original
  exception when no retries were configured).  ``"partial"`` completes
  the sweep: failed slots are ``None`` in the results and every failure
  is recorded as a structured :class:`TaskFailure`.
* **Incremental persistence.**  :func:`resilient_cached_map` calls
  ``store.put()`` the moment each task completes, so a crash mid-sweep
  keeps all completed work on disk for the next run.

Task exceptions never break the pool: the worker-side guard returns
``("ok", value)`` or ``("err", exc, traceback)`` so only a genuine
process death produces ``BrokenProcessPool``.  The worker's traceback
text is chained as the exception's ``__cause__``, as
``ProcessPoolExecutor.map`` does.

In-flight tasks are limited to one per worker wherever a failure is
survivable (retries, a deadline, or ``"partial"``): a crash charges
every in-flight task an attempt, and a deadline must measure run time,
not queueing.  When any failure aborts the sweep anyway, every task is
queued up front so workers never idle between tasks.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import pickle
import queue
import time
import traceback
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool, _RemoteTraceback
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Literal, Mapping, Sequence

from repro.errors import (
    ConfigurationError,
    RetryExhaustedError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.runtime.cache import resolve_cache
from repro.runtime.profiling import PROFILER
from repro.runtime.shm import SharedArrayPool, SharedTask, _readonly_views

FailurePolicy = Literal["raise", "partial"]

FAILURE_POLICIES = ("raise", "partial")


# -- policy --------------------------------------------------------------------


def _jitter_fraction(index: int, attempt: int) -> float:
    """Deterministic pseudo-random fraction in [0, 1) per (task, attempt)."""
    digest = hashlib.sha256(f"retry:{index}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/timeout budget for one resilient run.

    Attributes:
        retries: Extra attempts allowed per task beyond the first.
        task_timeout: Per-task wall-clock budget, seconds (``None``
            disables deadlines).
        backoff_base: Sleep before the first retry, seconds.
        backoff_factor: Multiplier per subsequent retry (exponential).
        jitter: Max extra sleep as a fraction of the backoff, drawn
            deterministically from the (task index, attempt) hash.
    """

    retries: int = 0
    task_timeout: float | None = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ConfigurationError("task_timeout must be positive")
        if self.backoff_base < 0 or self.backoff_factor < 1 \
                or self.jitter < 0:
            raise ConfigurationError(
                "backoff_base >= 0, backoff_factor >= 1 and jitter >= 0 "
                "required"
            )

    def delay(self, index: int, attempt: int) -> float:
        """Backoff before retrying task ``index`` after attempt
        ``attempt`` (1-based) failed.  Deterministic: same (index,
        attempt) always sleeps the same duration."""
        base = self.backoff_base * self.backoff_factor ** (attempt - 1)
        return base * (1.0 + self.jitter * _jitter_fraction(index, attempt))


# -- outcome records -----------------------------------------------------------


@dataclass(frozen=True)
class TaskFailure:
    """One task that could not be completed.

    Attributes:
        index: Position of the task in the submitted batch.
        attempts: Attempts consumed (including the first).
        kind: ``"error"`` (task raised), ``"timeout"`` (deadline
            passed) or ``"crash"`` (worker process died).
        error_type: Exception class name of the final cause.
        message: Final cause rendered as text.
        key: The task's cache key, when the batch was memoized.
    """

    index: int
    attempts: int
    kind: str
    error_type: str
    message: str
    key: str | None = None


@dataclass
class RunStats:
    """Counters of one resilient run (the runtime's observability).

    Attributes:
        tasks: Tasks in the batch (cache hits excluded).
        completed: Tasks that produced a result.
        retries: Resubmissions due to failures.
        crashes: Pool-breaking worker deaths observed.
        timeouts: Deadline expiries observed.
        pool_rebuilds: Fresh pools built after a crash or timeout.
        failures: Tasks abandoned after exhausting their budget.
        cache_hits / cache_misses: Memoization counters of this call
            (only populated by :func:`resilient_cached_map`).
    """

    tasks: int = 0
    completed: int = 0
    retries: int = 0
    crashes: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    failures: int = 0
    cache_hits: int = 0
    cache_misses: int = 0


@dataclass(frozen=True)
class MapOutcome:
    """Results of a resilient map under ``failure_policy="partial"``.

    Attributes:
        results: One slot per input item, in input order; ``None``
            where the task failed (see ``failures``).
        failures: Structured records of the abandoned tasks.
        stats: The run's counters.
    """

    results: list
    failures: tuple[TaskFailure, ...]
    stats: RunStats

    @property
    def ok(self) -> bool:
        """True when every task completed (or was served from cache)."""
        return not self.failures


# -- worker-side guard ---------------------------------------------------------


def _guarded(payload: tuple[Callable[[Any], Any], Any]) -> tuple:
    """Run one task; return a tagged outcome instead of raising.

    Keeps task exceptions from being conflated with worker crashes:
    only a genuine process death can now break the pool.
    """
    fn, item = payload
    try:
        return ("ok", fn(item))
    except Exception as exc:
        try:
            pickle.dumps(exc)
        except Exception:
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        return ("err", exc, traceback.format_exc())


# -- the engine ----------------------------------------------------------------


@dataclass
class _Slot:
    """Mutable in-flight state of one task."""

    index: int
    item: Any
    attempts: int = 0
    deadline: float | None = field(default=None, compare=False)


_ERROR_BY_KIND = {
    "error": RetryExhaustedError,
    "timeout": TaskTimeoutError,
    "crash": WorkerCrashError,
}


class _Run:
    """One resilient execution over a batch of (index, item) slots."""

    def __init__(self, fn: Callable[[Any], Any], slots: list[_Slot], *,
                 workers: int, policy: RetryPolicy,
                 failure_policy: FailurePolicy,
                 keys: Sequence[str] | None,
                 on_ok: Callable[[int, Any], None],
                 stats: RunStats) -> None:
        if failure_policy not in FAILURE_POLICIES:
            raise ConfigurationError(
                f"failure_policy must be one of {FAILURE_POLICIES}, "
                f"got {failure_policy!r}"
            )
        self.fn = fn
        self.slots = slots
        self.workers = workers
        self.policy = policy
        self.failure_policy = failure_policy
        self.keys = keys
        self.on_ok = on_ok
        self.stats = stats
        self.failures: list[TaskFailure] = []

    # -- shared failure accounting ----------------------------------------

    def _conclude_failure(self, slot: _Slot, kind: str,
                          cause: BaseException | None,
                          message: str) -> bool:
        """Charge one attempt; return True when the task must retry.

        When the budget is exhausted: record a :class:`TaskFailure`
        (partial) or raise the mapped :class:`ReproError` (raise).
        """
        slot.attempts += 1
        if kind == "timeout":
            self.stats.timeouts += 1
        if slot.attempts <= self.policy.retries:
            self.stats.retries += 1
            return True
        failure = TaskFailure(
            index=slot.index,
            attempts=slot.attempts,
            kind=kind,
            error_type=(type(cause).__name__ if cause is not None
                        else kind),
            message=message,
            key=(self.keys[slot.index] if self.keys is not None
                 else None),
        )
        self.failures.append(failure)
        self.stats.failures += 1
        if self.failure_policy == "raise":
            if kind == "error" and self.policy.retries == 0 \
                    and cause is not None:
                # No retries were configured: propagate the task's own
                # exception, exactly as the plain executor would.
                raise cause
            err = _ERROR_BY_KIND[kind](
                f"task {slot.index} abandoned after {slot.attempts} "
                f"attempt(s): {message}"
            )
            if cause is not None:
                raise err from cause
            raise err
        return False

    # -- serial path -------------------------------------------------------

    def run_serial(self) -> None:
        for slot in self.slots:
            while True:
                try:
                    value = self.fn(slot.item)
                except Exception as exc:
                    if self._conclude_failure(slot, "error", exc,
                                              f"{exc}"):
                        time.sleep(self.policy.delay(slot.index,
                                                     slot.attempts))
                        continue
                    break
                self.stats.completed += 1
                self.on_ok(slot.index, value)
                break

    # -- pool path ---------------------------------------------------------

    def run_pool(self) -> None:
        n = max(1, self.workers)
        timed = self.policy.task_timeout is not None
        # In-flight window: see the module docstring.
        survivable = (self.policy.retries > 0 or timed
                      or self.failure_policy == "partial")
        window = n if survivable else len(self.slots)
        pool = ProcessPoolExecutor(max_workers=n)
        ready: deque[_Slot] = deque(self.slots)
        delayed: list[tuple[float, int, _Slot]] = []
        tie = itertools.count()
        inflight: dict = {}
        # Futures post themselves here on completion, so each result
        # costs O(1) to collect however many tasks are queued.
        finished: queue.SimpleQueue = queue.SimpleQueue()
        try:
            while ready or delayed or inflight:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    ready.append(heapq.heappop(delayed)[2])
                while ready and len(inflight) < window:
                    slot = ready.popleft()
                    fut = pool.submit(_guarded, (self.fn, slot.item))
                    slot.deadline = (now + self.policy.task_timeout
                                     if timed else None)
                    inflight[fut] = slot
                    fut.add_done_callback(finished.put)
                if not inflight:
                    if delayed:
                        time.sleep(max(0.0,
                                       delayed[0][0] - time.monotonic()))
                    continue

                horizon = ([s.deadline for s in inflight.values()]
                           if timed else [])
                if delayed:
                    horizon.append(delayed[0][0])
                timeout = (max(0.0, min(horizon) - time.monotonic())
                           if horizon else None)
                done = _drain(finished, timeout)

                crashed = False
                for fut in done:
                    # Futures of a torn-down pool were already charged.
                    slot = inflight.pop(fut, None)
                    if slot is None:
                        continue
                    try:
                        tag = fut.result()
                    except BrokenProcessPool:
                        crashed = True
                        self._retry_or_fail(
                            slot, delayed, tie, "crash", None,
                            "worker process died mid-task",
                        )
                        continue
                    except Exception as exc:
                        # Result transfer failed (e.g. unpicklable
                        # value): a task error, not a crash.
                        self._retry_or_fail(slot, delayed, tie, "error",
                                            exc, f"{exc}")
                        continue
                    if tag[0] == "ok":
                        self.stats.completed += 1
                        self.on_ok(slot.index, tag[1])
                    else:
                        _, exc, tb = tag
                        exc.__cause__ = _RemoteTraceback(f'\n"""\n{tb}"""')
                        self._retry_or_fail(slot, delayed, tie, "error",
                                            exc, f"{exc}")

                if crashed:
                    # Every sibling future is broken too; charge each
                    # in-flight task one attempt (the culprit cannot be
                    # identified) and rebuild the pool.
                    self.stats.crashes += 1
                    for fut in list(inflight):
                        slot = inflight.pop(fut)
                        self._retry_or_fail(
                            slot, delayed, tie, "crash", None,
                            "worker pool broke while task in flight",
                        )
                    pool = self._rebuild(pool, n)
                    continue

                if not timed:
                    continue
                now = time.monotonic()
                expired = [(fut, slot) for fut, slot in inflight.items()
                           if slot.deadline <= now and not fut.done()]
                if expired:
                    for fut, slot in expired:
                        inflight.pop(fut)
                        self._retry_or_fail(
                            slot, delayed, tie, "timeout", None,
                            f"exceeded task_timeout="
                            f"{self.policy.task_timeout}s",
                        )
                    # The stuck workers must die with the pool; tasks
                    # that were merely sharing it are requeued with no
                    # attempt charge (their work is recomputed).
                    for fut in list(inflight):
                        ready.appendleft(inflight.pop(fut))
                    pool = self._rebuild(pool, n)
        except BaseException:
            _kill_pool(pool)
            raise
        pool.shutdown(wait=True)

    def _retry_or_fail(self, slot: _Slot, delayed: list, tie,
                       kind: str, cause: BaseException | None,
                       message: str) -> None:
        if self._conclude_failure(slot, kind, cause, message):
            not_before = (time.monotonic()
                          + self.policy.delay(slot.index, slot.attempts))
            heapq.heappush(delayed, (not_before, next(tie), slot))

    def _rebuild(self, pool: ProcessPoolExecutor,
                 n: int) -> ProcessPoolExecutor:
        self.stats.pool_rebuilds += 1
        _kill_pool(pool)
        return ProcessPoolExecutor(max_workers=n)


def _drain(finished: queue.SimpleQueue, timeout: float | None) -> list:
    """Every future posted to ``finished``, waiting up to ``timeout``
    seconds (``None``: indefinitely) for the first one."""
    try:
        done = [finished.get(timeout=timeout)]
    except queue.Empty:
        return []
    while True:
        try:
            done.append(finished.get_nowait())
        except queue.Empty:
            return done


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down hard: stuck workers are killed, not joined."""
    procs = list(getattr(pool, "_processes", None) or {})
    processes = getattr(pool, "_processes", None) or {}
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for pid in procs:
        proc = processes.get(pid)
        if proc is None:
            continue
        try:
            proc.kill()
        except Exception:
            pass


# -- public API ----------------------------------------------------------------


def _execute(run: _Run, shared: "Mapping[str, Any] | None") -> None:
    """Drive one prepared :class:`_Run`, optionally with broadcast
    arrays riding shared memory (pool) or read-only views (serial).

    The shared blocks outlive pool rebuilds — they belong to the
    parent, so after a worker crash the rebuilt pool's fresh workers
    simply re-attach by name and the campaign continues.
    """
    fn = run.fn
    n = min(run.workers, len(run.slots))
    if n <= 1 and run.policy.task_timeout is None:
        if shared is not None:
            arrays = _readonly_views(shared)
            run.fn = lambda item: fn(item, arrays)
        run.run_serial()
        return
    run.workers = n
    if shared is None:
        with PROFILER.measure("runtime.pool"):
            run.run_pool()
        return
    with SharedArrayPool(shared) as shm_pool:
        run.fn = SharedTask(fn, shm_pool.handles)
        shm_pool.charge_tasks(len(run.slots))
        with PROFILER.measure("runtime.pool"):
            run.run_pool()


def _map_pending(fn: Callable[..., Any], pending: list[tuple[int, Any]],
                 results: list[Any], stats: RunStats, *,
                 workers: int | None, retries: int,
                 task_timeout: float | None, policy: RetryPolicy | None,
                 failure_policy: FailurePolicy,
                 keys: Sequence[str] | None,
                 on_result: Callable[[int, Any], None] | None,
                 shared: "Mapping[str, Any] | None") -> MapOutcome:
    """Run the ``(index, item)`` tasks in ``pending``, filling their
    slots of ``results``; the common tail of both public maps."""
    # Imported here: the executor module imports this one at load time.
    from repro.runtime.executor import resolve_workers

    if policy is None:
        policy = RetryPolicy(retries=retries, task_timeout=task_timeout)

    def on_ok(index: int, value: Any) -> None:
        results[index] = value
        if on_result is not None:
            on_result(index, value)

    run = _Run(fn, [_Slot(index=i, item=item) for i, item in pending],
               workers=resolve_workers(workers), policy=policy,
               failure_policy=failure_policy, keys=keys, on_ok=on_ok,
               stats=stats)
    if run.slots:
        _execute(run, shared)
    return MapOutcome(results=results, failures=tuple(run.failures),
                      stats=stats)


def resilient_map(fn: Callable[[Any], Any], items: Iterable[Any], *,
                  workers: int | None = None,
                  retries: int = 0,
                  task_timeout: float | None = None,
                  policy: RetryPolicy | None = None,
                  failure_policy: FailurePolicy = "raise",
                  keys: Sequence[str] | None = None,
                  on_result: Callable[[int, Any], None] | None = None,
                  shared: "Mapping[str, Any] | None" = None
                  ) -> MapOutcome:
    """Fault-tolerant ``[fn(x) for x in items]``.

    Args:
        fn: Module-level pure function of one task payload (must be
            picklable for the pool path).
        items: Task payloads.
        workers: Pool size (<= 1: serial — unless a timeout forces a
            single-worker pool so the deadline is enforceable).
        retries / task_timeout: Shorthand for ``policy``.
        policy: Full :class:`RetryPolicy` (overrides the shorthands).
        failure_policy: ``"raise"`` (first unrecoverable failure
            aborts) or ``"partial"`` (failed slots are ``None`` and
            recorded in :attr:`MapOutcome.failures`).
        keys: Optional per-task labels copied into failure records.
        on_result: Streaming callback ``(index, value)`` invoked the
            moment each task completes (completion order).
        shared: Named read-only broadcast arrays (see
            :mod:`repro.runtime.shm`); tasks are then called as
            ``fn(payload, arrays)``.

    Returns:
        A :class:`MapOutcome` — under ``"raise"`` its ``failures`` is
        always empty (a failure would have raised instead).
    """
    payloads = list(items)
    if keys is not None and len(keys) != len(payloads):
        raise ConfigurationError(
            f"got {len(keys)} keys for {len(payloads)} items"
        )
    return _map_pending(
        fn, list(enumerate(payloads)), [None] * len(payloads),
        RunStats(tasks=len(payloads)), workers=workers, retries=retries,
        task_timeout=task_timeout, policy=policy,
        failure_policy=failure_policy, keys=keys, on_result=on_result,
        shared=shared,
    )


def resilient_cached_map(fn: Callable[[Any], Any],
                         items: Iterable[Any], *,
                         keys: Sequence[str] | None = None,
                         cache: Any = None,
                         workers: int | None = None,
                         retries: int = 0,
                         task_timeout: float | None = None,
                         policy: RetryPolicy | None = None,
                         failure_policy: FailurePolicy = "raise",
                         shared: "Mapping[str, Any] | None" = None
                         ) -> MapOutcome:
    """:func:`resilient_map` with per-item memoization and
    *incremental* persistence: every completed task is ``store.put()``
    the moment it arrives, so a crash mid-sweep keeps all completed
    work on disk.

    Cache lookups happen up front in the parent process (hit/miss
    counters stay authoritative); only the misses enter the engine.
    ``keys=None`` or ``cache=None`` disables memoization.
    """
    store = resolve_cache(cache)
    payloads = list(items)
    if store is None or keys is None:
        return resilient_map(fn, payloads, workers=workers,
                             retries=retries, task_timeout=task_timeout,
                             policy=policy,
                             failure_policy=failure_policy, keys=keys,
                             shared=shared)
    if len(keys) != len(payloads):
        raise ConfigurationError(
            f"got {len(keys)} cache keys for {len(payloads)} items"
        )
    results: list[Any] = [None] * len(payloads)
    pending: list[tuple[int, Any]] = []
    for i, (item, key) in enumerate(zip(payloads, keys)):
        hit, value = store.get(key)
        if hit:
            results[i] = value
        else:
            pending.append((i, item))
    stats = RunStats(tasks=len(pending),
                     cache_hits=len(payloads) - len(pending),
                     cache_misses=len(pending))
    return _map_pending(
        fn, pending, results, stats, workers=workers, retries=retries,
        task_timeout=task_timeout, policy=policy,
        failure_policy=failure_policy, keys=keys,
        on_result=lambda i, value: store.put(keys[i], value),
        shared=shared,
    )
