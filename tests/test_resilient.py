"""The fault-tolerant sweep runtime, exercised fault by fault.

Covers the resilient engine (retries, backoff determinism, failure
policies, crash recovery, per-task timeouts, the in-flight window),
the incremental cache persistence of the cached maps, cache
robustness under concurrent writers and torn entries, graceful
degradation on unwritable cache dirs, and the CLI plumbing of the
resilience flags.

Worker-kill and timeout tests use the seeded chaos primitives from
:mod:`repro.runtime.chaos`; everything is deterministic and bounded.
"""

from __future__ import annotations

import argparse
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    RetryExhaustedError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.runtime import (
    PROFILER,
    ChaosMonkey,
    KillOnceTask,
    MapOutcome,
    ResultCache,
    RetryPolicy,
    SleepyTask,
    cached_map,
    map_tasks,
    resilient_cached_map,
    resilient_map,
    resolve_cache,
    task_key,
)
from repro.runtime.chaos import enumerate_for
from repro.runtime.resilient import _jitter_fraction


# -- module-level task functions (picklable for the pool path) ---------------

def _square(x):
    return x * x


def _square_plus(x, arrays):
    return x * x + float(arrays["offset"][x])


def _always_fails(x):
    raise ValueError(f"boom {x}")


def _fails_for_two(x):
    if x == 2:
        raise ValueError("two is cursed")
    return x * 10


def _flaky(arg):
    """Fail once per marker, succeed on the retry."""
    marker, x = arg
    p = Path(marker)
    if not p.exists():
        p.touch()
        raise ValueError("first attempt fails")
    return x * x


def _race_put(arg):
    """Hammer one cache key from a separate process."""
    root, key, value, rounds = arg
    cache = ResultCache(root)
    for _ in range(rounds):
        cache.put(key, value)
    return value


# -- RetryPolicy -------------------------------------------------------------

def test_jitter_fraction_bounded_and_deterministic():
    for i in range(5):
        for a in range(1, 4):
            f = _jitter_fraction(i, a)
            assert 0.0 <= f < 1.0
            assert f == _jitter_fraction(i, a)
    assert _jitter_fraction(0, 1) != _jitter_fraction(1, 1)


def test_retry_policy_delay_is_deterministic_and_grows():
    p = RetryPolicy(retries=3, backoff_base=0.1)
    assert p.delay(2, 1) == p.delay(2, 1)
    assert p.delay(0, 2) > p.delay(0, 1)
    base2 = 0.1 * 2.0  # attempt 2
    assert base2 <= p.delay(0, 2) <= base2 * 1.5


def test_retry_policy_validation():
    with pytest.raises(ConfigurationError):
        RetryPolicy(retries=-1)
    with pytest.raises(ConfigurationError):
        RetryPolicy(task_timeout=0.0)
    with pytest.raises(ConfigurationError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ConfigurationError):
        RetryPolicy(jitter=-0.1)


# -- resilient_map: happy paths ----------------------------------------------

def test_resilient_map_matches_plain_map_serial_and_pool(tmp_path):
    items = list(range(8))
    expect = [x * x for x in items]
    serial = resilient_map(_square, items)
    pooled = resilient_map(_square, items, workers=2)
    assert serial.results == expect == pooled.results
    assert serial.ok and pooled.ok
    assert serial.stats.completed == len(items)

    offset = np.arange(len(items), dtype=float) / 3.0
    shared = {"offset": offset}
    expect_shared = [x * x + float(offset[x]) for x in items]
    keys = [task_key("square-plus", i) for i in items]
    for workers in (1, 2):
        out = resilient_map(_square_plus, items, workers=workers,
                            shared=shared)
        assert out.results == expect_shared
        assert map_tasks(_square_plus, items, workers=workers,
                         shared=shared) == expect_shared
        cache = ResultCache(tmp_path / f"c{workers}")
        cold = resilient_cached_map(_square_plus, items, keys=keys,
                                    cache=cache, workers=workers,
                                    shared=shared)
        warm = resilient_cached_map(_square_plus, items, keys=keys,
                                    cache=cache, workers=workers,
                                    shared=shared)
        assert cold.results == warm.results == expect_shared
        assert cold.stats.cache_misses == len(items)
        assert warm.stats.cache_hits == len(items)
        assert warm.stats.tasks == 0
        assert cached_map(_square_plus, items, keys=keys, cache=cache,
                          workers=workers, shared=shared) \
            == expect_shared


def test_pool_phase_recorded_with_retries():
    PROFILER.reset()
    PROFILER.enable()
    try:
        out = resilient_map(_square, range(4), workers=2, retries=1)
        snapshot = PROFILER.snapshot()
    finally:
        PROFILER.disable()
        PROFILER.reset()
    assert out.results == [0, 1, 4, 9]
    assert "runtime.pool" in snapshot


def test_resilient_map_empty_batch():
    out = resilient_map(_square, [])
    assert out.results == [] and out.ok


def test_serial_retry_recovers_flaky_task(tmp_path):
    items = [(str(tmp_path / f"m{i}"), i) for i in range(4)]
    out = resilient_map(_flaky, items, retries=1,
                        policy=RetryPolicy(retries=1, backoff_base=0.0))
    assert out.results == [0, 1, 4, 9]
    assert out.ok
    assert out.stats.retries == 4


def test_pool_retry_identical_to_serial(tmp_path):
    serial_items = [(str(tmp_path / f"s{i}"), i) for i in range(6)]
    pool_items = [(str(tmp_path / f"p{i}"), i) for i in range(6)]
    policy = RetryPolicy(retries=2, backoff_base=0.0)
    serial = resilient_map(_flaky, serial_items, policy=policy)
    pooled = resilient_map(_flaky, pool_items, workers=3, policy=policy)
    assert serial.results == pooled.results == [0, 1, 4, 9, 16, 25]


def test_on_result_streams_in_completion_order():
    seen = []
    out = resilient_map(_square, [1, 2, 3],
                        on_result=lambda i, v: seen.append((i, v)))
    assert out.ok
    assert sorted(seen) == [(0, 1), (1, 4), (2, 9)]


# -- failure policies ---------------------------------------------------------

def test_raise_without_retries_propagates_original_exception():
    with pytest.raises(ValueError, match="two is cursed"):
        resilient_map(_fails_for_two, [1, 2, 3])
    # The plain executor path behaves identically.
    with pytest.raises(ValueError, match="two is cursed"):
        map_tasks(_fails_for_two, [1, 2, 3])


@pytest.mark.parametrize("run", [map_tasks, resilient_map])
def test_pool_task_error_keeps_worker_traceback(run):
    with pytest.raises(ValueError, match="two is cursed") as info:
        run(_fails_for_two, [1, 2, 3], workers=2)
    assert "_fails_for_two" in str(info.value.__cause__)


def test_raise_with_retries_wraps_as_retry_exhausted():
    with pytest.raises(RetryExhaustedError) as info:
        resilient_map(_always_fails, [7],
                      policy=RetryPolicy(retries=2, backoff_base=0.0))
    assert isinstance(info.value.__cause__, ValueError)


def test_partial_policy_records_structured_failures():
    out = resilient_map(_fails_for_two, [1, 2, 3],
                        failure_policy="partial",
                        keys=["k1", "k2", "k3"])
    assert isinstance(out, MapOutcome)
    assert out.results == [10, None, 30]
    assert not out.ok
    (failure,) = out.failures
    assert failure.index == 1
    assert failure.kind == "error"
    assert failure.error_type == "ValueError"
    assert failure.attempts == 1
    assert failure.key == "k2"
    assert out.stats.failures == 1


def test_invalid_failure_policy_and_key_mismatch():
    with pytest.raises(ConfigurationError):
        resilient_map(_square, [1], failure_policy="ignore")
    with pytest.raises(ConfigurationError):
        resilient_map(_square, [1, 2], keys=["only-one"])


def test_map_tasks_partial_returns_outcome():
    out = map_tasks(_fails_for_two, [1, 2, 3], failure_policy="partial")
    assert isinstance(out, MapOutcome)
    assert out.results == [10, None, 30]


# -- worker crashes -----------------------------------------------------------

def test_crash_recovery_rebuilds_pool_and_completes(tmp_path):
    killer = KillOnceTask(fn=_square, kill_indices=frozenset({2}),
                          marker_dir=str(tmp_path))
    out = resilient_map(killer, enumerate_for(range(6)), workers=2,
                        policy=RetryPolicy(retries=2, backoff_base=0.0))
    assert out.results == [0, 1, 4, 9, 16, 25]
    assert out.stats.crashes >= 1
    assert out.stats.pool_rebuilds >= 1


def test_crash_charges_only_the_inflight_window(tmp_path):
    # With failures survivable, at most one task per worker is in
    # flight, so one worker death charges at most two attempts.
    killer = KillOnceTask(fn=_square, kill_indices=frozenset({2}),
                          marker_dir=str(tmp_path))
    out = resilient_map(killer, enumerate_for(range(6)), workers=2,
                        retries=1, failure_policy="partial")
    assert out.ok
    assert out.results == [0, 1, 4, 9, 16, 25]
    assert out.stats.crashes == 1
    assert out.stats.retries <= 2


def test_crash_without_retries_raises_worker_crash_error(tmp_path):
    killer = KillOnceTask(fn=_square, kill_indices=frozenset({0}),
                          marker_dir=str(tmp_path))
    with pytest.raises(WorkerCrashError):
        resilient_map(killer, enumerate_for(range(2)), workers=2)


# -- per-task timeouts --------------------------------------------------------

def test_timeout_partial_marks_stuck_task(tmp_path):
    sleepy = SleepyTask(fn=_square, stuck_indices=frozenset({1}),
                        marker_dir=str(tmp_path), sleep_s=60.0)
    out = resilient_map(sleepy, enumerate_for(range(3)), workers=2,
                        task_timeout=1.0, failure_policy="partial")
    assert out.results[0] == 0 and out.results[2] == 4
    assert out.results[1] is None
    (failure,) = out.failures
    assert failure.kind == "timeout" and failure.index == 1
    assert out.stats.timeouts == 1


def test_timeout_raise_path(tmp_path):
    sleepy = SleepyTask(fn=_square, stuck_indices=frozenset({0}),
                        marker_dir=str(tmp_path), sleep_s=60.0)
    with pytest.raises(TaskTimeoutError):
        resilient_map(sleepy, enumerate_for(range(1)), task_timeout=0.5)


def test_timeout_retry_succeeds_after_stall(tmp_path):
    # The stall is armed once: the retry completes within the deadline.
    sleepy = SleepyTask(fn=_square, stuck_indices=frozenset({0}),
                        marker_dir=str(tmp_path), sleep_s=60.0)
    out = resilient_map(sleepy, enumerate_for(range(2)), workers=2,
                        task_timeout=1.5,
                        policy=RetryPolicy(retries=1, task_timeout=1.5,
                                           backoff_base=0.0))
    assert out.results == [0, 1]
    assert out.stats.timeouts == 1


# -- incremental persistence (satellite: no all-or-nothing writes) -----------

def test_fast_path_cached_map_persists_completed_prefix(tmp_path):
    cache = ResultCache(tmp_path / "c")
    keys = [task_key("t", i) for i in range(4)]
    with pytest.raises(ValueError):
        cached_map(_fails_for_two, [0, 1, 2, 3], keys=keys, cache=cache)
    # Items before the failure were already persisted, not rolled back.
    assert cache.get(keys[0]) == (True, 0)
    assert cache.get(keys[1]) == (True, 10)
    assert cache.get(keys[2]) == (False, None)


def test_resilient_cached_map_persists_around_failures(tmp_path):
    cache = ResultCache(tmp_path / "c")
    keys = [task_key("t", i) for i in range(4)]
    out = resilient_cached_map(_fails_for_two, [0, 1, 2, 3], keys=keys,
                               cache=cache, failure_policy="partial")
    assert out.results == [0, 10, None, 30]
    assert len(cache.entries()) == 3
    # Warm rerun: the survivors come from disk, only the failure
    # is recomputed.
    cache2 = ResultCache(cache.root)
    out2 = resilient_cached_map(_fails_for_two, [0, 1, 2, 3], keys=keys,
                                cache=cache2, failure_policy="partial")
    assert out2.stats.cache_hits == 3
    assert out2.stats.cache_misses == 1


def test_resilient_cached_map_warm_run_computes_nothing(tmp_path):
    cache = ResultCache(tmp_path / "c")
    keys = [task_key("t", i) for i in range(5)]
    resilient_cached_map(_square, range(5), keys=keys, cache=cache)
    warm = ResultCache(cache.root)
    out = resilient_cached_map(_square, range(5), keys=keys, cache=warm)
    assert out.results == [0, 1, 4, 9, 16]
    assert out.stats.cache_hits == 5
    assert out.stats.tasks == 0


# -- concurrent writers and torn entries (satellite) -------------------------

def test_concurrent_processes_racing_same_key_never_tear(tmp_path):
    root = str(tmp_path / "c")
    key = task_key("race", 1)
    with ProcessPoolExecutor(max_workers=2) as pool:
        list(pool.map(_race_put, [
            (root, key, "aaaa" * 100, 50),
            (root, key, "bbbb" * 100, 50),
        ]))
    cache = ResultCache(root)
    hit, value = cache.get(key)
    assert hit
    # Atomic replace: whichever writer won, the entry is whole.
    assert value in ("aaaa" * 100, "bbbb" * 100)
    assert cache.errors == 0


def test_truncated_mid_write_entry_recovers(tmp_path):
    cache = ResultCache(tmp_path / "c")
    key = task_key("torn", 1)
    cache.put(key, list(range(100)))
    path = cache.entries()[0]
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])  # killed writer
    hit, _ = cache.get(key)
    assert not hit
    assert cache.errors == 1
    assert not path.exists()  # the torn file was discarded
    cache.put(key, list(range(100)))  # heals
    assert cache.get(key) == (True, list(range(100)))


@pytest.mark.parametrize("mode", ChaosMonkey.CORRUPTION_MODES)
def test_every_corruption_mode_reads_as_miss(tmp_path, mode):
    cache = ResultCache(tmp_path / "c")
    key = task_key("vandal", mode)
    cache.put(key, {"mode": mode})
    ChaosMonkey(7).corrupt_cache(cache, n_entries=1, mode=mode)
    hit, _ = cache.get(key)
    assert not hit and cache.errors == 1


def test_chaos_monkey_is_seeded_and_validates(tmp_path):
    assert ChaosMonkey(5).pick(10, 3) == ChaosMonkey(5).pick(10, 3)
    with pytest.raises(ConfigurationError):
        ChaosMonkey().pick(3, 4)
    cache = ResultCache(tmp_path / "c")
    with pytest.raises(ConfigurationError):
        ChaosMonkey().corrupt_cache(cache, n_entries=1)
    cache.put(task_key("x"), 1)
    with pytest.raises(ConfigurationError):
        ChaosMonkey().corrupt_cache(cache, mode="nuke")


# -- unusable cache dirs (satellite: degrade, don't crash) -------------------

def _unusable_dir(tmp_path) -> Path:
    """A path that can never become a directory (nested under a file).

    Permission bits are useless here (the suite may run as root), so
    unusability is simulated structurally.
    """
    blocker = tmp_path / "blocker"
    blocker.write_text("in the way")
    return blocker / "sub"


def test_put_disables_itself_on_unwritable_dir(tmp_path):
    cache = ResultCache(_unusable_dir(tmp_path))
    with pytest.warns(RuntimeWarning, match="not writable"):
        cache.put(task_key("k"), 123)
    assert cache.disabled
    assert cache.errors == 1
    cache.put(task_key("k2"), 456)  # no second warning, no crash
    assert cache.stats()["disabled"] is True


def test_resolve_cache_strict_false_falls_back_to_uncached(tmp_path):
    bad = _unusable_dir(tmp_path)
    with pytest.warns(RuntimeWarning, match="running uncached"):
        assert resolve_cache(bad, strict=False) is None
    with pytest.raises(OSError):
        resolve_cache(bad, strict=True).check_usable()
    # A usable dir passes through either way.
    good = tmp_path / "good"
    assert resolve_cache(good, strict=False).root == good


def test_sweep_survives_unwritable_cache(tmp_path):
    cache = ResultCache(_unusable_dir(tmp_path))
    keys = [task_key("t", i) for i in range(3)]
    with pytest.warns(RuntimeWarning):
        results = cached_map(_square, range(3), keys=keys, cache=cache)
    assert results == [0, 1, 4]


# -- CLI plumbing -------------------------------------------------------------

def test_runtime_kwargs_carry_resilience_flags():
    from repro.cli import _runtime_kwargs

    ns = argparse.Namespace(workers=3, cache_dir=None, retries=2,
                            task_timeout=1.5, failure_policy="partial")
    kw = _runtime_kwargs(ns)
    assert kw["workers"] == 3
    assert kw["retries"] == 2
    assert kw["task_timeout"] == 1.5
    assert kw["failure_policy"] == "partial"


def test_cli_accepts_resilience_flags(capsys):
    from repro.cli import main

    assert main(["fig5", "--codes", "3", "--retries", "1",
                 "--task-timeout", "30", "--failure-policy",
                 "partial"]) == 0
    assert "delay code 011" in capsys.readouterr().out


def test_cli_unusable_cache_dir_degrades(tmp_path, capsys):
    from repro.cli import main

    bad = _unusable_dir(tmp_path)
    with pytest.warns(RuntimeWarning, match="running uncached"):
        assert main(["fig5", "--codes", "3",
                     "--cache-dir", str(bad)]) == 0


# -- characterization / yield plumbing ---------------------------------------

def test_characterize_partial_masks_failed_bits(design, monkeypatch):
    """A bit whose bisection keeps failing is masked, not fatal."""
    import repro.core.characterization as ch

    real = ch._sim_threshold_task

    def sabotaged(spec):
        if spec[1] == 3:  # bit 3 always fails
            raise ValueError("injected bisection failure")
        return real(spec)

    monkeypatch.setattr(ch, "_sim_threshold_task", sabotaged)
    out = ch.characterize_array(
        design, codes=(3,), method="sim", tol=5e-3,
        failure_policy="partial",
    )
    char = out[3]
    assert char.masked_bits == (3,)
    assert len(char.thresholds) == design.n_bits - 1
    assert all(b > a for a, b in zip(char.thresholds,
                                     char.thresholds[1:]))


def test_outcome_pickles():
    out = resilient_map(_fails_for_two, [1, 2], failure_policy="partial")
    clone = pickle.loads(pickle.dumps(out))
    assert clone.results == out.results
    assert clone.failures == out.failures
