"""Measurement helpers shared by the worker and the workloads: spans,
percentiles, process facts, host-speed readings and fresh-interpreter
probes."""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np


def p50(values) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), 50))


def p90(values) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), 90))


# -- tracing ------------------------------------------------------------------


@dataclass
class Span:
    """One timed call: ``name`` is ``<module>.<call>``."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict[str, Any] = field(default_factory=dict)


class Tracer:
    """In-memory span recorder, written out once when the run ends.

    Disabled tracers record nothing and cost one attribute check per
    span, which is what the untraced passes use.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.enabled = False
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[int | None]:
        """Time the block; nested ``span`` calls become its children."""
        if not self.enabled:
            yield None
            return
        sid = self._new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, attrs))

    def record(self, name: str, start: float, end: float,
               parent: int | None, **attrs: Any) -> None:
        """Add a span timed by the caller (concurrent client requests,
        whose intervals overlap and so cannot share one stack)."""
        if self.enabled:
            self.spans.append(
                Span(self._new_id(), name, start, end, parent, attrs))

    def durations(self, name: str, **attrs: Any) -> list[float]:
        return [s.end - s.start for s in self.spans
                if s.name == name
                and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds.

        Self time is a span's duration minus the union of its
        children's intervals (children of one span may overlap).
        """
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            row = out.setdefault(s.name,
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += s.end - s.start
            row["self_s"] += s.end - s.start - covered
        return out

    def as_json(self) -> list[dict[str, Any]]:
        return [{"id": s.id, "name": s.name, "start": s.start,
                 "end": s.end, "parent": s.parent, "seed": self.seed,
                 **s.attrs} for s in self.spans]


# -- process facts ------------------------------------------------------------


def machine_fingerprint() -> dict[str, Any]:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


# -- host speed ---------------------------------------------------------------
#
# On a shared host each CPU is slowed by outside load in phases that last
# from seconds to tens of minutes, independently of the other CPU.  Two
# remedies, neither of them timed:
#
# * single-threaded work (the telemetry stream, a fresh interpreter's
#   set-up) runs on whichever CPU is calmest when it starts;
# * every timed stretch is bracketed by readings of a fixed reference
#   loop on the CPUs it used, and its times are scaled to a host where
#   that loop takes its nominal time.  A slow phase stretches the loop
#   and the work alike, so the scaled times hold still.

#: Steps of the reference loop's arithmetic and lookup parts.
REFERENCE_STEPS = 20_000

#: Elements of the reference loop's optional array part: 4 MB of
#: float64, past a core's L2, so that the loop also feels the
#: contention for the shared cache and memory that slows numpy work.
REFERENCE_ARRAY = 500_000

#: Seconds of the host that reported times are scaled to, for the loop
#: without and with its array part (about the median readings on a
#: 2-vCPU Xeon VM under CPython 3.11).
REFERENCE_S = 4.0e-3
REFERENCE_ARRAY_S = 6.0e-3

#: Loop repeats per reading; the median is the reading.
REFERENCE_REPEATS = 3

#: Largest share of the reading time the rest of the process group may
#: spend on a CPU; above it a program busy between calls would stretch
#: the readings and shrink its own reported times.
QUIET_SHARE = 0.3


def _group_cpu() -> dict[int, float]:
    """CPU seconds of each process in this process group; this
    process's count leaves out the calling thread."""
    pgrp = os.getpgrp()
    tick = os.sysconf("SC_CLK_TCK")
    out = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgrp:
            out[int(entry.name)] = (int(fields[11]) + int(fields[12])) / tick
    own = resource.getrusage(resource.RUSAGE_SELF)
    out[os.getpid()] = own.ru_utime + own.ru_stime - time.thread_time()
    return out


class HostClock:
    """Reference-loop readings, and a check that the program under test
    stayed idle while they were taken.

    The loop times integer arithmetic, then list and dict lookups over
    a few hundred KB, then, with ``array``, a pass over a 4 MB array.
    The first two parts track interpreter-bound work under outside
    load; the array part is for work that also leans on numpy, pool
    pipes and sockets, which outside load slows more.

    Args:
        array: Include the array part.
    """

    def __init__(self, array: bool) -> None:
        self.nominal_s = REFERENCE_ARRAY_S if array else REFERENCE_S
        self.reading_s = 0.0
        self.busy_s = 0.0
        self.readings: list[float] = []
        self._list = [float(i) for i in range(3 * REFERENCE_STEPS)]
        self._dict = {i: float(i) for i in range(REFERENCE_STEPS)}
        self._array = (np.arange(REFERENCE_ARRAY, dtype=float) if array
                       else None)
        self._scratch = np.empty_like(self._array) if array else None

    def _loop(self) -> float:
        table, lookup = self._list, self._dict
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_STEPS):
            total += i * i
        value = 0.0
        for i in range(0, len(table), 3):
            value += table[i] + lookup[i % REFERENCE_STEPS]
        if self._array is not None:
            np.multiply(self._array, 1.0001, out=self._scratch)
            self._scratch.sum()
        return time.perf_counter() - start

    def scaled(self, elapsed: float, readings: list[float]) -> float:
        """``elapsed`` as it would read on the reference host."""
        return elapsed * self.nominal_s / float(np.mean(readings))

    def reference_seconds(self) -> float:
        """Seconds the reference loop takes on the current CPU now."""
        return float(np.median([self._loop()
                                for _ in range(REFERENCE_REPEATS)]))

    def read(self, cpus: set[int]) -> dict[int, float]:
        """Reference seconds on each CPU of ``cpus``; this thread's CPU
        set is restored afterwards."""
        allowed = os.sched_getaffinity(0)
        used = _group_cpu()
        start = time.perf_counter()
        out = {}
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                out[cpu] = self.reference_seconds()
        finally:
            os.sched_setaffinity(0, allowed)
        self.reading_s += time.perf_counter() - start
        self.busy_s += sum(max(0.0, t - used.get(pid, 0.0))
                           for pid, t in _group_cpu().items())
        self.readings.extend(out.values())
        return out

    def mean(self, cpus: set[int]) -> float:
        """Mean reference seconds over ``cpus``."""
        return float(np.mean(list(self.read(cpus).values())))

    def pin_to_calmest(self, cpus: set[int]) -> float:
        """Pin this thread to the fastest CPU of ``cpus`` now and return
        its reading."""
        speeds = self.read(cpus)
        cpu = min(speeds, key=speeds.get)
        os.sched_setaffinity(0, {cpu})
        return speeds[cpu]

    @contextmanager
    def on_calmest_cpu(self) -> Iterator[list[float]]:
        """Run the block on the calmest CPU; processes it starts inherit
        the pin.  Yields the CPU's readings, taken before and after the
        block; the thread's CPU set is restored afterwards."""
        allowed = os.sched_getaffinity(0)
        readings = [self.pin_to_calmest(allowed)]
        try:
            yield readings
            readings.append(self.mean(os.sched_getaffinity(0)))
        finally:
            os.sched_setaffinity(0, allowed)

    def check_quiet(self) -> None:
        """Refuse readings the program under test competed with."""
        if self.busy_s > QUIET_SHARE * self.reading_s:
            raise RuntimeError(
                f"the program used {self.busy_s:.2f} CPU-s during "
                f"{self.reading_s:.2f} s of host-speed readings; the "
                f"readings would understate its times")


# -- fresh-interpreter probes -----------------------------------------------


def probe(clock: HostClock, args: list[str], *,
          python_flags: tuple[str, ...] = (),
          timeout: float = 60.0) -> tuple[float, dict]:
    """Run ``python -m psnbench.probe ARGS`` in a fresh interpreter.

    The probe runs on the calmest CPU.  Returns the wall time from
    spawn to the probe's ready line (the interpreter's own teardown is
    not counted), scaled to the reference host, and the JSON it printed,
    with the probe's stderr under ``"stderr"``.
    """
    cmd = [sys.executable, *python_flags, "-m", "psnbench.probe", *args]
    # stderr goes to a file: ``-X importtime`` writes more than a pipe
    # holds before the probe prints its ready line.
    with tempfile.TemporaryFile("w+") as errfile:
        with clock.on_calmest_cpu() as readings:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                    stderr=errfile, text=True)
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.communicate(timeout=timeout)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        errfile.seek(0)
        err = errfile.read()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"probe {args} failed: {err.strip()[-400:]}")
    info = json.loads(line)
    info["stderr"] = err
    return clock.scaled(elapsed, readings), info


def scipy_import_seconds(importtime_log: str) -> float:
    """Sum of scipy self times from ``python -X importtime`` output."""
    total_us = 0
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        if parts[2].strip().split(".")[0] == "scipy":
            total_us += int(parts[0])
    return total_us / 1e6
