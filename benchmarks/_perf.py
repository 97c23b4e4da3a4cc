"""Perf-regression measurement helpers.

The scientific benches (``bench_fig*.py``) time whole experiments
incidentally; this module is for benches whose *payload is the timing*:
repeatable wall-clock measurements, a machine fingerprint so numbers
from different hosts are never compared blindly, and a JSON emitter so
every PR leaves a ``BENCH_*.json`` trajectory to diff against.

Conventions:

* a *workload* is a zero-argument callable timed with
  :func:`time_workload` — best-of-N wall time plus derived points/s;
* JSON reports are written under ``benchmarks/reports/`` (gitignored
  scratch) via :func:`write_bench_json`; benches that *commit* a
  trajectory copy the same payload to a tracked path.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Any, Callable

from benchmarks._report import REPORT_DIR


def machine_fingerprint() -> dict[str, Any]:
    """Enough host identity to judge whether two timings are comparable."""
    import numpy

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor() or None,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def time_workload(fn: Callable[[], Any], *, repeats: int = 3,
                  warmup: int = 1, points: int | None = None
                  ) -> dict[str, Any]:
    """Best-of-``repeats`` wall time of ``fn`` after ``warmup`` calls.

    Args:
        fn: The workload; its return value is discarded.
        repeats: Timed calls; the *minimum* is the headline number
            (robust against scheduler noise on shared CI hosts).
        warmup: Untimed calls first (caches, allocator, JIT-free but
            BLAS threads still spin up).
        points: Grid cells the workload evaluates; when given, the
            report includes ``points_per_s`` derived from the best time.
    """
    for _ in range(max(0, warmup)):
        fn()
    times: list[float] = []
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    best = min(times)
    out: dict[str, Any] = {
        "best_s": best,
        "mean_s": sum(times) / len(times),
        "repeats": len(times),
        "warmup": max(0, warmup),
    }
    if points is not None:
        out["points"] = int(points)
        out["points_per_s"] = (points / best) if best > 0 else None
    return out


def write_bench_json(name: str, payload: dict[str, Any], *,
                     out: str | os.PathLike[str] | None = None) -> Path:
    """Persist a perf payload as ``benchmarks/reports/<name>.json``.

    Args:
        name: Report stem, e.g. ``"BENCH_kernels"``.
        payload: JSON-serializable report body; ``machine`` and
            ``timestamp`` keys are filled in when absent.
        out: Optional extra path to mirror the same JSON to (e.g. a
            repo-root tracked trajectory file).

    Returns:
        The path written under ``benchmarks/reports/``.
    """
    body = dict(payload)
    body.setdefault("machine", machine_fingerprint())
    body.setdefault(
        "timestamp", time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime())
    )
    text = json.dumps(body, indent=2, sort_keys=False) + "\n"
    REPORT_DIR.mkdir(exist_ok=True)
    path = REPORT_DIR / f"{name}.json"
    path.write_text(text)
    if out is not None:
        Path(out).expanduser().write_text(text)
    return path
