"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 psnbench/run.py --workload telemetry_stream --seed 1 \\
        --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is built from the
checkout's own ``src/`` (pure Python, nothing to compile).  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A run whose correctness gate fails prints
``"correct": false`` with no metrics and exits 1.

This launcher imports nothing but the standard library.  It pins the
environment, runs ``psnbench.worker`` in a process group of its own
(the worker, its pool workers and its ``repro serve`` child), and
kills and reaps that whole group when the worker ends or times out.
Full records (machine fingerprint, counts, spans) land in
``.bench_out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SPEC_PATH = ROOT / "BENCHMARK.json"

#: A run must end within 180 s; leave room to reap and clean up.
TIMEOUT_S = 165.0

#: Removed, so no outside setting changes the pool size, the
#: measurement backend, the kernel backend or the shared-memory path.
UNSET_ENV = ("REPRO_WORKERS", "REPRO_BACKEND", "REPRO_KERNEL_BACKEND",
             "REPRO_SHM")

#: Pinned for every process of the run.
PINNED_ENV = {"REPRO_KERNEL_DTYPE": "float64"}

_PR_SET_CHILD_SUBREAPER = 36


def _become_subreaper() -> None:
    """Adopt orphaned descendants, so every one of them can be reaped
    here even if the worker dies before its children."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _reap_group(pgid: int) -> None:
    """Kill what is left of the run's process group, then wait for
    every child (the worker and any adopted orphan) to end."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    workloads = [w["name"] for w in
                 json.loads(SPEC_PATH.read_text())["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2

    run_dir = ROOT / ".bench_run" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    (run_dir / "tmp").mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(PINNED_ENV)
    env.update(
        PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT))),
        REPRO_CACHE_DIR=str(run_dir / "cache"),
        TMPDIR=str(run_dir / "tmp"),
    )
    cmd = [sys.executable, "-m", "psnbench.worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--run-dir", str(run_dir), "--out-dir", str(ROOT / ".bench_out")]

    _become_subreaper()
    signal.signal(signal.SIGTERM, _terminate)
    proc = None
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdout=sys.stderr, start_new_session=True)
        try:
            code = proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: run exceeded {TIMEOUT_S:.0f} s", file=sys.stderr)
            return 1
        result_path = run_dir / "result.json"
        if not result_path.is_file():
            print(f"error: worker exited {code} without a result",
                  file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text())
    finally:
        if proc is not None:
            _reap_group(proc.pid)
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0 if result["correct"] and code == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
