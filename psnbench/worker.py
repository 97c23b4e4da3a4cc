"""One benchmark run of one workload (spawned by ``run.py``).

``python -m psnbench.worker --workload W --seed N --seconds S --trace T
--run-dir D --out-dir O`` prepares the workload, times gated passes for
at least ``S`` seconds, and writes the result line to ``D/result.json``
and the full record (machine fingerprint, counts, spans) under ``O``.

Untraced runs report the end-to-end metrics.  Traced runs alternate
untraced and traced passes: the traced ones record spans around every
public call and enable the ``repro.runtime.profiling`` PhaseProfiler,
and the per-layer metrics come from them alone.  Every time reported
is scaled to the reference host by the host-speed readings taken
around it (:class:`psnbench.common.HostClock`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from psnbench.common import (
    HostClock,
    Tracer,
    machine_fingerprint,
    p50,
    p90,
    peak_rss_mb,
    probe,
    scipy_import_seconds,
)
from psnbench.gates import GateFailure
from psnbench.workloads import WORKLOADS, PassResult

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: End-to-end metrics (name -> unit), reported by untraced runs.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}

#: Per-layer metrics (name -> unit), reported by traced runs.  Times are
#: per pass (a 10⁶-sample stream, a 1024-request load, or one yield
#: iteration); a layer a workload never enters reads 0.
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: PhaseProfiler phase -> (seconds metric, calls metric or None).
PHASES = {
    "telemetry.ingest": ("telemetry.ingest_s", None),
    "telemetry.decode": ("telemetry.decode_s", None),
    "telemetry.aggregate": ("telemetry.aggregate_s", None),
    "kernel.solve": ("kernels.solve_s", None),
    "kernel.decode": ("kernels.decode_s", "kernels.decode_calls"),
    "runtime.pool": ("runtime.pool_s", "runtime.pool_calls"),
    "runtime.shm": ("runtime.shm_s", None),
    "cache.get": ("runtime.cache_get_s", "runtime.cache_get_calls"),
    "cache.put": ("runtime.cache_put_s", "runtime.cache_put_calls"),
}

#: Fresh interpreters per set-up measurement; the median is reported.
SETUP_PROBES = 7

#: Fewest repeated calls a run may report percentiles over, so that at
#: least ten of them lie beyond p90.
MIN_CALLS = 100


def _measure(workload, seconds: float, trace: bool, tracer: Tracer):
    """Time gated passes until ``seconds`` have passed and enough calls
    were timed.  Returns (untraced, traced, attempted)."""
    from repro.runtime.profiling import PROFILER

    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    attempted = 0
    cpus = os.sched_getaffinity(0)
    start = time.perf_counter()
    reading = workload.clock.mean(cpus)
    index = 0
    while True:
        traced_pass = trace and index % 2 == 1
        tracer.enabled = traced_pass
        PROFILER.enabled = traced_pass
        try:
            with tracer.span("bench.pass", index=index):
                result = workload.run_pass(index)
        finally:
            tracer.enabled = False
            PROFILER.enabled = False
        if not result.readings:
            result.readings = [reading, workload.clock.mean(cpus)]
            reading = result.readings[-1]
        attempted += result.attempted
        problems = workload.check(result)
        if problems:
            raise GateFailure(problems, attempted)
        (traced if traced_pass else untraced).append(result)
        index += 1
        if trace:
            enough = bool(traced and untraced)
        else:
            enough = sum(len(r.latencies) for r in untraced) >= MIN_CALLS
        if enough and time.perf_counter() - start >= seconds:
            return untraced, traced, attempted


def _end_to_end(workload, untraced: list[PassResult]) -> dict[str, float]:
    """Times are scaled to the reference host, pass by pass."""
    scaled = workload.clock.scaled
    latencies = [scaled(x, r.readings) for r in untraced
                 for x in r.latencies]
    rss = peak_rss_mb()
    setups = [workload.setup_probe() for _ in range(SETUP_PROBES)]
    return {
        "setup_s": p50(setups),
        "throughput_per_s": (sum(r.units for r in untraced)
                             / sum(scaled(r.elapsed, r.readings)
                                   for r in untraced)),
        "latency_p50_ms": p50(latencies) * 1e3,
        "latency_p90_ms": p90(latencies) * 1e3,
        "peak_rss_mb": rss,
    }


def _per_layer(workload, untraced: list[PassResult],
               traced: list[PassResult]) -> dict[str, float]:
    """Times are scaled to the reference host by the traced passes'
    mean reading."""
    from repro.runtime.profiling import PROFILER

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    n = len(traced)
    for phase, (calls, seconds) in PROFILER.snapshot().items():
        if phase in PHASES:
            seconds_name, calls_name = PHASES[phase]
            metrics[seconds_name] = seconds / n
            if calls_name:
                metrics[calls_name] = calls / n
    traced_s = sum(r.elapsed for r in traced)
    metrics["telemetry.aggregate_share"] = (
        metrics["telemetry.aggregate_s"] * n / traced_s)
    metrics.update(workload.layers(traced))
    clock = workload.clock
    metrics["trace.overhead_ratio"] = (
        p50([clock.scaled(r.elapsed, r.readings) for r in traced])
        / p50([clock.scaled(r.elapsed, r.readings) for r in untraced]))

    breakdowns = [probe(clock, ["breakdown"])[1]
                  for _ in range(SETUP_PROBES)]
    metrics["repro.import_s"] = p50([b["import_s"] for b in breakdowns])
    metrics["core.paper_design_s"] = p50(
        [b["paper_design_s"] for b in breakdowns])
    _, timed = probe(clock, ["breakdown"],
                     python_flags=("-X", "importtime"))
    metrics["repro.scipy_import_s"] = scipy_import_seconds(timed["stderr"])
    scale = clock.scaled(1.0, [x for r in traced for x in r.readings])
    for name, unit in PER_LAYER.items():
        if unit in ("s", "ms"):
            metrics[name] *= scale
    return metrics


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    """Returns (result line, full record)."""
    tracer = Tracer(args.seed)
    kind = WORKLOADS[args.workload]
    clock = HostClock(array=kind.array_reference)
    workload = kind(args.seed, args.run_dir, tracer, clock)
    record: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": bool(args.trace),
                    "machine": machine_fingerprint()}
    try:
        workload.prepare()
        untraced, traced, attempted = _measure(
            workload, args.seconds, bool(args.trace), tracer)
        workload.finish()
        if args.trace:
            metrics = _per_layer(workload, untraced, traced)
            units = PER_LAYER
        else:
            metrics = _end_to_end(workload, untraced)
            units = END_TO_END
        clock.check_quiet()
    except GateFailure as exc:
        line = {"correct": False, "attempted": max(1, exc.attempted),
                "failed": len(exc.problems), "metrics": {}}
        record.update(line, problems=exc.problems)
        return line, record
    finally:
        workload.close()
    line = {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    record.update(line, reference_s=clock.nominal_s, passes={
        kind: [{"elapsed_s": r.elapsed, "latencies_s": r.latencies,
                "readings_s": r.readings} for r in passes]
        for kind, passes in (("untraced", untraced), ("traced", traced))})
    record["host"] = {"readings": len(clock.readings),
                      "median_reading_s": p50(clock.readings),
                      "reading_s": clock.reading_s,
                      "busy_s": clock.busy_s}
    if args.trace:
        from repro.runtime.profiling import PROFILER

        record["spans"] = tracer.as_json()
        record["self_time_s"] = tracer.self_times()
        record["phases"] = PROFILER.snapshot()
        record["layer_stats"] = workload.stats
    return line, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    line, record = run(args)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(args.out_dir / name, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    with open(args.run_dir / "result.json", "w") as fh:
        json.dump(line, fh)
    if not line["correct"]:
        print("gate failed: " + "; ".join(record["problems"][:10]),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
