"""The three workloads: inputs, one timed pass, its gate and its layers.

Each workload makes every input from its seed during an untimed
``prepare()``; ``run_pass()`` times the calls a user repeats and
returns the raw outputs, which ``check()`` gates outside the timed
region.  ``layers()`` turns the traced passes into the workload's own
per-layer metrics.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from psnbench import gates
from psnbench.common import (
    HostClock,
    Tracer,
    cpu_seconds,
    p50,
    probe,
)

# telemetry_stream
N_SAMPLES = 1_000_000
BLOCK = 4096
CHUNK = 1024
CAPACITY = 8192
N_DROOPS = 4

# service_mixed
N_REQUESTS = 1024
N_DIES = 16
N_SHARDS = 2
CONNECTIONS = 2

# yield_lot
COLD_DIES = 64
WARM_DIES = 128
WORKERS = 2


@dataclass
class PassResult:
    """What one timed pass produced.

    Attributes:
        elapsed: Wall time of the pass, seconds.
        units: Work done (samples, requests or dies scored).
        latencies: Seconds per repeated call.
        raw: Outputs for the gate.
        facts: Per-pass layer readings.
        attempted: Operations tried, when some may have no latency
            (a request never answered); defaults to ``len(latencies)``.
        readings: Reference-loop readings of the CPUs the pass ran on
            (see :class:`~psnbench.common.HostClock`); the worker takes
            them before and after the pass when the workload does not.
    """

    elapsed: float
    units: int
    latencies: list[float]
    raw: Any = None
    facts: dict[str, float] = field(default_factory=dict)
    attempted: int | None = None
    readings: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.attempted is None:
            self.attempted = len(self.latencies)


def make_trace(seed: int):
    """The seeded 10⁶-sample PSN trace: 4 droops on 5 mV rms noise."""
    from repro.telemetry import synthetic_droop_trace

    return synthetic_droop_trace(n_samples=N_SAMPLES, dt=1e-9,
                                 n_droops=N_DROOPS, depth=0.15,
                                 noise_rms=5e-3, seed=seed)


def make_pipeline(design, on_decoded=None):
    from repro.telemetry import TelemetryPipeline

    return TelemetryPipeline(design, code=3, chunk=CHUNK,
                             capacity=CAPACITY, policy="drop_oldest",
                             min_duration=2, refractory=8,
                             on_decoded=on_decoded)


class Workload:
    """Shared state and the no-op hooks a workload may override."""

    name = ""

    #: Whether the host-speed reference loop has its array part (see
    #: :class:`~psnbench.common.HostClock`).
    array_reference = True

    def __init__(self, seed: int, run_dir: Path, tracer: Tracer,
                 clock: HostClock) -> None:
        self.seed = seed
        self.run_dir = run_dir
        self.tracer = tracer
        self.clock = clock
        #: Layer registry read at the end of the run, kept in the record.
        self.stats: dict | None = None

    def finish(self) -> None:
        """Stop what the timed passes used (before peak RSS is read)."""

    def close(self) -> None:
        """Release everything, also after a failure."""


class TelemetryStream(Workload):
    """A fresh pipeline per pass, fed the trace 4096 samples at a time.

    The stream is single-threaded, so every ``REPIN_EVERY`` ingests it
    moves to the CPU that is calmest at that moment (see
    :meth:`~psnbench.common.HostClock.pin_to_calmest`); the move is not
    timed, and its readings are the pass's.
    """

    name = "telemetry_stream"

    #: The stream is interpreter-bound: with the array part, readings
    #: tracked its slowdowns worse in trial runs.
    array_reference = False

    #: Ingest calls between CPU choices (about 0.3 s of stream).
    REPIN_EVERY = 16

    def prepare(self) -> None:
        from repro.core.calibration import paper_design
        from repro.telemetry import array_source, batch_decode

        self.cpus = os.sched_getaffinity(0)
        self.design = paper_design()
        times, volts, self.onsets = make_trace(self.seed)
        self.blocks = list(array_source("site0", times, volts,
                                        block=BLOCK))
        self.ladder = make_pipeline(self.design).ladder
        self.batch_mids = batch_decode(self.ladder, volts)[2]

    def run_pass(self, index: int) -> PassResult:
        span = self.tracer.span
        chunks: list[np.ndarray] = []
        latencies = []
        readings = [self.clock.pin_to_calmest(self.cpus)]
        start = time.perf_counter()
        with span("telemetry.TelemetryPipeline"):
            pipeline = make_pipeline(
                self.design,
                on_decoded=lambda site, ts, ks, mids: chunks.append(mids))
        busy = time.perf_counter() - start
        for k, block in enumerate(self.blocks):
            if k and k % self.REPIN_EVERY == 0:
                readings.append(self.clock.pin_to_calmest(self.cpus))
            t0 = time.perf_counter()
            with span("telemetry.TelemetryPipeline.ingest"):
                pipeline.ingest(block)
            latencies.append(time.perf_counter() - t0)
        start = time.perf_counter()
        with span("telemetry.TelemetryPipeline.flush"):
            pipeline.flush()
        elapsed = busy + sum(latencies) + time.perf_counter() - start
        with span("telemetry.TelemetryPipeline.snapshot"):
            site = pipeline.snapshot()["sites"]["site0"]
        starts = [e.start for e in pipeline.events]
        return PassResult(
            elapsed, N_SAMPLES, latencies, raw=(chunks, site, starts),
            facts={"ring_high_watermark": site["ring"]["high_watermark"],
                   "dropped": site["ring"]["dropped"]},
            readings=readings)

    def check(self, result: PassResult) -> list[str]:
        chunks, site, starts = result.raw
        streamed = np.concatenate(chunks) if chunks else np.empty(0)
        return gates.telemetry_problems(
            streamed, self.batch_mids, site, starts, self.onsets,
            capacity=CAPACITY, ladder=self.ladder)

    def finish(self) -> None:
        os.sched_setaffinity(0, self.cpus)

    def setup_probe(self) -> float:
        return probe(self.clock, ["telemetry_stream", str(self.seed)])[0]

    def layers(self, traced: list[PassResult]) -> dict[str, float]:
        return {
            "telemetry.ring_high_watermark": max(
                r.facts["ring_high_watermark"] for r in traced),
            "telemetry.dropped": sum(r.facts["dropped"] for r in traced),
        }


class ServeProcess:
    """``repro serve --unix`` in its own process (inline executor, no
    cache), answering ``ping`` before it counts as started."""

    def __init__(self, run_dir: Path, tag: str) -> None:
        # A relative socket path keeps clear of the 108-byte sun_path
        # limit wherever the checkout lives; both ends share the cwd.
        sock = run_dir.relative_to(Path.cwd()) / f"{tag}.sock"
        self.stats_path = run_dir / f"{tag}-stats.json"
        self.stderr = open(run_dir / f"{tag}-stderr.log", "w")
        cmd = [sys.executable, "-m", "repro", "serve", "--unix", str(sock),
               "--dies", str(N_DIES), "--shards", str(N_SHARDS),
               "--executor", "inline", "--stats-out",
               str(self.stats_path)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.stderr, text=True)
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("serving on "):
                self.proc.wait(timeout=30)
                log = Path(self.stderr.name).read_text()
                raise RuntimeError(
                    f"repro serve did not start: {log.strip()[-400:]}")
            self.address = line.split()[2]
            from repro.service import ServiceClient

            with ServiceClient(self.address) as client:
                reply = client.request("ping")
            if reply.get("status") != "ok":
                raise RuntimeError(f"ping failed: {reply}")
        except BaseException:
            self.kill()
            raise
        self.ready_s = time.perf_counter() - start

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> dict:
        """SIGINT (graceful: the server writes ``--stats-out``), reap,
        and return the stats registry."""
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=30)
        finally:
            self.kill()
        with open(self.stats_path) as fh:
            return json.load(fh)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()
        self.stderr.close()


def normalize_result(result: dict) -> Any:
    """An ``execute_job`` result as it reads after the wire."""
    from repro.service.protocol import encode_response, make_response

    line = encode_response(make_response("x", status="ok", quality="full",
                                         result=result))
    return json.loads(line)["result"]


async def _drive_lane(address: str, lane: list[dict], responses: list,
                      latencies: list, tracer: Tracer,
                      parent: int | None) -> None:
    """One closed-loop connection: send, wait for the reply, repeat."""
    from repro.service import AsyncServiceClient

    client = await AsyncServiceClient(address).connect()
    try:
        for req in lane:
            t0 = time.perf_counter()
            await client.send(req["id"], req["kind"],
                              tenant=req["tenant"], params=req["params"])
            reply = await client.read_response()
            t1 = time.perf_counter()
            if reply is None:
                return
            responses.append(reply)
            latencies.append(t1 - t0)
            tracer.record("service.AsyncServiceClient.request", t0, t1,
                          parent, kind=req["kind"])
    finally:
        await client.close()


class ServiceMixed(Workload):
    """``build_load(seed, 1024)`` over 2 closed-loop connections."""

    name = "service_mixed"

    def __init__(self, seed: int, run_dir: Path, tracer: Tracer,
                 clock: HostClock) -> None:
        super().__init__(seed, run_dir, tracer, clock)
        self.server: ServeProcess | None = None
        self._probes = 0

    def prepare(self) -> None:
        from repro.service import FleetConfig, build_load, execute_job

        config = FleetConfig(n_dies=N_DIES, n_shards=N_SHARDS)
        load = build_load(self.seed, N_REQUESTS, config=config)
        # build_load's parameters follow the request index; the seed
        # reorders the mix and reseeds the stochastic kinds.
        rng = np.random.default_rng(self.seed)
        for req in load:
            if "seed" in req["params"]:
                req["params"]["seed"] = int(rng.integers(2**31 - 1))
        self.load = [load[i] for i in rng.permutation(len(load))]
        fleet = dataclasses.asdict(config)
        self.expected = {
            req["id"]: normalize_result(execute_job(
                {"kind": req["kind"], "params": dict(req["params"]),
                 "fleet": fleet}))
            for req in self.load
        }
        self.server = ServeProcess(self.run_dir, "server")

    def run_pass(self, index: int) -> PassResult:
        responses: list[dict] = []
        latencies: list[float] = []
        lanes = [self.load[k::CONNECTIONS] for k in range(CONNECTIONS)]
        cpu0 = cpu_seconds(self.server.pid)
        start = time.perf_counter()
        with self.tracer.span("service.run_load") as sid:

            async def drive() -> None:
                await asyncio.gather(*(
                    _drive_lane(self.server.address, lane, responses,
                                latencies, self.tracer, sid)
                    for lane in lanes))

            asyncio.run(drive())
        elapsed = time.perf_counter() - start
        cpu = cpu_seconds(self.server.pid) - cpu0
        return PassResult(elapsed, len(responses), latencies,
                          raw=responses, facts={"server_cpu_s": cpu},
                          attempted=len(self.load))

    def check(self, result: PassResult) -> list[str]:
        return gates.service_problems(self.load, result.raw, self.expected)

    def finish(self) -> None:
        self.stats = self.server.stop()
        self.server = None

    def setup_probe(self) -> float:
        self._probes += 1
        with self.clock.on_calmest_cpu() as readings:
            server = ServeProcess(self.run_dir, f"probe{self._probes}")
            server.stop()
        return self.clock.scaled(server.ready_s, readings)

    def layers(self, traced: list[PassResult]) -> dict[str, float]:
        out: dict[str, float] = {}
        for kind in ("measure", "characterize", "window", "s_curve"):
            durations = self.tracer.durations(
                "service.AsyncServiceClient.request", kind=kind)
            out[f"service.{kind}_p50_ms"] = p50(durations) * 1e3
        requests = sum(r.units for r in traced)
        out["service.server_cpu_ms_per_request"] = (
            sum(r.facts["server_cpu_s"] for r in traced) / requests * 1e3)
        counters = self.stats["counters"]
        shards = self.stats["shards"]
        out["service.backend_calls_per_request"] = (
            sum(s["executed"] for s in shards) / counters["responses"])
        out["service.queue_high_watermark"] = max(
            s["queue"]["high_watermark"] for s in shards)
        out["service.rejected"] = counters["rejected"]
        out["service.degraded"] = counters["degraded"]
        return out

    def close(self) -> None:
        if self.server is not None:
            self.server.kill()


class YieldLot(Workload):
    """A cold 64-die study on a fresh lot, then a warm re-study of the
    128-die reference lot primed into the same cache."""

    name = "yield_lot"

    def _study(self, n_dies: int, seed: int, *, cached: bool):
        from repro.analysis.yield_study import run_yield_study

        if not cached:
            return run_yield_study(self.design, self.variation,
                                   n_dies=n_dies, seed=seed)
        return run_yield_study(self.design, self.variation, n_dies=n_dies,
                               seed=seed, workers=WORKERS,
                               cache=self.cache)

    def prepare(self) -> None:
        from repro.core.calibration import paper_design
        from repro.devices.variation import VariationModel
        from repro.runtime import ResultCache

        self.design = paper_design()
        self.variation = VariationModel()
        self.cache = ResultCache(self.run_dir / "yield-cache")
        self.warm_reference = self._study(WARM_DIES, self.seed,
                                          cached=False)
        primed = self._study(WARM_DIES, self.seed, cached=True)
        if primed != self.warm_reference:
            raise gates.GateFailure(
                ["primed reference lot differs from the serial study"])

    def cold_seed(self, index: int) -> int:
        # Distinct from the reference lot's seed and from each other, so
        # every cold study misses the cache.
        return self.seed * 7919 + 1 + index

    def run_pass(self, index: int) -> PassResult:
        span = self.tracer.span
        cold_seed = self.cold_seed(index)
        counts = [(self.cache.hits, self.cache.misses)]
        start = time.perf_counter()
        with span("analysis.yield_study.run_yield_study", role="cold"):
            cold = self._study(COLD_DIES, cold_seed, cached=True)
        counts.append((self.cache.hits, self.cache.misses))
        with span("analysis.yield_study.run_yield_study", role="warm"):
            warm = self._study(WARM_DIES, self.seed, cached=True)
        elapsed = time.perf_counter() - start
        counts.append((self.cache.hits, self.cache.misses))
        (h0, m0), (h1, m1), (h2, m2) = counts
        return PassResult(
            elapsed, COLD_DIES + WARM_DIES, [elapsed],
            raw=(cold_seed, cold, warm, h2 - h1, m2 - m1),
            facts={"cache_hits": h2 - h0, "cache_misses": m2 - m0})

    def check(self, result: PassResult) -> list[str]:
        cold_seed, cold, warm, hits, misses = result.raw
        return gates.yield_problems(
            cold, self._study(COLD_DIES, cold_seed, cached=False),
            warm, self.warm_reference, warm_hits=hits, warm_misses=misses)

    def finish(self) -> None:
        self.stats = self.cache.stats()

    def setup_probe(self) -> float:
        return probe(self.clock,
                     ["yield_lot", str(self.run_dir / "probe-cache")])[0]

    def layers(self, traced: list[PassResult]) -> dict[str, float]:
        name = "analysis.yield_study.run_yield_study"
        hits = sum(r.facts["cache_hits"] for r in traced)
        misses = sum(r.facts["cache_misses"] for r in traced)
        return {
            "runtime.cache_hit_ratio": hits / (hits + misses),
            "analysis.cold_study_p50_ms":
                p50(self.tracer.durations(name, role="cold")) * 1e3,
            "analysis.warm_study_p50_ms":
                p50(self.tracer.durations(name, role="warm")) * 1e3,
        }


WORKLOADS = {w.name: w for w in (TelemetryStream, ServiceMixed, YieldLot)}
