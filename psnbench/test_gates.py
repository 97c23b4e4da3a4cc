"""Each gate passes on real outputs and fails on one corrupted output.

Run with ``python -m pytest psnbench -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from psnbench import gates
from psnbench.workloads import CAPACITY, make_pipeline, normalize_result


@pytest.fixture(scope="module")
def design():
    from repro.core.calibration import paper_design

    return paper_design()


# -- telemetry_stream ----------------------------------------------------------


@pytest.fixture(scope="module")
def stream(design):
    """A short seeded stream through the benchmark's pipeline config."""
    from repro.telemetry import array_source, batch_decode, \
        synthetic_droop_trace

    times, volts, onsets = synthetic_droop_trace(
        n_samples=60_000, dt=1e-9, n_droops=2, depth=0.15, noise_rms=5e-3,
        seed=3)
    chunks = []
    pipeline = make_pipeline(
        design, on_decoded=lambda site, ts, ks, mids: chunks.append(mids))
    pipeline.ingest_all(array_source("s", times, volts, block=4096))
    pipeline.flush()
    return {
        "streamed": np.concatenate(chunks),
        "batch": batch_decode(pipeline.ladder, volts)[2],
        "site": pipeline.snapshot()["sites"]["s"],
        "starts": [e.start for e in pipeline.events],
        "onsets": onsets,
        "ladder": pipeline.ladder,
    }


def _telemetry(s):
    return gates.telemetry_problems(
        s["streamed"], s["batch"], s["site"], s["starts"], s["onsets"],
        capacity=CAPACITY, ladder=s["ladder"])


def test_telemetry_gate_passes(stream):
    assert _telemetry(stream) == []


def _corrupt_mid(s):
    s["streamed"] = s["streamed"].copy()
    s["streamed"][1234] += 1e-3


def _drop_event(s):
    s["starts"] = s["starts"][1:]


def _shift_quantile(s):
    s["site"] = json.loads(json.dumps(s["site"]))
    s["site"]["quantiles"]["0.5"] += 2 * gates.quantile_bound(s["ladder"])


def _count_drop(s):
    s["site"] = json.loads(json.dumps(s["site"]))
    s["site"]["ring"]["dropped"] = 1


@pytest.mark.parametrize("corrupt", [_corrupt_mid, _drop_event,
                                     _shift_quantile, _count_drop])
def test_telemetry_gate_fails_on_one_corrupted_output(stream, corrupt):
    corrupted = dict(stream)
    corrupt(corrupted)
    assert _telemetry(corrupted)


# -- service_mixed -------------------------------------------------------------


@pytest.fixture(scope="module")
def load():
    from repro.service import FleetConfig, build_load, execute_job

    config = FleetConfig(n_dies=16, n_shards=2)
    requests = build_load(5, 16, config=config)
    fleet = dataclasses.asdict(config)
    expected = {r["id"]: normalize_result(execute_job(
        {"kind": r["kind"], "params": r["params"], "fleet": fleet}))
        for r in requests}
    replies = [{"id": r["id"], "status": "ok", "quality": "full",
                "result": json.loads(json.dumps(expected[r["id"]]))}
               for r in requests]
    return requests, replies, expected


def test_service_gate_passes(load):
    requests, replies, expected = load
    replies = [dict(r) for r in replies]
    replies[0]["result"] = dict(replies[0]["result"], coalesced=2)
    assert gates.service_problems(requests, replies, expected) == []


def test_service_gate_fails_on_one_wrong_reply(load):
    requests, replies, expected = load
    replies = json.loads(json.dumps(replies))
    measure = next(r for r in replies if "measures" in r["result"])
    measure["result"]["measures"][0]["word"] += "1"
    assert gates.service_problems(requests, replies, expected)


@pytest.mark.parametrize("edit", ["drop", "duplicate", "degrade"])
def test_service_gate_fails_on_delivery(load, edit):
    requests, replies, expected = load
    replies = [dict(r) for r in replies]
    if edit == "drop":
        replies.pop()
    elif edit == "duplicate":
        replies.append(replies[0])
    else:
        replies[3]["quality"] = "degraded"
    assert gates.service_problems(requests, replies, expected)


# -- yield_lot -----------------------------------------------------------------


@pytest.fixture(scope="module")
def reports(design):
    from repro.analysis.yield_study import run_yield_study
    from repro.devices.variation import VariationModel

    cold = run_yield_study(design, VariationModel(), n_dies=8, seed=11)
    warm = run_yield_study(design, VariationModel(), n_dies=8, seed=12)
    return cold, warm


def test_yield_gate_passes(reports):
    cold, warm = reports
    assert gates.yield_problems(cold, cold, warm, warm, warm_hits=8,
                                warm_misses=0) == []


def test_yield_gate_fails_on_one_corrupted_report(reports):
    cold, warm = reports
    bad = dataclasses.replace(cold, bubble_rate=cold.bubble_rate + 1e-12)
    assert gates.yield_problems(bad, cold, warm, warm, warm_hits=8,
                                warm_misses=0)


@pytest.mark.parametrize("hits, misses", [(7, 1), (0, 0)])
def test_yield_gate_fails_unless_the_warm_study_only_hits(reports, hits,
                                                          misses):
    cold, warm = reports
    assert gates.yield_problems(cold, cold, warm, warm, warm_hits=hits,
                                warm_misses=misses)
