"""Correctness gates: a pass's timings count only if its gate is empty.

Each gate is a pure function of one pass's outputs and its reference,
returning a list of problems (empty when the pass is correct), so the
tests next to this file can corrupt one output and watch the gate trip.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable

import numpy as np

#: A detected droop must start within this long after its injected
#: onset (the synthetic droop reaches the enter rung within a few ns).
ONSET_WINDOW_S = 100e-9


class GateFailure(Exception):
    """A workload's output failed its correctness gate."""

    def __init__(self, problems: list[str], attempted: int = 0) -> None:
        super().__init__("; ".join(problems[:5]))
        self.problems = problems
        self.attempted = attempted


def quantile_bound(ladder: np.ndarray) -> float:
    """The one-rung bound on a streamed quantile of quantized data.

    Decoded midpoints take one value per rung, so any estimator that
    brackets the true quantile between adjacent observed values is off
    by at most the widest gap between adjacent midpoint levels.
    """
    ladder = np.asarray(ladder, dtype=float)
    levels = np.concatenate(
        ([ladder[0]], 0.5 * (ladder[1:] + ladder[:-1]), [ladder[-1]]))
    return float(np.max(np.diff(levels)))


def telemetry_problems(streamed_mids: np.ndarray, batch_mids: np.ndarray,
                       site: dict[str, Any], event_starts: Iterable[float],
                       onsets: Iterable[float], *, capacity: int,
                       ladder: np.ndarray) -> list[str]:
    """Gate one streamed pass against the one-shot batch decode.

    Args:
        streamed_mids: Decoded midpoints the pipeline emitted, in order.
        batch_mids: :func:`repro.telemetry.batch_decode` midpoints of the
            same trace.
        site: The site's entry of ``TelemetryPipeline.snapshot()``.
        event_starts: Start times of the detected droop events.
        onsets: Injected droop onsets (the trace's ground truth).
        capacity: Configured ring capacity.
        ladder: The pipeline's threshold ladder.
    """
    problems: list[str] = []
    if streamed_mids.shape != batch_mids.shape:
        problems.append(f"streamed {streamed_mids.shape} samples, batch "
                        f"decoded {batch_mids.shape}")
    elif not np.array_equal(streamed_mids, batch_mids):
        bad = int(np.count_nonzero(streamed_mids != batch_mids))
        problems.append(f"{bad} streamed mids differ from batch_decode")
    ring = site["ring"]
    if ring["dropped"] != 0:
        problems.append(f"ring dropped {ring['dropped']} samples")
    if ring["high_watermark"] > capacity:
        problems.append(f"ring watermark {ring['high_watermark']} above "
                        f"capacity {capacity}")
    starts = sorted(event_starts)
    onsets = sorted(onsets)
    if len(starts) != len(onsets):
        problems.append(f"{len(starts)} droop events for {len(onsets)} "
                        f"injected droops")
    for onset in onsets:
        hits = [s for s in starts if onset - 2e-9 <= s <= onset
                + ONSET_WINDOW_S]
        if len(hits) != 1:
            problems.append(f"{len(hits)} events start near the droop "
                            f"injected at {onset:.3e} s")
    bound = quantile_bound(ladder)
    for q, est in site["quantiles"].items():
        exact = float(np.quantile(batch_mids, float(q)))
        if est is None or not abs(est - exact) <= bound:
            problems.append(f"quantile {q}: streamed {est}, exact {exact}, "
                            f"bound {bound}")
    return problems


def service_problems(requests: list[dict], responses: list[dict],
                     expected: dict[str, Any]) -> list[str]:
    """Gate one driven load: one ``ok``/``full`` reply per request, with
    the result ``execute_job`` gives for the same payload.

    Args:
        requests: The requests sent (each with an ``id``).
        responses: Every response received, in arrival order.
        expected: Request id -> JSON-normalized ``execute_job`` result.
    """
    problems: list[str] = []
    sent = {r["id"] for r in requests}
    counts = Counter(r.get("id") for r in responses)
    missing = sent - set(counts)
    if missing:
        problems.append(f"{len(missing)} requests never answered, e.g. "
                        f"{sorted(missing)[:3]}")
    dupes = sorted(rid for rid, n in counts.items() if n > 1)
    if dupes:
        problems.append(f"duplicate replies for {dupes[:3]}")
    strays = sorted(str(rid) for rid in set(counts) - sent)
    if strays:
        problems.append(f"replies to unknown ids {strays[:3]}")
    for resp in responses:
        rid = resp.get("id")
        if rid not in sent:
            continue
        if resp.get("status") != "ok" or resp.get("quality") != "full":
            problems.append(f"{rid}: status {resp.get('status')!r} "
                            f"quality {resp.get('quality')!r}")
            continue
        result = dict(resp.get("result") or {})
        # A coalesced measure reply is the per-request slice of one
        # batched backend call, tagged with the batch size.
        result.pop("coalesced", None)
        if result != expected[rid]:
            problems.append(f"{rid}: reply differs from execute_job")
    return problems


def yield_problems(cold: Any, cold_reference: Any, warm: Any,
                   warm_reference: Any, *, warm_hits: int,
                   warm_misses: int) -> list[str]:
    """Gate one yield iteration.

    The cold report must equal the batched serial report of the same
    lot, the warm report the reference lot's, and the warm study must
    be served from the cache alone (hit ratio 1), however many entries
    the cache keeps per lot.
    """
    problems: list[str] = []
    if cold != cold_reference:
        problems.append("cold study differs from the serial batched study "
                        "of the same lot")
    if warm != warm_reference:
        problems.append("warm study differs from the reference lot")
    if warm_misses != 0 or warm_hits == 0:
        problems.append(f"warm study: {warm_hits} cache hits, "
                        f"{warm_misses} misses")
    return problems
