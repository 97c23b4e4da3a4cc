"""Fresh-interpreter set-up probes.

``python -m psnbench.probe <what> [arg]`` does one workload's set-up in
a new interpreter and prints one JSON line when it is ready to time;
the parent measures spawn-to-ready wall time.  Only the standard
library is imported before the timed imports, so every ``repro``,
numpy and scipy import is paid inside the probe.

* ``telemetry_stream SEED`` — import, ``paper_design()``, the 10⁶-sample
  trace and a fresh pipeline;
* ``yield_lot CACHE_DIR`` — import, ``paper_design()``, the variation
  model and the result cache;
* ``breakdown`` — ``import repro.cli`` and ``paper_design()``, each
  timed on its own (run under ``-X importtime`` for the scipy share).
"""

from __future__ import annotations

import json
import sys
import time


def _telemetry_stream(seed: str) -> dict:
    from repro.core.calibration import paper_design

    from psnbench.workloads import make_pipeline, make_trace

    design = paper_design()
    make_trace(int(seed))
    make_pipeline(design)
    return {}


def _yield_lot(cache_dir: str) -> dict:
    from repro.analysis.yield_study import run_yield_study  # noqa: F401
    from repro.core.calibration import paper_design
    from repro.devices.variation import VariationModel
    from repro.runtime import ResultCache

    paper_design()
    VariationModel()
    ResultCache(cache_dir)
    return {}


def _breakdown() -> dict:
    t0 = time.perf_counter()
    import repro.cli  # noqa: F401
    t1 = time.perf_counter()
    from repro.core.calibration import paper_design

    paper_design()
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "paper_design_s": t2 - t1}


def main(argv: list[str]) -> int:
    what, *rest = argv
    probes = {"telemetry_stream": _telemetry_stream,
              "yield_lot": _yield_lot, "breakdown": _breakdown}
    info = probes[what](*rest)
    print(json.dumps({"ready": True, **info}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
