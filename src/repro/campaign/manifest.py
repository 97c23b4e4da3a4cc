"""Provenance manifests: what ran, under which numerics, from where.

A campaign run leaves two kinds of artifact under its output
directory:

* ``results/<stage-id>.json`` — one JSON payload per stage, written
  deterministically (sorted keys, fixed indentation, trailing
  newline) so *bit-identical results mean bit-identical files*;
* ``manifest.json`` — this module's summary: the spec hash, the
  campaign fingerprint, the full provenance tuple
  (:func:`provenance_info`), and one record per stage (cache key,
  status, checks, artifact path, wall/CPU time, cache-counter
  deltas).

The provenance tuple is the same one ``repro versions`` prints — a
manifest names every version tag that could change its numbers, so a
golden diff can tell *numerics drift* (provenance changed) from
*regression* (same provenance, different results).

JSON discipline: :func:`jsonify` converts NumPy scalars/arrays to
plain Python and **refuses non-finite floats** — JSON has no ±inf/NaN
and the silent ``Infinity`` extension would make manifests unreadable
to strict parsers.  Stage payloads must encode missing values
explicitly (``None``) before they reach a manifest.
"""

from __future__ import annotations

import json
import math
import platform
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import CampaignError

#: Version tag of the manifest layout itself.
MANIFEST_SCHEMA = "campaign-manifest/v1"

#: Deterministic artifact file name.
MANIFEST_NAME = "manifest.json"

#: Per-stage payload directory under the run's output directory.
RESULTS_DIR = "results"


def provenance_info() -> dict[str, str]:
    """The full engine-version tuple, as a flat string table.

    Everything that can change a campaign's numbers: package version,
    interpreter, NumPy build, kernel layout/dtype, the MC seed scheme,
    and every wire-format schema tag.
    ``repro versions`` prints exactly this table; manifests embed it.
    """
    import repro
    from repro.backends.base import BACKEND_PROTOCOL
    from repro.backends.trace import TRACE_SCHEMA
    from repro.campaign.schema import CAMPAIGN_SCHEMA
    from repro.kernels import KERNEL_LAYOUT_VERSION
    from repro.kernels.dtype import dtype_token
    from repro.kernels.montecarlo import MC_SEED_SCHEME
    from repro.runtime.cache import CACHE_SCHEMA
    from repro.service.protocol import SERVICE_PROTOCOL

    return {
        "repro": repro.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_layout": KERNEL_LAYOUT_VERSION,
        "kernel_dtype": dtype_token(),
        "mc_seed_scheme": MC_SEED_SCHEME,
        "trace_schema": TRACE_SCHEMA,
        "service_protocol": SERVICE_PROTOCOL,
        "cache_schema": CACHE_SCHEMA,
        "campaign_schema": CAMPAIGN_SCHEMA,
        "manifest_schema": MANIFEST_SCHEMA,
    }


def jsonify(value: Any, *, path: str = "$") -> Any:
    """Convert a payload to strict-JSON-safe Python, loudly.

    NumPy scalars and arrays become Python numbers and lists; dict
    keys become strings; non-finite floats raise
    :class:`~repro.errors.CampaignError` naming the offending path
    (payloads must encode them as ``None`` explicitly).
    """
    if isinstance(value, np.generic):
        value = value.item()
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise CampaignError(
                f"non-finite float at {path} cannot enter a manifest; "
                f"encode it as null explicitly"
            )
        return value
    if isinstance(value, np.ndarray):
        return jsonify(value.tolist(), path=path)
    if isinstance(value, dict):
        return {str(k): jsonify(v, path=f"{path}.{k}")
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v, path=f"{path}[{i}]")
                for i, v in enumerate(value)]
    raise CampaignError(
        f"cannot encode {type(value).__name__} at {path} into a "
        f"manifest"
    )


def dump_json(payload: Any, path: Path) -> None:
    """Write deterministic JSON: sorted keys, 2-space indent,
    trailing newline — so equal payloads are equal *bytes*."""
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(jsonify(payload), sort_keys=True, indent=2,
                      allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def read_manifest(run_dir: str | Path) -> dict[str, Any]:
    """Load ``<run_dir>/manifest.json``; refuse unknown layouts.

    Raises:
        CampaignError: missing/unparseable manifest or a
            ``manifest_schema`` tag this library does not read.
    """
    path = Path(run_dir) / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise CampaignError(
            f"cannot read manifest {path}: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise CampaignError(
            f"manifest {path} is not valid JSON: {exc}"
        ) from exc
    schema = manifest.get("manifest_schema")
    if schema != MANIFEST_SCHEMA:
        raise CampaignError(
            f"manifest {path} carries schema {schema!r}; this library "
            f"reads {MANIFEST_SCHEMA!r}"
        )
    return manifest


def read_stage_payload(run_dir: str | Path,
                       stage_id: str) -> dict[str, Any]:
    """Load one stage's ``results/<id>.json`` payload."""
    path = Path(run_dir) / RESULTS_DIR / f"{stage_id}.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise CampaignError(
            f"cannot read stage payload {path}: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise CampaignError(
            f"stage payload {path} is not valid JSON: {exc}"
        ) from exc
