"""repro.kernels — vectorized analytic kernels for sweep hot paths.

Every analytic sweep in the repo reduces to three array-shaped
operations over (samples x bits x codes x supplies) grids:

* **delay-law evaluation / inversion** (:mod:`repro.kernels.delay_law`)
  — ``d = (k/strength) * C_total * g(V)`` and its inverse
  ``V* = g^{-1}(window / (k_eff * C_total))``, solved elementwise with
  a safeguarded Newton-bisection iteration converged to a few ulps;
* **threshold grids** (:mod:`repro.kernels.thresholds`) — per-bit
  failure thresholds over (bit x code) and (die x bit) grids, replacing
  per-point ``brentq`` loops;
* **thermometer evaluation** (:mod:`repro.kernels.thermometer`) —
  words, bubble flags, ones counts and decode bounds over
  (sample x supply) grids, replacing per-word Python loops.

A second, stochastic/transient tier batches the repo's Monte-Carlo
and time-stepping flows:

* **Monte-Carlo s-curves** (:mod:`repro.kernels.montecarlo`) — whole
  (bit x level x trial) mismatch-draw cubes from one Generator call,
  pass/fail and trip-probability grids bit-identical to the scalar
  per-draw measures under the documented seed-threading scheme
  (``MC_SEED_SCHEME``);
* **exact LTI transients** (:mod:`repro.kernels.transient`) —
  zero-order-hold discretization of the RLC PDN (matrix exponential
  ``A_d``/``B_d``), chunk-invariant streaming stepping and batched
  corner lots, with the trapezoidal loop retained as the convergence
  oracle.

Contract with the scalar layer: the scalar paths
(:meth:`~repro.core.calibration.SensorDesign.bit_threshold`,
:func:`~repro.analysis.thermometer.decode_word`, ...) stay in place as
the *oracle*; the kernels must agree with them bit-identically where
the arithmetic is the same elementwise computation, and within the
oracle's own root-finding tolerance (``brentq`` ``xtol=1e-9``, so
|kernel - oracle| <= 2e-9 V) where the kernels solve to higher
precision.  ``tests/test_kernels.py`` enforces both on randomized
designs.

Kernels are also **batch-invariant**: evaluating one grid row at a time
produces bit-identical floats to evaluating the whole grid in one call
(elementwise ops only; converged lanes of the root solver are frozen by
masking).  This is what lets the process-pool path (one die per task)
and the batched serial path share results exactly.

A third, raw-speed tier removes redundant work without touching the
contract:

* **fused solve+decode** (:mod:`repro.kernels.fused`) — supply levels
  to counts/bounds/scores without materializing the intermediate word
  and diff grids (yield scoring, telemetry decode, MC trip counting
  collapsed to a threshold compare);
* **precision policy** (:mod:`repro.kernels.dtype`) — ``dtype=`` on
  kernel entry points and ``$REPRO_KERNEL_DTYPE``; float64 (default)
  keeps every bit-identity guarantee, float32 is opt-in with a
  measured, documented threshold error bound.
"""

from repro.kernels.delay_law import (
    delay_grid,
    solve_supply_for_delay,
    solve_voltage_factor,
    voltage_factor_grid,
)
from repro.kernels.dtype import (
    FLOAT32_THRESHOLD_BOUND_V,
    KERNEL_DTYPE_ENV,
    dtype_token,
    resolve_dtype,
)
from repro.kernels.fused import (
    decode_counts,
    decode_word_rows,
    fused_decode,
    s_curve_trip_probability_fused,
    score_lot_grids,
    trip_counts_from_thresholds,
)
from repro.kernels.montecarlo import (
    MC_SEED_SCHEME,
    effective_supply_grid,
    s_curve_trip_probability,
    spawn_bit_seeds,
    trip_grid,
    trip_margin_grid,
    word_grid_mc,
    word_histogram_grid,
)
from repro.kernels.thermometer import (
    bracket_grid,
    bubble_grid,
    decode_bounds,
    midpoint_grid,
    ones_count_grid,
    word_grid,
)
from repro.kernels.thresholds import (
    lot_threshold_grid,
    threshold_grid,
    window_grid,
)
from repro.kernels.transient import (
    TransientStepper,
    discretize,
    simulate_corner_lot,
    step_rail,
)

#: Bump whenever kernel numerics or grid layouts change meaning:
#: participates in :func:`repro.runtime.cache.design_fingerprint`, so
#: vectorized results can never alias cache entries written by a
#: different kernel generation (or by the scalar-only era, which had no
#: version token at all).  v2: stochastic/transient tier (Monte-Carlo
#: draw cubes under ``MC_SEED_SCHEME``, exact-ZOH PDN stepping).
#: v3: raw-speed tier (fused solve+decode kernels, dtype policy) —
#: fingerprints additionally fold
#: :func:`~repro.kernels.dtype.dtype_token`, so float32 artifacts can
#: never alias float64 ones.  v4: the optional compiled backend and its
#: fingerprint token are gone; NumPy is the only solver.
KERNEL_LAYOUT_VERSION = "kernels/v4"

__all__ = [
    "FLOAT32_THRESHOLD_BOUND_V",
    "KERNEL_DTYPE_ENV",
    "KERNEL_LAYOUT_VERSION",
    "MC_SEED_SCHEME",
    "decode_counts",
    "decode_word_rows",
    "dtype_token",
    "fused_decode",
    "resolve_dtype",
    "s_curve_trip_probability_fused",
    "score_lot_grids",
    "trip_counts_from_thresholds",
    "TransientStepper",
    "bracket_grid",
    "bubble_grid",
    "decode_bounds",
    "delay_grid",
    "discretize",
    "effective_supply_grid",
    "lot_threshold_grid",
    "midpoint_grid",
    "ones_count_grid",
    "s_curve_trip_probability",
    "simulate_corner_lot",
    "solve_supply_for_delay",
    "solve_voltage_factor",
    "spawn_bit_seeds",
    "step_rail",
    "threshold_grid",
    "trip_grid",
    "trip_margin_grid",
    "window_grid",
    "word_grid",
    "word_grid_mc",
    "word_histogram_grid",
]
