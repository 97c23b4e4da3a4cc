"""Precision policy: the float32 contract.

The float32 fast path is *opt-in with a documented bound*: solved
thresholds within :data:`FLOAT32_THRESHOLD_BOUND_V` of the float64
oracle, decoded words bit-identical wherever the supply clears every
threshold by more than the bound.  Hypothesis drives both claims
across design variants, process corners and masked-bit arrays.  The
dtype is folded into cache fingerprints, so float32 and float64
artifacts can never collide.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.devices.corners import CORNERS, corner_by_name
from repro.errors import ConfigurationError
from repro.kernels import (
    FLOAT32_THRESHOLD_BOUND_V,
    KERNEL_DTYPE_ENV,
    dtype_token,
    resolve_dtype,
    threshold_grid,
    word_grid,
)
from repro.runtime.cache import design_fingerprint, task_key


class TestResolveDtype:
    def test_default_is_float64(self, monkeypatch):
        monkeypatch.delenv(KERNEL_DTYPE_ENV, raising=False)
        assert resolve_dtype() == np.float64

    def test_explicit_argument_forms(self):
        assert resolve_dtype("float32") == np.float32
        assert resolve_dtype(np.float32) == np.float32
        assert resolve_dtype(np.dtype("float64")) == np.float64

    def test_env_selects_default(self, monkeypatch):
        monkeypatch.setenv(KERNEL_DTYPE_ENV, "float32")
        assert resolve_dtype() == np.float32

    def test_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_DTYPE_ENV, "float32")
        assert resolve_dtype("float64") == np.float64

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv(KERNEL_DTYPE_ENV, "float16")
        with pytest.raises(ConfigurationError):
            resolve_dtype()

    @pytest.mark.parametrize("bad", ["int32", np.int64, "garbage",
                                     complex])
    def test_non_kernel_dtypes_raise(self, bad):
        with pytest.raises(ConfigurationError):
            resolve_dtype(bad)

    def test_dtype_token(self, monkeypatch):
        monkeypatch.delenv(KERNEL_DTYPE_ENV, raising=False)
        assert dtype_token() == "dtype/float64"
        assert dtype_token("float32") == "dtype/float32"


class TestFloat32Bound:
    """|T*_f32 - T*_f64| <= FLOAT32_THRESHOLD_BOUND_V, everywhere."""

    def _max_err(self, design, code, tech=None, bits=None):
        t64 = threshold_grid(design, (code,), tech, bits=bits)
        t32 = threshold_grid(design, (code,), tech, bits=bits,
                             dtype=np.float32)
        return float(np.max(np.abs(t32.astype(np.float64) - t64)))

    def test_paper_design_all_codes(self, design):
        for code in range(8):
            assert self._max_err(design, code) \
                < FLOAT32_THRESHOLD_BOUND_V

    @pytest.mark.parametrize("name", sorted(CORNERS))
    def test_all_corners(self, design, name):
        tech = corner_by_name(name).apply(design.tech)
        assert self._max_err(design, 3, tech=tech) \
            < FLOAT32_THRESHOLD_BOUND_V

    @settings(max_examples=15, deadline=None)
    @given(scale=st.floats(0.7, 1.4),
           code=st.integers(0, 7),
           corner=st.sampled_from(sorted(CORNERS)),
           seed=st.integers(0, 2**32 - 1))
    def test_property_variants_corners_masks(self, design, scale,
                                             code, corner, seed):
        variant = design.with_load_caps(
            tuple(c * scale for c in design.load_caps)
        )
        tech = corner_by_name(corner).apply(design.tech)
        rng = np.random.default_rng(seed)
        n_sel = int(rng.integers(1, design.n_bits + 1))
        bits = sorted(rng.choice(np.arange(1, design.n_bits + 1),
                                 size=n_sel, replace=False).tolist())
        try:
            err = self._max_err(variant, code, tech=tech, bits=bits)
        except ConfigurationError:
            # some (scale, corner, code) combinations have no root
            # below the bracket ceiling — physically unsolvable for
            # float64 too, so nothing to compare.
            assume(False)
        assert err < FLOAT32_THRESHOLD_BOUND_V

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_words_identical_outside_error_band(self, design, seed):
        """Decoded words agree bit-for-bit wherever float64 itself
        resolves the compare by more than the documented bound."""
        t64 = threshold_grid(design, (3,))[:, 0]
        t32 = threshold_grid(design, (3,), dtype=np.float32)[:, 0]
        rng = np.random.default_rng(seed)
        v = rng.uniform(t64.min() - 0.05, t64.max() + 0.05, size=500)
        margin = np.min(np.abs(v[:, None] - t64[None, :]), axis=1)
        clear = margin > FLOAT32_THRESHOLD_BOUND_V
        w64 = word_grid(v[clear], t64)
        w32 = word_grid(v[clear], t32.astype(np.float64))
        np.testing.assert_array_equal(w32, w64)


class TestFingerprintIsolation:
    """Numeric-stack state must be visible in every cache identity."""

    def test_dtype_env_changes_fingerprint(self, design, monkeypatch):
        monkeypatch.delenv(KERNEL_DTYPE_ENV, raising=False)
        fp64 = design_fingerprint(design)
        monkeypatch.setenv(KERNEL_DTYPE_ENV, "float32")
        assert design_fingerprint(design) != fp64

    def test_task_keys_distinct_per_dtype(self, design, monkeypatch):
        monkeypatch.delenv(KERNEL_DTYPE_ENV, raising=False)
        k64 = task_key("yield", design_fingerprint(design), "die-0")
        monkeypatch.setenv(KERNEL_DTYPE_ENV, "float32")
        k32 = task_key("yield", design_fingerprint(design), "die-0")
        assert k64 != k32
