"""Mixed-precision (simulated fp16 + loss scaling) tests."""

import numpy as np
import pytest

from repro.core import MixedPrecisionOptimizer, SGD, fp16_roundtrip
from repro.nn import Parameter


def param(values):
    return Parameter(np.asarray(values, dtype=float))


class TestFp16Roundtrip:
    def test_representable_values_survive(self):
        x = np.array([1.0, -2.5, 100.0])
        assert np.allclose(fp16_roundtrip(x), x, rtol=1e-3)

    def test_tiny_gradients_underflow_to_zero(self):
        """The failure mode loss scaling exists to fix."""
        x = np.array([1e-9, -1e-10, 3e-8])
        out = fp16_roundtrip(x)
        assert np.all(out[:2] == 0.0)

    def test_huge_values_overflow_to_inf(self):
        assert not np.isfinite(fp16_roundtrip(np.array([1e6]))).all()

    def test_quantisation_error_bounded(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=200)
        assert np.abs(fp16_roundtrip(x) - x).max() < 2e-3  # ~2^-10 rel

    def test_keeps_the_input_dtype(self):
        for dtype in (np.float32, np.float64):
            x = np.array([0.1, 1e-9, 3.0], dtype=dtype)
            out = fp16_roundtrip(x)
            assert out.dtype == dtype
            assert np.array_equal(out, x.astype(np.float16).astype(dtype))


class TestLossScaling:
    def test_unscaled_tiny_gradients_are_lost(self):
        p = param([1.0])
        inner = SGD([p], momentum=0.0, weight_decay=0.0)
        opt = MixedPrecisionOptimizer(inner, init_scale=1.0, dynamic=False)
        p.grad[:] = [1e-9]  # underflows in fp16
        opt.step(lr=1.0)
        assert p.data[0] == 1.0  # gradient vanished

    def test_scaling_rescues_tiny_gradients(self):
        p = param([1.0])
        inner = SGD([p], momentum=0.0, weight_decay=0.0)
        opt = MixedPrecisionOptimizer(inner, init_scale=2.0**20, dynamic=False)
        raw = np.array([1e-6])
        p.grad[:] = opt.scale_loss_grad(raw)  # what scaled backprop produces
        opt.step(lr=1.0)
        assert p.data[0] == pytest.approx(1.0 - 1e-6, rel=1e-3)

    def test_overflow_skips_step(self):
        p = param([1.0])
        inner = SGD([p], momentum=0.0, weight_decay=0.0)
        opt = MixedPrecisionOptimizer(inner, init_scale=2.0**30, dynamic=True)
        p.grad[:] = opt.scale_loss_grad(np.array([1.0]))  # scaled -> inf
        scale_before = opt.scale
        opt.step(lr=1.0)
        assert p.data[0] == 1.0  # untouched
        assert opt.skipped_steps == 1
        assert opt.scale == scale_before / 2

    def test_dynamic_growth(self):
        p = param([0.0])
        inner = SGD([p], momentum=0.0, weight_decay=0.0)
        opt = MixedPrecisionOptimizer(inner, init_scale=4.0, dynamic=True,
                                      growth_interval=3)
        for _ in range(3):
            p.grad[:] = opt.scale_loss_grad(np.array([0.01]))
            opt.step(lr=0.1)
        assert opt.scale == 8.0

    def test_scale_bounded(self):
        p = param([0.0])
        inner = SGD([p], momentum=0.0, weight_decay=0.0)
        opt = MixedPrecisionOptimizer(inner, init_scale=2.0, dynamic=True,
                                      growth_interval=1, max_scale=4.0)
        for _ in range(5):
            p.grad[:] = opt.scale_loss_grad(np.array([0.01]))
            opt.step(lr=0.0)
        assert opt.scale == 4.0

    def test_matches_fp32_for_well_scaled_gradients(self):
        """With moderate gradients, mixed precision tracks fp32 closely."""
        p16, p32 = param([1.0, -1.0]), param([1.0, -1.0])
        opt16 = MixedPrecisionOptimizer(
            SGD([p16], momentum=0.9, weight_decay=0.0), init_scale=2.0**8,
            dynamic=False)
        opt32 = SGD([p32], momentum=0.9, weight_decay=0.0)
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = rng.normal(scale=0.1, size=2)
            p16.grad[:] = opt16.scale_loss_grad(g)
            p32.grad[:] = g
            opt16.step(lr=0.05)
            opt32.step(lr=0.05)
        assert np.allclose(p16.data, p32.data, atol=1e-3)

    def test_state_dict_roundtrip(self):
        p = param([1.0])
        opt = MixedPrecisionOptimizer(SGD([p], momentum=0.9, weight_decay=0.0))
        p.grad[:] = opt.scale_loss_grad(np.array([0.1]))
        opt.step(lr=0.1)
        snap = opt.state_dict()
        q = param(p.data.copy())
        opt2 = MixedPrecisionOptimizer(SGD([q], momentum=0.9, weight_decay=0.0))
        opt2.load_state_dict(snap)
        assert opt2.scale == opt.scale
        assert opt2.successful_steps == 1

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            MixedPrecisionOptimizer(SGD([param([1.0])]), init_scale=0.0)
