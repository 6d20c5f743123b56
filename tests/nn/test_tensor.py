"""Tests for Parameter gradient bookkeeping."""

import numpy as np

from repro.nn import Parameter
from repro.nn.initializers import (
    constant,
    gaussian,
    he_normal,
    he_uniform,
    lecun_normal,
    ones,
    uniform,
    xavier,
    zeros,
)


def test_parameter_keeps_floating_dtype_initializers_give_fp32():
    for dtype in (np.float32, np.float64):
        p = Parameter(np.ones(3, dtype=dtype))
        assert p.data.dtype == dtype and p.grad.dtype == dtype
    # non-floating data becomes float64
    assert Parameter(np.array([1, 2, 3], dtype=np.int32)).data.dtype == np.float64
    rng = np.random.default_rng(0)
    for init in (zeros, ones, constant(0.1), gaussian(0.01), uniform(), xavier,
                 he_normal, he_uniform, lecun_normal):
        assert Parameter(init((4, 3), rng)).data.dtype == np.float32


def test_initializers_draw_in_float64_then_cast():
    # the generator stream is the float64 one, so the float32 weights are
    # the rounding of exactly the values a float64 draw would produce
    w = he_normal((8, 4, 3, 3), np.random.default_rng(5))
    ref = np.random.default_rng(5).normal(0.0, np.sqrt(2.0 / 36), size=(8, 4, 3, 3))
    assert np.array_equal(w, ref.astype(np.float32))


def test_grad_initialised_to_zero_same_shape():
    p = Parameter(np.ones((3, 4)))
    assert p.grad.shape == (3, 4)
    assert np.all(p.grad == 0)


def test_accumulate_sums_gradients():
    p = Parameter(np.zeros(4))
    p.accumulate(np.ones(4))
    p.accumulate(2 * np.ones(4))
    assert np.allclose(p.grad, 3.0)


def test_zero_grad_resets_in_place():
    p = Parameter(np.zeros(4))
    g = p.grad
    p.accumulate(np.ones(4))
    p.zero_grad()
    assert np.all(p.grad == 0)
    assert p.grad is g  # in place, not reallocated


def test_copy_is_deep():
    p = Parameter(np.ones(3), name="w", weight_decay=0.0)
    p.accumulate(np.ones(3))
    q = p.copy()
    q.data += 1
    q.grad += 1
    assert np.all(p.data == 1) and np.all(p.grad == 1)
    assert q.name == "w" and q.weight_decay == 0.0


def test_shape_and_size_properties():
    p = Parameter(np.zeros((2, 5)))
    assert p.shape == (2, 5)
    assert p.size == 10


def test_default_weight_decay_is_one():
    assert Parameter(np.zeros(1)).weight_decay == 1.0
