"""Bitwise eager-vs-planned parity across the model registry.

The static-memory mode (persistent arena slots threaded through ``out=``)
must change *nothing* numerically — every comparison here is exact array
equality over multiple optimiser steps, which catches both arithmetic
drift (a reordered reduction) and state leaks (a stale buffer read).

Two more invariants ride along:

* **zero steady state** — once slots exist (after the first step; the
  second is allowed to add backward-only buffers), further steps perform
  zero fresh arena allocations;
* **exact peak prediction** — :func:`plan_training_step` replays the same
  request stream through a dry-run arena, so its ``peak_bytes`` equals the
  live arena's high-water mark to the byte.

Models train in float32, the dtype they are built in; the ``_fp64``
variants widen them with ``Module.astype`` and feed float64 data, so both
precisions keep parity and exact prediction.
"""

import numpy as np
import pytest

from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.memory import MemoryContext, plan_training_step
from repro.nn.models import build_model

STEPS = 4

CONFIGS = [
    pytest.param(
        "mlp",
        dict(in_features=32, hidden=[24, 16], num_classes=5, batch_norm=True,
             flatten_input=False),
        (32,), 8, id="mlp-bn"),
    pytest.param(
        "micro_alexnet", dict(image_size=16, norm="bn", dropout=0.5),
        (3, 16, 16), 8, id="alexnet-bn-dropout"),
    pytest.param(
        "micro_alexnet", dict(image_size=16, norm="lrn", dropout=0.25),
        (3, 16, 16), 8, id="alexnet-lrn-dropout"),
    pytest.param(
        "micro_resnet", dict(width=8), (3, 16, 16), 8, id="micro_resnet"),
    pytest.param(
        "micro_googlenet", dict(width=8), (3, 16, 16), 8, id="micro_googlenet"),
]


def _data(name, kwargs, in_shape, batch, dtype=np.float32):
    rng = np.random.default_rng(42)
    xs = [rng.standard_normal((batch, *in_shape)).astype(dtype) for _ in range(STEPS)]
    ncls = kwargs.get("num_classes", 10)
    ys = [rng.integers(0, ncls, size=batch) for _ in range(STEPS)]
    return xs, ys


def _run(name, kwargs, xs, ys, planned):
    """Train STEPS plain-SGD steps in the data's dtype; record everything
    observable each step."""
    model = build_model(name, **kwargs).astype(xs[0].dtype)
    loss = SoftmaxCrossEntropy(label_smoothing=0.1)
    mem = None
    if planned:
        mem = MemoryContext()
        model.bind_memory(mem)
        loss.bind_memory(mem)
    records, allocs = [], []
    for t in range(STEPS):
        model.zero_grad()
        before = mem.bytes_allocated if mem else 0
        logits = model.forward(xs[t])
        loss_val = loss.forward(logits, ys[t])
        model.backward(loss.backward())
        allocs.append((mem.bytes_allocated - before) if mem else 0)
        grads = {p.name: p.grad.copy() for p in model.parameters()}
        for p in model.parameters():
            p.data -= 0.01 * p.grad
        weights = {p.name: p.data.copy() for p in model.parameters()}
        records.append((loss_val, logits.copy(), grads, weights))
    return records, allocs, mem


def _assert_planned_matches_eager(name, kwargs, in_shape, batch, dtype):
    xs, ys = _data(name, kwargs, in_shape, batch, dtype)
    eager, _, _ = _run(name, kwargs, xs, ys, planned=False)
    planned, _, _ = _run(name, kwargs, xs, ys, planned=True)
    for t in range(STEPS):
        loss_e, logits_e, grads_e, weights_e = eager[t]
        loss_p, logits_p, grads_p, weights_p = planned[t]
        assert loss_e == loss_p, f"step {t}: loss differs"
        np.testing.assert_array_equal(logits_e, logits_p, err_msg=f"step {t}")
        for k in grads_e:
            np.testing.assert_array_equal(
                grads_e[k], grads_p[k], err_msg=f"step {t}: grad {k}")
        for k in weights_e:
            np.testing.assert_array_equal(
                weights_e[k], weights_p[k], err_msg=f"step {t}: weight {k}")
        assert logits_p.dtype == dtype


@pytest.mark.parametrize("name,kwargs,in_shape,batch", CONFIGS)
def test_planned_is_bitwise_identical_to_eager(name, kwargs, in_shape, batch):
    _assert_planned_matches_eager(name, kwargs, in_shape, batch, np.float32)


@pytest.mark.parametrize("name,kwargs,in_shape,batch", CONFIGS)
def test_planned_is_bitwise_identical_to_eager_fp64(name, kwargs, in_shape, batch):
    _assert_planned_matches_eager(name, kwargs, in_shape, batch, np.float64)


@pytest.mark.parametrize("name,kwargs,in_shape,batch", CONFIGS)
def test_steady_state_performs_zero_allocations(name, kwargs, in_shape, batch):
    xs, ys = _data(name, kwargs, in_shape, batch)
    _, allocs, _ = _run(name, kwargs, xs, ys, planned=True)
    assert allocs[0] > 0  # first step populates the slots
    assert allocs[2:] == [0] * (STEPS - 2), (
        f"steady-state steps allocated: {allocs}")


def _assert_plan_matches_live(name, kwargs, in_shape, batch, dtype):
    xs, ys = _data(name, kwargs, in_shape, batch, dtype)
    _, _, mem = _run(name, kwargs, xs, ys, planned=True)
    plan = plan_training_step(build_model(name, **kwargs).astype(dtype), in_shape,
                              batch, loss=SoftmaxCrossEntropy(label_smoothing=0.1))
    assert plan.peak_bytes == mem.arena.peak_bytes
    assert plan.pool_bytes == mem.arena.pool_bytes
    return plan


@pytest.mark.parametrize("name,kwargs,in_shape,batch", CONFIGS)
def test_plan_peak_matches_live_arena_exactly(name, kwargs, in_shape, batch):
    _assert_plan_matches_live(name, kwargs, in_shape, batch, np.float32)


@pytest.mark.parametrize("name,kwargs,in_shape,batch", CONFIGS)
def test_plan_peak_matches_live_arena_exactly_fp64(name, kwargs, in_shape, batch):
    plan = _assert_plan_matches_live(name, kwargs, in_shape, batch, np.float64)
    assert all(b.dtype in ("float64", "bool", "int64") for b in plan.buffers)


def test_close_then_rebind_is_still_bitwise_stable():
    # After MemoryContext.close() the pool is warm; a fresh run through the
    # same model must reuse it and stay bitwise identical to eager.
    name, kwargs, in_shape, batch = "micro_resnet", dict(width=8), (3, 16, 16), 4
    xs, ys = _data(name, kwargs, in_shape, batch)
    eager, _, _ = _run(name, kwargs, xs, ys, planned=False)
    model = build_model(name, **kwargs)
    loss = SoftmaxCrossEntropy(label_smoothing=0.1)
    mem = MemoryContext()
    model.bind_memory(mem)
    loss.bind_memory(mem)
    model.zero_grad()
    logits = model.forward(xs[0])
    loss.forward(logits, ys[0])
    model.backward(loss.backward())
    mem.close()
    allocated = mem.bytes_allocated
    # second pass over the same shapes: warm pool, no fresh allocations.
    # Slots were re-dealt from the freelist, so copy the logits before
    # backward — a slot's contents are only pinned until they are consumed.
    model.zero_grad()
    logits = model.forward(xs[0]).copy()
    loss_val = loss.forward(logits, ys[0])
    model.backward(loss.backward())
    assert mem.bytes_allocated == allocated
    assert loss_val == eager[0][0]
    np.testing.assert_array_equal(logits, eager[0][1])
