"""The activation-memory predictor is pinned to the measured arena peak.

``predict_activation_bytes`` replays the planned request stream through a
dry-run arena sharing the live arena's bucket arithmetic, so its numbers
must match a real planned training step — the acceptance bound is 5%, but
by construction the match is exact and that is what we assert — at float32,
the dtype models are built in, and at float64 via ``Module.astype``.
"""

import numpy as np
import pytest

from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.memory import MemoryContext
from repro.nn.models import build_model
from repro.perfmodel import max_batch_size, predict_activation_bytes
from repro.perfmodel.memory import sweep_batch_sizes

BATCHES = [8, 32, 128, 256]


def _measure_peak(model, in_shape, batch, steps=2):
    """Run planned training steps in the model's dtype; return the live
    arena's high-water mark."""
    loss = SoftmaxCrossEntropy(label_smoothing=0.1)
    mem = MemoryContext()
    model.bind_memory(mem)
    loss.bind_memory(mem)
    rng = np.random.default_rng(0)
    dtype = model.parameters()[0].data.dtype
    x = rng.standard_normal((batch, *in_shape)).astype(dtype)
    y = rng.integers(0, 10, size=batch)
    for _ in range(steps):
        model.zero_grad()
        loss.forward(model.forward(x), y)
        model.backward(loss.backward())
    return mem.arena.peak_bytes


def _predicted_and_measured(batch, dtype):
    in_shape = (3, 16, 16)
    est = predict_activation_bytes(
        build_model("micro_resnet", width=8).astype(dtype), in_shape, batch,
        loss=SoftmaxCrossEntropy(label_smoothing=0.1))
    measured = _measure_peak(build_model("micro_resnet", width=8).astype(dtype),
                             in_shape, batch)
    # acceptance bound is 5%; the shared bucket math makes it exact
    assert abs(est.peak_bytes - measured) <= 0.05 * measured
    assert est.peak_bytes == measured
    return est.peak_bytes


@pytest.mark.parametrize("batch", BATCHES)
def test_prediction_matches_measured_peak(batch):
    _predicted_and_measured(batch, np.float32)


@pytest.mark.parametrize("batch", BATCHES)
def test_prediction_matches_measured_peak_fp64(batch):
    peak64 = _predicted_and_measured(batch, np.float64)
    # every activation buffer doubles; only the boolean masks do not
    peak32 = predict_activation_bytes(
        build_model("micro_resnet", width=8), (3, 16, 16), batch,
        loss=SoftmaxCrossEntropy(label_smoothing=0.1)).peak_bytes
    assert peak32 < peak64 < 2 * peak32


def test_prediction_matches_for_mlp():
    in_shape = (32,)
    model_kwargs = dict(in_features=32, hidden=[24, 16], num_classes=10,
                        batch_norm=True, flatten_input=False)
    est = predict_activation_bytes(
        build_model("mlp", **model_kwargs), in_shape, 16,
        loss=SoftmaxCrossEntropy(label_smoothing=0.1))
    measured = _measure_peak(build_model("mlp", **model_kwargs), in_shape, 16)
    assert est.peak_bytes == measured


def test_peak_grows_monotonically_with_batch():
    ests = sweep_batch_sizes(lambda: build_model("micro_resnet", width=8),
                             (3, 16, 16), BATCHES)
    peaks = [e.peak_bytes for e in ests]
    assert peaks == sorted(peaks) and peaks[0] < peaks[-1]
    # per-example cost is roughly flat: the plan is batch-linear up to
    # bucket rounding (powers of two admit up to 2x slack per buffer)
    per_ex = [e.bytes_per_example for e in ests]
    assert max(per_ex) < 2.5 * min(per_ex)


def test_estimate_decomposition_is_consistent():
    est = predict_activation_bytes(
        build_model("micro_resnet", width=8), (3, 16, 16), 8)
    assert est.pool_bytes == est.slot_bytes + est.scratch_bucket_bytes
    assert 0 < est.peak_bytes <= est.pool_bytes
    assert est.num_slots > 0


def test_max_batch_size_is_tight():
    builder = lambda: build_model("micro_resnet", width=8)  # noqa: E731
    in_shape = (3, 16, 16)
    b = max_batch_size(builder, in_shape, 64 * 2**20)
    assert b >= 1
    fits = predict_activation_bytes(builder(), in_shape, b,
                                    loss=SoftmaxCrossEntropy())
    over = predict_activation_bytes(builder(), in_shape, b + 1,
                                    loss=SoftmaxCrossEntropy())
    assert fits.pool_bytes <= 64 * 2**20 < over.pool_bytes


def test_max_batch_size_zero_when_nothing_fits():
    assert max_batch_size(lambda: build_model("micro_resnet", width=8),
                          (3, 16, 16), 1024) == 0
