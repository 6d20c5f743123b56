"""Closed-form activation-memory model for a training step.

Predicts the peak arena footprint of a planned (``static_memory=True``)
forward+backward step *without running the model*: the
:class:`repro.nn.MemoryPlan` shape-infers the layer graph, replays the
per-layer buffer request stream through a dry-run arena with the live
arena's exact bucket arithmetic, and reads off the byte counters.  Because
both sides share the bucket math by construction, the prediction is pinned
to the measured peak (``tests/perfmodel/test_memory_predictor.py`` holds it
to <5%; in practice the match is exact).

Bytes are counted in the dtype of the model's parameters — float32, the
4 bytes per activation ``repro.perfmodel.throughput`` prices, unless the
model was widened with ``Module.astype`` — since the planner sizes every
buffer by it.

The model answers the capacity-planning questions behind Figure 3's OOM
wall: how activation bytes scale with batch size, and the largest batch a
device's memory admits for a given model.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..nn.layers.base import Module
from ..nn.losses import SoftmaxCrossEntropy
from ..nn.memory import MemoryPlan

__all__ = ["MemoryEstimate", "predict_activation_bytes", "sweep_batch_sizes", "max_batch_size"]


@dataclass(frozen=True)
class MemoryEstimate:
    """Predicted steady-state arena footprint of one training step."""

    batch_size: int
    peak_bytes: int  #: high-water mark of live bucket bytes inside a step
    pool_bytes: int  #: bytes the arena retains between steps (slots + warm freelists)
    slot_bytes: int  #: persistent per-layer slots (activations, grads, masks)
    scratch_bucket_bytes: int  #: freelist capacity the call-scoped temporaries need
    num_slots: int

    @property
    def bytes_per_example(self) -> float:
        return self.peak_bytes / max(self.batch_size, 1)


def predict_activation_bytes(
    model: Module,
    input_shape: tuple[int, ...],
    batch_size: int,
    loss: SoftmaxCrossEntropy | None = None,
) -> MemoryEstimate:
    """Closed-form peak/pool bytes for a planned training step."""
    plan = MemoryPlan.build(model, input_shape, batch_size, loss=loss)
    return MemoryEstimate(
        batch_size=int(batch_size),
        peak_bytes=plan.peak_bytes,
        pool_bytes=plan.pool_bytes,
        slot_bytes=plan.slot_bytes,
        scratch_bucket_bytes=plan.scratch_bucket_bytes,
        num_slots=plan.num_slots,
    )


def sweep_batch_sizes(
    model_builder,
    input_shape: tuple[int, ...],
    batch_sizes,
    loss_factory=SoftmaxCrossEntropy,
) -> list[MemoryEstimate]:
    """Footprint-vs-batch-size curve (the memory analogue of Figure 3).

    ``model_builder`` is called once per batch size so layer caches never
    leak between plans.
    """
    return [
        predict_activation_bytes(
            model_builder(), input_shape, b, loss=loss_factory() if loss_factory else None
        )
        for b in batch_sizes
    ]


def max_batch_size(
    model_builder,
    input_shape: tuple[int, ...],
    memory_bytes: int,
    loss_factory=SoftmaxCrossEntropy,
    limit: int = 1 << 20,
) -> int:
    """Largest batch whose planned step fits in ``memory_bytes`` (0 if none).

    Peak bytes grow monotonically with batch size (every planned buffer's
    leading dimension is the batch), so binary search applies.
    """

    def fits(b: int) -> bool:
        est = predict_activation_bytes(
            model_builder(), input_shape, b, loss=loss_factory() if loss_factory else None
        )
        return est.pool_bytes <= memory_bytes

    if not fits(1):
        return 0
    lo, hi = 1, 2
    while hi <= limit and fits(hi):
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo
