"""Gradient packing: flatten all parameter gradients into one buffer.

Production stacks fuse gradient tensors into large buckets before the
allreduce so the α (latency) term is paid once per iteration rather than
once per layer; the paper's communication analysis (|W| bytes per iteration,
one logical message) assumes exactly this.  ``flatten``/``unflatten`` give
the simulated cluster the same wire format.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..nn.tensor import Parameter

__all__ = ["flatten_grads", "unflatten_grads", "flatten_params", "unflatten_params"]


def _flatten(arrays: Sequence[np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
    if not arrays:
        raise ValueError("nothing to flatten")
    total = sum(a.size for a in arrays)
    if out is None:
        # single preallocation + one fill pass; np.concatenate would first
        # materialise a temp list of per-array copies for non-contiguous
        # inputs, doubling the transient footprint at |W| scale
        out = np.empty(total, dtype=arrays[0].dtype)
    elif out.shape != (total,):
        raise ValueError(f"out buffer has shape {out.shape}, expected ({total},)")
    offset = 0
    for a in arrays:
        flat = a.reshape(-1)
        out[offset : offset + flat.size] = flat
        offset += flat.size
    return out


def _unflatten_into(flat: np.ndarray, targets: Sequence[np.ndarray]) -> None:
    total = sum(t.size for t in targets)
    if flat.size != total:
        raise ValueError(f"flat buffer has {flat.size} elements, expected {total}")
    offset = 0
    for t in targets:
        t[...] = flat[offset : offset + t.size].reshape(t.shape)
        offset += t.size


def flatten_grads(
    params: Sequence[Parameter], out: np.ndarray | None = None
) -> np.ndarray:
    """One contiguous buffer (the gradients' dtype) holding every gradient, in order.

    ``out`` lets the per-iteration caller reuse one bucket buffer instead of
    reallocating |W| floats every step (the same buffer-reuse discipline
    production gradient-fusion stacks apply).
    """
    return _flatten([p.grad for p in params], out=out)


def unflatten_grads(flat: np.ndarray, params: Sequence[Parameter]) -> None:
    """Write ``flat`` back into the gradients (in place)."""
    _unflatten_into(flat, [p.grad for p in params])


def flatten_params(
    params: Sequence[Parameter], out: np.ndarray | None = None
) -> np.ndarray:
    """One contiguous buffer of the parameter *values* (weight broadcast)."""
    return _flatten([p.data for p in params], out=out)


def unflatten_params(flat: np.ndarray, params: Sequence[Parameter]) -> None:
    _unflatten_into(flat, [p.data for p in params])
