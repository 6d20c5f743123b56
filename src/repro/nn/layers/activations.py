"""Elementwise activation layers.

Each layer has two code paths: the original eager one (allocates its
result, unchanged numerics) and a buffered one used when a memory context
is bound via ``Module.bind_memory`` or the caller passes ``out=``.  The
buffered paths produce bitwise-identical results for finite inputs — e.g.
``np.maximum(x, 0.0, out=y)`` reproduces ``np.where(x > 0, x, 0.0)``
exactly, including the ``+0.0`` sign at masked-off elements, and
``np.multiply(g, mask, out=dx)`` followed by ``dx += 0.0`` reproduces
``np.where(mask, g, 0.0)`` (the ``+= 0.0`` rewrites the ``-0.0`` a
negative gradient leaves behind; both forms differ from ``np.where`` only
on non-finite inputs, which the eager path would have turned into NaNs one
layer later anyway).
"""

from __future__ import annotations

import numpy as np

from .base import Module, Shape

__all__ = ["ReLU", "Sigmoid", "Tanh"]


class _Elementwise(Module):
    """Shared shape/flop logic for elementwise activations."""

    FLOPS_PER_ELEMENT = 1

    def output_shape(self, input_shape: Shape) -> Shape:
        return tuple(input_shape)

    def flops_per_example(self, input_shape: Shape) -> int:
        return self.FLOPS_PER_ELEMENT * int(np.prod(input_shape))


class ReLU(_Elementwise):
    """max(x, 0)."""

    _fusion_source = True  # buffered forward writes ``out`` via one ufunc

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self._memory is None and out is None:
            self._mask = x > 0
            return np.where(self._mask, x, 0.0)
        mask = self._buf("mask", x.shape, np.bool_)
        np.greater(x, 0, out=mask)
        self._mask = mask
        y = out if out is not None else self._buf("y", x.shape, x.dtype)
        np.maximum(x, 0.0, out=y)
        return y

    def backward(self, grad_out: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        if self._memory is None and out is None:
            dx = np.where(self._mask, grad_out, 0.0)
            self._mask = None
            return dx
        dx = out if out is not None else self._buf("dx", grad_out.shape, grad_out.dtype)
        np.multiply(grad_out, self._mask, out=dx)
        dx += 0.0
        self._mask = None
        return dx


class Sigmoid(_Elementwise):
    FLOPS_PER_ELEMENT = 4

    def __init__(self) -> None:
        super().__init__()
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self._memory is None and out is None:
            # numerically stable logistic: exp only ever sees non-positive args
            y = np.empty_like(x)
            pos = x >= 0
            y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            y[~pos] = ex / (1.0 + ex)
            self._y = y
            return self._y
        # Same stable split, computed in place under ufunc ``where=`` masks;
        # per element the operation sequence is identical to the eager path.
        pos = self._buf("pos", x.shape, np.bool_)
        np.greater_equal(x, 0, out=pos)
        neg = self._buf("neg", x.shape, np.bool_)
        np.logical_not(pos, out=neg)
        t = self._scratch(x.shape, x.dtype)
        y = out if out is not None else self._buf("y", x.shape, x.dtype)
        np.negative(x, out=t, where=pos)
        np.exp(t, out=t, where=pos)
        np.add(t, 1.0, out=t, where=pos)
        np.divide(1.0, t, out=y, where=pos)
        np.exp(x, out=t, where=neg)
        u = self._scratch(x.shape, x.dtype)
        np.add(t, 1.0, out=u, where=neg)
        np.divide(t, u, out=y, where=neg)
        self._drop(u)
        self._drop(t)
        self._y = y
        return y

    def backward(self, grad_out: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward called before forward")
        if self._memory is None and out is None:
            dx = grad_out * self._y * (1.0 - self._y)
            self._y = None
            return dx
        dx = out if out is not None else self._buf("dx", grad_out.shape, grad_out.dtype)
        np.multiply(grad_out, self._y, out=dx)
        t = self._scratch(grad_out.shape, grad_out.dtype)
        np.subtract(1.0, self._y, out=t)
        dx *= t
        self._drop(t)
        self._y = None
        return dx


class Tanh(_Elementwise):
    FLOPS_PER_ELEMENT = 4

    def __init__(self) -> None:
        super().__init__()
        self._y: np.ndarray | None = None

    def forward(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self._memory is None and out is None:
            self._y = np.tanh(x)
            return self._y
        y = out if out is not None else self._buf("y", x.shape, x.dtype)
        np.tanh(x, out=y)
        self._y = y
        return y

    def backward(self, grad_out: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self._y is None:
            raise RuntimeError("backward called before forward")
        if self._memory is None and out is None:
            dx = grad_out * (1.0 - self._y * self._y)
            self._y = None
            return dx
        t = self._scratch(grad_out.shape, grad_out.dtype)
        np.multiply(self._y, self._y, out=t)
        np.subtract(1.0, t, out=t)
        dx = out if out is not None else self._buf("dx", grad_out.shape, grad_out.dtype)
        np.multiply(grad_out, t, out=dx)
        self._drop(t)
        self._y = None
        return dx
