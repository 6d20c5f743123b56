"""Finite-difference gradient checking utilities.

Every layer's hand-derived backward pass is validated against central
differences; these helpers are also exported for downstream users who add
custom layers.  Central differences need float64 to resolve, so the checks
run on a float64 copy of the layer or model (``Module.astype``); the
caller's float32 module is left untouched.
"""

from __future__ import annotations

import copy
from typing import Callable

import numpy as np

from .layers.base import Module
from .losses import SoftmaxCrossEntropy

__all__ = ["numeric_gradient", "check_layer_gradients", "relative_error"]


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise relative error with an absolute floor."""
    num = np.abs(a - b)
    den = np.maximum(np.abs(a) + np.abs(b), 1e-8)
    return float((num / den).max()) if num.size else 0.0


def numeric_gradient(
    f: Callable[[], float], x: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of scalar ``f()`` w.r.t. array ``x``.

    ``f`` must read ``x`` afresh on each call (the helper perturbs ``x`` in
    place and restores it).
    """
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def check_layer_gradients(
    layer: Module,
    x: np.ndarray,
    *,
    eps: float = 1e-5,
    tol: float = 1e-5,
    rng: np.random.Generator | None = None,
) -> dict[str, float]:
    """Verify input and parameter gradients of ``layer`` at input ``x``.

    Uses the scalar objective ``sum(layer(x) * R)`` with a fixed random
    projection ``R``, so the analytic gradient under test is
    ``layer.backward(R)``.  Returns the relative error per checked quantity
    and raises ``AssertionError`` when any exceeds ``tol``.
    """
    rng = rng if rng is not None else np.random.default_rng(123)
    layer = copy.deepcopy(layer).astype(np.float64)
    x = np.asarray(x, dtype=np.float64)
    out = layer.forward(x.copy())
    proj = rng.normal(size=out.shape)

    def objective() -> float:
        return float(np.sum(layer.forward(x.copy()) * proj))

    layer.zero_grad()
    layer.forward(x.copy())
    dx = layer.backward(proj.copy())

    errors: dict[str, float] = {}
    dx_num = numeric_gradient(objective, x, eps=eps)
    errors["input"] = relative_error(dx, dx_num)
    for p in layer.parameters():
        dp_num = numeric_gradient(objective, p.data, eps=eps)
        errors[p.name or f"param{id(p)}"] = relative_error(p.grad, dp_num)

    bad = {k: v for k, v in errors.items() if v > tol}
    if bad:
        raise AssertionError(f"gradient check failed: {bad}")
    return errors


def check_model_loss_gradients(
    model: Module,
    x: np.ndarray,
    targets: np.ndarray,
    *,
    eps: float = 1e-5,
    tol: float = 1e-4,
    max_entries: int = 40,
    rng: np.random.Generator | None = None,
) -> dict[str, float]:
    """Spot-check dLoss/dParam of a full model against central differences.

    Checking every coordinate of a model is quadratic in parameter count, so
    for each parameter a random subset of at most ``max_entries`` coordinates
    is verified.
    """
    rng = rng if rng is not None else np.random.default_rng(7)
    model = copy.deepcopy(model).astype(np.float64)
    x = np.asarray(x, dtype=np.float64)
    loss_fn = SoftmaxCrossEntropy()

    def objective() -> float:
        return loss_fn.forward(model.forward(x.copy()), targets)

    model.zero_grad()
    loss_fn.forward(model.forward(x.copy()), targets)
    model.backward(loss_fn.backward())

    errors: dict[str, float] = {}
    for p in model.parameters():
        flat = p.data.ravel()
        gflat = p.grad.ravel()
        idx = rng.choice(flat.size, size=min(max_entries, flat.size), replace=False)
        num = np.zeros(len(idx))
        for j, i in enumerate(idx):
            orig = flat[i]
            flat[i] = orig + eps
            fp = objective()
            flat[i] = orig - eps
            fm = objective()
            flat[i] = orig
            num[j] = (fp - fm) / (2.0 * eps)
        errors[p.name] = relative_error(gflat[idx], num)

    bad = {k: v for k, v in errors.items() if v > tol}
    if bad:
        raise AssertionError(f"model gradient check failed: {bad}")
    return errors
