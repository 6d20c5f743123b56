"""Mixed-precision training, simulated — FP32 master weights + FP16
gradients with (dynamic) loss scaling.

Context in the paper: NVIDIA's 2-hour DGX-1 AlexNet figure used
half-precision, "whose cost is half of the standard single-precision
operation", while all the paper's own runs are fp32.  This module makes the
comparison runnable: :class:`MixedPrecisionOptimizer` wraps any optimiser
and reproduces fp16's numerical behaviour on the fp32 substrate (or a
float64 model, see ``Module.astype``) by round-tripping gradients through
``np.float16`` and back to their own dtype:

* small gradients **underflow to zero** in fp16 (the failure mode),
* **loss scaling** multiplies the loss by S so gradients land in fp16's
  range, then unscales before the update (the standard fix),
* **dynamic scaling** grows S while steps succeed and halves it on
  overflow (skipping the bad step), as in production AMP stacks.
"""

from __future__ import annotations

import numpy as np

from ..nn.tensor import Parameter
from .optimizer import Optimizer

__all__ = ["MixedPrecisionOptimizer", "fp16_roundtrip"]

#: largest finite value of IEEE half precision
FP16_MAX = 65504.0


def fp16_roundtrip(x: np.ndarray) -> np.ndarray:
    """Quantise through IEEE fp16: values < ~6e-8 flush to zero, values
    beyond ±65504 become ±inf — exactly half precision's behaviour.  The
    result has ``x``'s dtype."""
    with np.errstate(over="ignore"):  # overflow to inf is the point
        return x.astype(np.float16).astype(x.dtype)


class MixedPrecisionOptimizer(Optimizer):
    """Wrap an optimiser with simulated fp16 gradient storage + loss scaling.

    Protocol (matching AMP): the training loop scales the *loss gradient*
    by ``scale`` before backprop (use :meth:`scale_loss_grad`); the wrapper
    then (1) quantises the accumulated gradients to fp16 — this is where
    gradients would have lived on a half-precision device —, (2) checks for
    inf/nan, (3) unscales into fp32 and delegates the actual update to the
    inner optimiser's master weights.

    ``dynamic=True`` doubles the scale every ``growth_interval`` successful
    steps and halves it (skipping the update) on overflow.
    """

    def __init__(
        self,
        inner: Optimizer,
        init_scale: float = 2.0**10,
        dynamic: bool = True,
        growth_interval: int = 100,
        min_scale: float = 1.0,
        max_scale: float = 2.0**24,
    ):
        super().__init__(inner.params)
        if init_scale <= 0:
            raise ValueError("init_scale must be positive")
        self.inner = inner
        self.scale = float(init_scale)
        self.dynamic = bool(dynamic)
        self.growth_interval = int(growth_interval)
        self.min_scale = float(min_scale)
        self.max_scale = float(max_scale)
        self.successful_steps = 0
        self.skipped_steps = 0

    def scale_loss_grad(self, grad: np.ndarray) -> np.ndarray:
        """Apply the loss scale to the loss gradient before backprop."""
        return grad * self.scale

    def step(self, lr: float) -> None:
        """Quantise grads to fp16, detect overflow, unscale, update."""
        quantised = [fp16_roundtrip(p.grad) for p in self.params]
        overflow = any(not np.isfinite(q).all() for q in quantised)
        if overflow:
            self.skipped_steps += 1
            if self.dynamic:
                self.scale = max(self.scale / 2.0, self.min_scale)
            # skip the update entirely (production AMP behaviour)
            for p in self.params:
                p.zero_grad()
            self.step_count += 1
            return
        for p, q in zip(self.params, quantised):
            p.grad[...] = q / self.scale
        self.inner.step(lr)
        self.successful_steps += 1
        self.step_count += 1
        if self.dynamic and self.successful_steps % self.growth_interval == 0:
            self.scale = min(self.scale * 2.0, self.max_scale)

    def apply_update(self, p: Parameter, state: dict, lr: float) -> None:
        raise NotImplementedError("MixedPrecisionOptimizer overrides step()")

    def state_dict(self) -> dict:
        snap = self.inner.state_dict()
        snap["mp_scale"] = self.scale
        snap["mp_successful"] = self.successful_steps
        snap["mp_skipped"] = self.skipped_steps
        return snap

    def load_state_dict(self, snapshot: dict) -> None:
        self.scale = float(snapshot.pop("mp_scale", self.scale))
        self.successful_steps = int(snapshot.pop("mp_successful", 0))
        self.skipped_steps = int(snapshot.pop("mp_skipped", 0))
        self.inner.load_state_dict(snapshot)
