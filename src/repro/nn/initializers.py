"""Weight initialisation schemes.

All initialisers take an explicit :class:`numpy.random.Generator` so that a
model replicated onto P simulated workers is bit-identical everywhere — the
prerequisite for the sequential-consistency tests in ``tests/cluster``.

The schemes match what the paper's stacks used: Caffe's ``gaussian`` /
``xavier`` fillers for AlexNet and MSRA (He) initialisation for ResNet.

Every initialiser returns float32, the precision of all the paper's runs.
Random fillers draw in float64 from the generator (the stream, and hence
every replica's weights, is unchanged by the precision) and cast once;
``Module.astype(np.float64)`` widens a model for float64 reference runs.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Initializer",
    "zeros",
    "ones",
    "constant",
    "gaussian",
    "uniform",
    "xavier",
    "he_normal",
    "he_uniform",
    "lecun_normal",
    "fan_in_out",
]

Initializer = Callable[[Sequence[int], np.random.Generator], np.ndarray]


def fan_in_out(shape: Sequence[int]) -> tuple[int, int]:
    """Compute (fan_in, fan_out) for dense and convolutional shapes.

    Dense weights are ``(in, out)``; convolution weights are
    ``(out_channels, in_channels, kh, kw)`` following Caffe's layout.
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0:
        return 1, 1
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[2:]))
    fan_out = shape[0] * receptive
    fan_in = shape[1] * receptive
    return fan_in, fan_out


def zeros(shape: Sequence[int], rng: np.random.Generator | None = None) -> np.ndarray:
    """All-zeros filler (the default bias initialiser)."""
    return np.zeros(shape, dtype=np.float32)


def ones(shape: Sequence[int], rng: np.random.Generator | None = None) -> np.ndarray:
    """All-ones filler (BatchNorm scale)."""
    return np.ones(shape, dtype=np.float32)


def constant(value: float) -> Initializer:
    """Caffe-style constant filler (AlexNet initialises some biases to 0.1)."""

    def init(shape: Sequence[int], rng: np.random.Generator | None = None) -> np.ndarray:
        return np.full(shape, float(value), dtype=np.float32)

    return init


def gaussian(std: float = 0.01, mean: float = 0.0) -> Initializer:
    """Caffe ``gaussian`` filler with fixed standard deviation."""

    def init(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        return rng.normal(mean, std, size=tuple(shape)).astype(np.float32)

    return init


def uniform(low: float = -0.05, high: float = 0.05) -> Initializer:
    """Uniform filler over [low, high)."""

    def init(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(low, high, size=tuple(shape)).astype(np.float32)

    return init


def xavier(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Caffe ``xavier`` filler: U(−a, a) with a = sqrt(3 / fan_in)."""
    fan_in, _ = fan_in_out(shape)
    a = np.sqrt(3.0 / max(fan_in, 1))
    return rng.uniform(-a, a, size=tuple(shape)).astype(np.float32)


def he_normal(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """MSRA initialisation: N(0, sqrt(2 / fan_in)); the ResNet paper's choice."""
    fan_in, _ = fan_in_out(shape)
    std = np.sqrt(2.0 / max(fan_in, 1))
    return rng.normal(0.0, std, size=tuple(shape)).astype(np.float32)


def he_uniform(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """He initialisation, uniform variant: U(−a, a), a = sqrt(6/fan_in)."""
    fan_in, _ = fan_in_out(shape)
    a = np.sqrt(6.0 / max(fan_in, 1))
    return rng.uniform(-a, a, size=tuple(shape)).astype(np.float32)


def lecun_normal(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """LeCun initialisation: N(0, sqrt(1/fan_in))."""
    fan_in, _ = fan_in_out(shape)
    std = np.sqrt(1.0 / max(fan_in, 1))
    return rng.normal(0.0, std, size=tuple(shape)).astype(np.float32)
