"""Data augmentation pipelines.

The paper distinguishes three regimes and shows they shift the whole
accuracy-vs-batch curve (Table 10):

* **none**  — "There is no data augmentation in all the results" (main
  experiments; 73.0 % ResNet-50 baseline);
* **weak**  — mirror + small random crop ("weak data augmentation",
  75.3 % baseline);
* **heavy** — adds scale/aspect and photometric jitter (Facebook-style,
  76.3 % baseline — which the paper could not fully reproduce).

Pipelines operate on channels-first batches and draw all randomness from an
explicit generator so augmented cluster runs stay reproducible.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["random_flip", "random_crop", "intensity_jitter", "pipeline", "AUGMENTATIONS"]

Transform = Callable[[np.ndarray, np.random.Generator], np.ndarray]


def random_flip(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Horizontal mirror with probability 1/2 per example."""
    flip = rng.random(len(x)) < 0.5
    out = x.copy()
    out[flip] = out[flip, :, :, ::-1]
    return out


def random_crop(pad: int = 2) -> Transform:
    """Zero-pad by ``pad`` and crop back at a random offset per example."""

    def transform(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n, c, h, w = x.shape
        padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        out = np.empty_like(x)
        offsets = rng.integers(0, 2 * pad + 1, size=(n, 2))
        for (dy, dx) in np.unique(offsets, axis=0):
            mask = (offsets[:, 0] == dy) & (offsets[:, 1] == dx)
            out[mask] = padded[mask, :, dy : dy + h, dx : dx + w]
        return out

    return transform


def intensity_jitter(strength: float = 0.2) -> Transform:
    """Per-example brightness/contrast jitter (the 'heavy' photometric part).

    The jitter is drawn in float64 and cast to the batch's dtype, so a
    float32 batch stays float32.
    """

    def transform(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n = len(x)
        scale = rng.uniform(1 - strength, 1 + strength, size=(n, 1, 1, 1))
        shift = rng.uniform(-strength, strength, size=(n, 1, 1, 1))
        return x * scale.astype(x.dtype) + shift.astype(x.dtype)

    return transform


def pipeline(*transforms: Transform) -> Transform:
    """Compose transforms left to right."""

    def transform(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        for t in transforms:
            x = t(x, rng)
        return x

    return transform


def _identity(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    return x


#: the paper's three augmentation regimes
AUGMENTATIONS: dict[str, Transform] = {
    "none": _identity,
    "weak": pipeline(random_flip, random_crop(pad=1)),
    "heavy": pipeline(random_flip, random_crop(pad=2), intensity_jitter(0.25)),
}
