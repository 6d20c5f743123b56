"""Gradient compression — the bandwidth-side alternative the paper cites.

The paper's Background cites Seide et al.'s 1-bit SGD as the other route to
shrinking the |W|·E·n/B communication term: instead of growing B, shrink the
bytes per message.  This module implements the standard compressors with
error feedback so the large-batch approach can be *compared* against them
(``benchmarks/test_ablation_compression.py``):

* :class:`OneBitCompressor` — sign quantisation with a per-tensor scale and
  local error feedback (Seide et al. 2014).
* :class:`TopKCompressor` — magnitude sparsification with error feedback.
* :class:`UniformQuantizer` — b-bit uniform quantisation (no feedback
  needed at moderate b; deterministic rounding keeps replicas identical).
* :class:`NoCompression` — the identity baseline.

``compressed_allreduce`` runs the allgather-decompress-sum pattern: every
rank broadcasts its compressed contribution and reduces locally, so all
replicas see bit-identical results (sequential consistency of the
*compressed* algorithm — the compression error itself is the accuracy cost,
which the ablation measures).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..comm.communicator import Communicator

__all__ = [
    "Compressor",
    "NoCompression",
    "OneBitCompressor",
    "TopKCompressor",
    "UniformQuantizer",
    "compressed_allreduce",
    "CompressionStats",
]


@dataclass
class CompressionStats:
    """Accumulated wire accounting for one worker's compressor."""

    raw_bytes: int = 0
    compressed_bytes: int = 0

    @property
    def ratio(self) -> float:
        return self.raw_bytes / self.compressed_bytes if self.compressed_bytes else 1.0

    def record(self, raw: int, compressed: int) -> None:
        self.raw_bytes += raw
        self.compressed_bytes += compressed


class Compressor:
    """Base compressor: flat gradient → wire payload → approximation.

    Stateful: error-feedback compressors accumulate the quantisation
    residual locally and add it to the next gradient, which is what makes
    1-bit/top-k training converge.  The residual has the shape and dtype of
    the gradient it first sees, so one compressor serves one gradient
    buffer (the bucketed exchange keeps one per bucket).  Payloads carry
    their values in the gradient's dtype and decompress back to it.
    """

    def __init__(self) -> None:
        self.stats = CompressionStats()

    def compress(self, grad: np.ndarray):
        raise NotImplementedError

    def decompress(self, payload, n: int) -> np.ndarray:
        raise NotImplementedError

    def payload_nbytes(self, payload) -> int:
        raise NotImplementedError

    def roundtrip(self, grad: np.ndarray) -> np.ndarray:
        """compress→decompress (what the receiving ranks reconstruct)."""
        payload = self.compress(grad)
        return self.decompress(payload, grad.size)


class NoCompression(Compressor):
    """Identity baseline: full-precision gradients on the wire."""

    def compress(self, grad: np.ndarray):
        self.stats.record(grad.nbytes, grad.nbytes)
        return grad.copy()

    def decompress(self, payload, n: int) -> np.ndarray:
        return payload

    def payload_nbytes(self, payload) -> int:
        return payload.nbytes


class OneBitCompressor(Compressor):
    """1-bit SGD: transmit sign(g + residual) and one scale per tensor.

    The scale is the mean magnitude of the feedback-corrected gradient, so
    the reconstruction ``scale·sign`` is the least-squares 1-bit fit; the
    residual (what the bit could not express) feeds back into the next step.
    Wire cost: 1 bit per element + one scale in the gradient's dtype.
    """

    def __init__(self) -> None:
        super().__init__()
        self.residual: np.ndarray | None = None

    def compress(self, grad: np.ndarray):
        if self.residual is None:
            self.residual = np.zeros_like(grad)
        corrected = grad + self.residual
        scale = corrected.dtype.type(np.mean(np.abs(corrected)) if corrected.size else 0.0)
        bits = np.signbit(corrected)  # True = negative
        reconstruction = np.where(bits, -scale, scale)
        self.residual = corrected - reconstruction
        packed = np.packbits(bits)
        self.stats.record(grad.nbytes, packed.nbytes + scale.nbytes)
        return (scale, packed)

    def decompress(self, payload, n: int) -> np.ndarray:
        scale, packed = payload
        bits = np.unpackbits(packed, count=n).astype(bool)
        return np.where(bits, -scale, scale)

    def payload_nbytes(self, payload) -> int:
        scale, packed = payload
        return packed.nbytes + scale.nbytes


class TopKCompressor(Compressor):
    """Keep the k largest-magnitude coordinates; the rest feed back.

    Wire cost: k × (4-byte index + one value in the gradient's dtype).
    """

    def __init__(self, k: int):
        super().__init__()
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = int(k)
        self.residual: np.ndarray | None = None

    def compress(self, grad: np.ndarray):
        if self.residual is None:
            self.residual = np.zeros_like(grad)
        corrected = grad + self.residual
        k = min(self.k, corrected.size)
        idx = np.argpartition(np.abs(corrected), -k)[-k:]
        idx = np.sort(idx)  # deterministic order
        values = corrected[idx].copy()
        self.residual = corrected.copy()
        self.residual[idx] = 0.0
        self.stats.record(grad.nbytes, k * (4 + grad.itemsize))
        return (idx.astype(np.int64), values)

    def decompress(self, payload, n: int) -> np.ndarray:
        idx, values = payload
        out = np.zeros(n, dtype=values.dtype)
        out[idx] = values
        return out

    def payload_nbytes(self, payload) -> int:
        idx, values = payload
        return idx.size * 4 + values.nbytes


class UniformQuantizer(Compressor):
    """b-bit uniform quantisation over the tensor's dynamic range.

    Deterministic round-to-nearest; with b ≥ 8 the residual is negligible
    so no feedback is kept (matching fp16/int8 gradient compression in
    production stacks).  Wire cost: b bits per element + the range's two
    endpoints in the gradient's dtype.
    """

    def __init__(self, bits: int = 8):
        super().__init__()
        if not 1 <= bits <= 16:
            raise ValueError("bits must be in [1, 16]")
        self.bits = int(bits)

    def compress(self, grad: np.ndarray):
        dt = grad.dtype.type
        lo = dt(grad.min() if grad.size else 0.0)
        hi = dt(grad.max() if grad.size else 0.0)
        levels = (1 << self.bits) - 1
        span = hi - lo
        if span == 0.0:
            codes = np.zeros(grad.shape, dtype=np.uint16)
        else:
            codes = np.rint((grad - lo) / span * levels).astype(np.uint16)
        payload = (lo, hi, codes)
        self.stats.record(grad.nbytes, self.payload_nbytes(payload))
        return payload

    def decompress(self, payload, n: int) -> np.ndarray:
        lo, hi, codes = payload
        levels = (1 << self.bits) - 1
        if hi == lo:
            return np.full(n, lo)
        return lo + codes.astype(lo.dtype) / levels * (hi - lo)

    def payload_nbytes(self, payload) -> int:
        lo, hi, codes = payload
        return (codes.size * self.bits + 7) // 8 + lo.nbytes + hi.nbytes


def compressed_allreduce(
    comm: Communicator, grad: np.ndarray, compressor: Compressor
) -> np.ndarray:
    """Sum compressed gradients across ranks (allgather-decompress-sum).

    Every rank compresses its contribution, all payloads circulate on the
    ring, and each rank reconstructs and sums them in rank order — so the
    result is bit-identical everywhere and wire traffic is the compressed
    size instead of |W| (the fabric sees the true payload bytes).
    """
    n = grad.size
    payload = compressor.compress(grad.ravel())
    gathered = comm.allgather(payload)
    total = np.zeros(n, dtype=grad.dtype)
    for p in gathered:
        total += compressor.decompress(p, n)
    return total.reshape(grad.shape)
