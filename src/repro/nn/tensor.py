"""Trainable parameters and gradient bookkeeping.

The framework is deliberately eager and explicit: every layer owns
:class:`Parameter` objects, ``forward`` caches what ``backward`` needs, and
``backward`` accumulates gradients into ``Parameter.grad``.  There is no
autograd tape — backprop is hand-derived per layer and verified by
finite-difference checks in ``repro.nn.gradcheck``.

Gradients accumulate (``+=``) rather than overwrite so a parameter that is
shared between layers, or a batch that is processed in several micro-batch
chunks, sums its contributions exactly the way a large-batch step requires.
Call :meth:`Parameter.zero_grad` (or ``Module.zero_grad``) between steps.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Parameter", "Workspace"]


class Workspace:
    """Reusable scratch buffers keyed by (tag, shape, dtype).

    Hot-path kernels (``im2col`` columns, flattened gradient buckets) fill
    the same-shaped temporary every iteration; allocating it fresh each time
    pays page-fault and allocator cost proportional to the buffer size.  A
    workspace hands back the *same* array on every request with a matching
    key, so steady-state iterations allocate nothing.

    Buffers are returned uninitialised (like ``np.empty``) and must be fully
    overwritten by the caller.  Not thread-safe; simulated ranks each own
    their model, and each model layer owns its workspace.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}

    def get(self, tag: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """Return a reusable uninitialised array of ``shape``/``dtype``."""
        key = (tag, shape, np.dtype(dtype))
        buf = self._buffers.get(key)
        if buf is None:
            buf = self._buffers[key] = np.empty(shape, dtype=dtype)
        return buf

    def clear(self) -> None:
        """Drop every cached buffer (frees the memory)."""
        self._buffers.clear()


class Parameter:
    """A named trainable array with an accumulated gradient.

    Parameters
    ----------
    data:
        Initial value.  Floating data keeps its own dtype — the initializers
        hand out float32, the precision of every run in the paper, and
        layers compute in the dtype of their input and parameters.  Other
        data (integers, Python lists) is converted to float64.  The one way
        to change a model's precision is ``Module.astype``, which
        reference tests use to run at float64.
    name:
        Dotted path assigned by the owning module tree (e.g.
        ``"features.0.weight"``).  Used by optimisers for per-layer rules
        (LARS excludes biases/BN params via the name) and by the cluster
        layer for deterministic parameter ordering.
    weight_decay:
        Per-parameter multiplier applied to the global weight-decay
        coefficient.  The paper's recipes (and the reference LARS
        implementation) do not decay biases or BatchNorm scale/shift, which
        layers express by constructing those parameters with
        ``weight_decay=0.0``.
    """

    __slots__ = ("data", "grad", "name", "weight_decay")

    def __init__(self, data: np.ndarray, name: str = "", weight_decay: float = 1.0):
        data = np.asarray(data)
        if data.dtype.kind != "f":
            data = data.astype(np.float64)
        self.data = data
        self.grad = np.zeros_like(self.data)
        self.name = name
        self.weight_decay = float(weight_decay)

    # -- gradient management -------------------------------------------------
    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero (in place)."""
        self.grad[...] = 0.0

    def accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into the stored gradient (micro-batch accumulation)."""
        self.grad += grad

    # -- introspection -------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def size(self) -> int:
        """Number of trainable scalars."""
        return self.data.size

    def copy(self) -> "Parameter":
        """Deep copy (used by workers to replicate the model)."""
        p = Parameter(self.data.copy(), name=self.name, weight_decay=self.weight_decay)
        p.grad = self.grad.copy()
        return p

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Parameter(name={self.name!r}, shape={self.data.shape}, wd={self.weight_decay})"
