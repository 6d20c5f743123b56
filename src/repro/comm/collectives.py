"""Collective algorithms over point-to-point messaging, plus their analytic
α-β costs.

Three allreduce algorithms are provided, covering the design space the
paper's Table 2 sketches (its ``log(P) · t_comm`` iteration-time column is
the binomial-tree cost):

========================  =========================  ==========================
algorithm                 messages on critical path  bytes on critical path
========================  =========================  ==========================
``tree``  (binomial)      2·⌈log₂P⌉                  2·⌈log₂P⌉·n
``ring``                  2·(P−1)                    2·(P−1)·n/P ≈ 2n
``rhd`` (recursive        2·log₂P                    2·n·(1−1/P)
halving-doubling)
========================  =========================  ==========================

Each allreduce algorithm is implemented once, as a generator in
:data:`ALLREDUCE_ALGORITHMS` that sends through a callback and yields the
``(src, tag)`` it needs next.  Two drivers run it: :func:`allreduce` here
(blocking: every send and receive is charged to the rank clock) and
:class:`repro.comm.nonblocking.AllreduceRequest` (on the operation's own
pipeline clock).  Both therefore produce the same bits, message counts and
bytes.

Every blocking function takes a duck-typed ``comm`` exposing ``rank``,
``size``, ``send(dst, payload, tag)`` and ``recv(src, tag)``; the real
implementation is :class:`repro.comm.communicator.Communicator`.  All
algorithms reduce with exact elementwise addition in rank-deterministic
order, so every rank computes bit-identical results — the foundation of the
sequential-consistency guarantee.

Simulated time against :func:`allreduce_cost` (β in seconds per byte,
8-byte float64 elements; pinned by ``tests/comm/test_allreduce_drivers.py``): ring
and rhd take the same time blocking and nonblocking, within 2(P−1)·8β (ring)
and 2·log₂P·8β (rhd) of the model — the rounding of uneven chunks.  Tree
matches the model at power-of-two P.  Elsewhere the binomial tree is
incomplete and the model's 2·⌈log₂P⌉ full hops are only an upper bound:
blocking measured 0.75–0.92× of it, nonblocking 0.5–0.83×, and nonblocking
is never slower than blocking.
"""

from __future__ import annotations

import math

import numpy as np

from ..obs import NULL_SPAN, timed as _timed
from ..obs.metrics import get_registry as _get_registry
from ..obs.trace import get_tracer as _get_tracer
from .fabric import NetworkProfile


def _coll_span(op: str, comm, payload=None, algorithm: str | None = None):
    """Span + per-collective wall-latency histogram for one collective call.

    The histogram series is ``comm.<op>_s`` labeled by algorithm (where one
    exists), so e.g. tree vs. ring allreduce latencies stay separable; the
    span carries rank/nbytes for the timeline view.  Collapses to the shared
    no-op before building any attributes when telemetry is disabled.
    """
    if not (_get_tracer().enabled or _get_registry().enabled):
        return NULL_SPAN
    attrs = {"rank": comm.rank, "size": comm.size}
    if payload is not None:
        attrs["nbytes"] = int(getattr(payload, "nbytes", 0))
    labels = None
    if algorithm is not None:
        attrs["algorithm"] = algorithm
        labels = {"algorithm": algorithm}
    return _timed(f"comm.{op}", hist_labels=labels, **attrs)


def float_copy(array) -> np.ndarray:
    """A fresh copy of ``array`` to reduce into: floating input keeps its
    dtype (a float32 payload stays 4 bytes per element on the wire), any
    other input (integers, Python lists) becomes float64."""
    arr = np.asarray(array)
    return np.array(arr, dtype=arr.dtype if arr.dtype.kind == "f" else np.float64)


__all__ = [
    "bcast_tree",
    "reduce_tree",
    "allreduce",
    "check_allreduce",
    "allgather_ring",
    "barrier_dissemination",
    "ALLREDUCE_ALGORITHMS",
    "allreduce_cost",
    "allreduce_message_count",
    "bcast_cost",
    "reduce_cost",
]


def _vrank(rank: int, root: int, size: int) -> int:
    return (rank - root) % size


def _actual(vrank: int, root: int, size: int) -> int:
    return (vrank + root) % size


def bcast_tree(comm, value, root: int = 0, tag: int = 0):
    """Binomial-tree broadcast: ⌈log₂P⌉ stages, P−1 messages total."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return value
    with _coll_span("bcast", comm, value):
        v = _vrank(rank, root, size)
        mask = 1
        while mask < size:
            if v < mask:
                dst = v + mask
                if dst < size:
                    comm.send(_actual(dst, root, size), value, tag=tag)
            elif v < 2 * mask:
                value = comm.recv(_actual(v - mask, root, size), tag=tag)
            mask <<= 1
        return value


def reduce_tree(comm, array: np.ndarray, root: int = 0, tag: int = 0):
    """Binomial-tree sum-reduction to ``root``.

    Children are accumulated in ascending-mask order on every rank, so the
    floating-point summation order is deterministic.  Non-root ranks return
    ``None``.
    """
    size, rank = comm.size, comm.rank
    acc = float_copy(array)
    if size == 1:
        return acc
    with _coll_span("reduce", comm, acc):
        v = _vrank(rank, root, size)
        mask = 1
        while mask < size:
            if v & mask:
                comm.send(_actual(v - mask, root, size), acc, tag=tag)
                return None
            src = v + mask
            if src < size:
                acc += comm.recv(_actual(src, root, size), tag=tag)
            mask <<= 1
        return acc


# --------------------------------------------------------------------------
# Allreduce algorithms: generators over a floating vector ``flat`` that they
# may reduce in place.  They send through ``send(dst, payload, tag)``, yield
# ``(src, tag)`` for each message they need (the driver sends the payload
# back in), and use ``tag`` and ``tag + 1`` for their two phases.
# --------------------------------------------------------------------------


def _tree_steps(rank: int, size: int, send, flat: np.ndarray, tag: int):
    """Binomial reduce-to-0 then binomial broadcast — the paper's log(P)
    model.  Children accumulate in ascending-mask order on every rank."""
    acc = flat
    mask = 1
    while mask < size:
        if rank & mask:
            send(rank - mask, acc, tag)
            break
        src = rank + mask
        if src < size:
            acc += yield (src, tag)
        mask <<= 1
    mask = 1
    while mask < size:
        if rank < mask:
            dst = rank + mask
            if dst < size:
                send(dst, acc, tag + 1)
        elif rank < 2 * mask:
            acc = yield (rank - mask, tag + 1)
        mask <<= 1
    return acc


def _ring_steps(rank: int, size: int, send, flat: np.ndarray, tag: int):
    """Ring allreduce: reduce-scatter then ring allgather.

    Bandwidth-optimal (each rank moves ≈2n bytes regardless of P); this is
    the algorithm production stacks (NCCL, MLSL) use for large gradient
    tensors.
    """
    # Chunk boundaries follow np.array_split's convention (first n % P
    # chunks get the extra element) computed arithmetically — no temporary
    # chunk views on the per-iteration critical path.
    base, extra = divmod(flat.size, size)
    offsets = [0] * (size + 1)
    for r in range(size):
        offsets[r + 1] = offsets[r] + base + (1 if r < extra else 0)
    right = (rank + 1) % size
    left = (rank - 1) % size

    # reduce-scatter: after P-1 steps, rank owns the full sum of chunk
    # (rank+1) % size
    for step in range(size - 1):
        send_idx = (rank - step) % size
        recv_idx = (rank - step - 1) % size
        send(right, flat[offsets[send_idx] : offsets[send_idx + 1]], tag)
        incoming = yield (left, tag)
        flat[offsets[recv_idx] : offsets[recv_idx + 1]] += incoming

    # allgather: circulate the completed chunks
    for step in range(size - 1):
        send_idx = (rank - step + 1) % size
        recv_idx = (rank - step) % size
        send(right, flat[offsets[send_idx] : offsets[send_idx + 1]], tag + 1)
        incoming = yield (left, tag + 1)
        flat[offsets[recv_idx] : offsets[recv_idx + 1]] = incoming

    return flat


def _rhd_steps(rank: int, size: int, send, flat: np.ndarray, tag: int):
    """Recursive halving-doubling allreduce (power-of-two ranks only).

    Latency-optimal message count (2·log₂P) with near-bandwidth-optimal
    volume (2n·(1−1/P)); Rabenseifner's algorithm.
    """

    # Region boundaries come from identical arithmetic on all ranks, so the
    # keep/send splits agree without any coordination messages.
    def region(lo: int, hi: int, take_high: bool) -> tuple[int, int]:
        mid = (lo + hi) // 2
        return (mid, hi) if take_high else (lo, mid)

    # reduce-scatter by recursive halving; record each level's split so
    # the allgather can replay it in reverse
    levels: list[tuple[int, tuple[int, int], tuple[int, int]]] = []
    lo, hi = 0, flat.size
    mask = size >> 1
    while mask:
        partner = rank ^ mask
        i_am_high = bool(rank & mask)
        keep = region(lo, hi, i_am_high)
        give = region(lo, hi, not i_am_high)
        send(partner, flat[give[0] : give[1]], tag)
        flat[keep[0] : keep[1]] += yield (partner, tag)
        levels.append((partner, keep, give))
        lo, hi = keep
        mask >>= 1

    # allgather by recursive doubling: at each reversed level I own
    # `keep` fully reduced and my partner owns the sibling `give`;
    # exchanging them reconstructs the parent region.
    for partner, keep, give in reversed(levels):
        send(partner, flat[keep[0] : keep[1]], tag + 1)
        flat[give[0] : give[1]] = yield (partner, tag + 1)

    return flat


ALLREDUCE_ALGORITHMS = {
    "tree": _tree_steps,
    "ring": _ring_steps,
    "rhd": _rhd_steps,
}


def check_allreduce(algorithm: str, size: int) -> None:
    """Reject an unknown algorithm, or rhd on a non-power-of-two world."""
    if algorithm not in ALLREDUCE_ALGORITHMS:
        raise ValueError(
            f"unknown allreduce algorithm {algorithm!r}; "
            f"available: {sorted(ALLREDUCE_ALGORITHMS)}"
        )
    if algorithm == "rhd" and size & (size - 1):
        raise ValueError(
            f"rhd allreduce requires a power-of-two world (got {size}); "
            "pick algorithm='tree' or 'ring'"
        )


def allreduce(comm, array, algorithm: str = "tree", tag: int = 0) -> np.ndarray:
    """Blocking global sum of ``array``, bit-identical on every rank.

    Drives ``ALLREDUCE_ALGORITHMS[algorithm]`` with ``comm.send`` and answers
    each yield with ``comm.recv``, so every message is charged to the rank
    clock as in blocking MPI.  Returns a new array of ``array``'s shape in
    its floating dtype (see :func:`float_copy`).
    """
    check_allreduce(algorithm, comm.size)
    shape = np.shape(array)
    flat = float_copy(array).reshape(-1)
    with _coll_span("allreduce", comm, array, algorithm=algorithm):
        steps = ALLREDUCE_ALGORITHMS[algorithm](
            comm.rank, comm.size, comm.send, flat, tag
        )
        try:
            need = next(steps)
            while True:
                need = steps.send(comm.recv(*need))
        except StopIteration as stop:
            return stop.value.reshape(shape)


def allgather_ring(comm, array, tag: int = 0) -> list:
    """Ring allgather: every rank ends with [contribution₀ … contribution₋₁].

    Accepts arbitrary payloads (tuples of arrays, scalars, …) — only
    ndarrays are defensively copied.
    """
    size, rank = comm.size, comm.rank
    pieces: list = [None] * size
    pieces[rank] = np.array(array, copy=True) if isinstance(array, np.ndarray) else array
    if size == 1:
        return pieces
    with _coll_span("allgather", comm, array):
        right, left = (rank + 1) % size, (rank - 1) % size
        for step in range(size - 1):
            send_idx = (rank - step) % size
            recv_idx = (rank - step - 1) % size
            comm.send(right, pieces[send_idx], tag=tag)
            pieces[recv_idx] = comm.recv(left, tag=tag)
        return pieces


def barrier_dissemination(comm, tag: int = 0) -> None:
    """Dissemination barrier: ⌈log₂P⌉ rounds of shifted token exchange."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    with _coll_span("barrier", comm):
        k = 1
        while k < size:
            comm.send((rank + k) % size, np.zeros(0), tag=tag)
            comm.recv((rank - k) % size, tag=tag)
            k <<= 1
            tag += 1


# --------------------------------------------------------------------------
# Analytic critical-path costs (used by repro.perfmodel and checked against
# the simulated fabric in tests).
# --------------------------------------------------------------------------

def _log2ceil(p: int) -> int:
    return max(1, math.ceil(math.log2(p))) if p > 1 else 0


def bcast_cost(p: int, nbytes: int, profile: NetworkProfile) -> float:
    """Binomial broadcast critical path: ⌈log₂P⌉ sequential messages."""
    return _log2ceil(p) * profile.transfer_time(nbytes)


def reduce_cost(p: int, nbytes: int, profile: NetworkProfile) -> float:
    return _log2ceil(p) * profile.transfer_time(nbytes)


def allreduce_cost(
    p: int, nbytes: int, profile: NetworkProfile, algorithm: str = "tree"
) -> float:
    """Critical-path time of one allreduce of ``nbytes`` across ``p`` ranks."""
    if p <= 1:
        return 0.0
    if algorithm == "tree":
        return 2 * _log2ceil(p) * profile.transfer_time(nbytes)
    if algorithm == "ring":
        chunk = nbytes / p
        return 2 * (p - 1) * profile.transfer_time(chunk)
    if algorithm == "rhd":
        lg = _log2ceil(p)
        return 2 * lg * profile.alpha + 2 * nbytes * (1 - 1 / p) * profile.beta
    raise ValueError(f"unknown allreduce algorithm {algorithm!r}")


def allreduce_message_count(p: int, algorithm: str = "tree") -> int:
    """Messages on one rank's critical path (the paper's latency term)."""
    if p <= 1:
        return 0
    if algorithm == "tree":
        return 2 * _log2ceil(p)
    if algorithm == "ring":
        return 2 * (p - 1)
    if algorithm == "rhd":
        return 2 * _log2ceil(p)
    raise ValueError(f"unknown allreduce algorithm {algorithm!r}")
