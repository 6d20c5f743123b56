"""Closed-form predictor for overlapped bucketed gradient synchronization.

The simulated cluster (``repro.cluster.bucketing``) charges each rank
``max(compute, comm)`` per step: bucket *k* launches once backward has
produced its gradients — at ``t_fwd + t_bwd·cumfrac_k`` into the step —
and its allreduce runs on the operation's own pipeline clock, only joining
the rank clock at the final wait.  Because every rank launches bucket *k*
at the same simulated offset (symmetric shards, no faults), each bucket's
allreduce finishes exactly ``allreduce_cost`` after its launch, giving the
exact step time

    step = max(t_comp, max_k (ready_k + allreduce_cost(P, nbytes_k)))

with ``ready_k = t_fwd + t_bwd·cumfrac_k`` and ``t_fwd = fwd_fraction ·
t_comp``.  This module evaluates that expression analytically so the
bucket-size / algorithm / world sweeps of the paper's communication
analysis can be explored without running the simulator — and so the
simulator itself can be validated against the formula (the acceptance
test requires agreement within 5%; in the fault-free symmetric case they
agree to float rounding).

The same greedy partition rule the cluster layer uses lives here
(:func:`greedy_partition`), keeping the predictor and the simulator's
bucket boundaries identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..comm.collectives import allreduce_cost, allreduce_message_count
from ..comm.fabric import NetworkProfile

__all__ = [
    "greedy_partition",
    "OverlapStepEstimate",
    "predict_step_time",
    "predict_run_seconds",
]

#: forward / (forward+backward) split the simulator charges (backward ≈ 2×
#: forward, the standard convnet ratio the repo's time model already uses)
FWD_FRACTION = 1.0 / 3.0

#: bucket size used when overlap is requested without an explicit size
DEFAULT_BUCKET_BYTES = 1 << 20

#: wire bytes of the per-epoch [loss, correct, seen] stats allreduce
STATS_NBYTES = 24


def greedy_partition(sizes: list[int], bucket_bytes: int) -> list[list[int]]:
    """Partition ``sizes`` (bytes, already in launch order) into buckets.

    Greedy fill: a bucket closes as soon as it reaches ``bucket_bytes``, so
    a single tensor larger than the target gets a bucket of its own.  This
    is the exact rule ``repro.cluster.bucketing.BucketPlan`` applies.
    """
    if bucket_bytes <= 0:
        raise ValueError(f"bucket_bytes must be positive (got {bucket_bytes})")
    buckets: list[list[int]] = []
    current: list[int] = []
    filled = 0
    for size in sizes:
        current.append(size)
        filled += size
        if filled >= bucket_bytes:
            buckets.append(current)
            current, filled = [], 0
    if current:
        buckets.append(current)
    return buckets


@dataclass(frozen=True)
class OverlapStepEstimate:
    """One overlapped step, decomposed the way the simulator accounts it."""

    compute_seconds: float
    #: per-bucket (launch offset into the step, allreduce completion offset)
    bucket_times: tuple[tuple[float, float], ...]
    messages_per_step: int

    @property
    def step_seconds(self) -> float:
        last_comm = max((done for _, done in self.bucket_times), default=0.0)
        return max(self.compute_seconds, last_comm)

    @property
    def exposed_comm_seconds(self) -> float:
        """Communication the backward pass could not hide."""
        return self.step_seconds - self.compute_seconds

    @property
    def comm_busy_seconds(self) -> float:
        """Total allreduce occupancy (sum over buckets)."""
        return sum(done - ready for ready, done in self.bucket_times)

    @property
    def overlap_efficiency(self) -> float | None:
        """Fraction of communication hidden under compute (1.0 = all);
        ``None`` (undefined, not 0) when there is no communication."""
        busy = self.comm_busy_seconds
        if busy <= 0.0:
            return None
        return 1.0 - self.exposed_comm_seconds / busy


def predict_step_time(
    world: int,
    bucket_nbytes: list[int],
    profile: NetworkProfile,
    compute_seconds: float,
    algorithm: str = "tree",
    overlap: bool = True,
    fwd_fraction: float = FWD_FRACTION,
) -> OverlapStepEstimate:
    """Predict one synchronous step with bucketed gradient exchange.

    ``bucket_nbytes`` lists the wire size of each bucket in launch order
    (bucket 0 = the last layers' gradients — ready first).  With
    ``overlap=False`` every launch waits for the full backward pass, which
    reduces to the serial ``t_comp + Σ cost_k`` model.
    """
    if world < 1:
        raise ValueError(f"world must be >= 1 (got {world})")
    if compute_seconds < 0:
        raise ValueError("compute_seconds must be non-negative")
    if not 0.0 <= fwd_fraction <= 1.0:
        raise ValueError("fwd_fraction must be in [0, 1]")
    total_bytes = sum(bucket_nbytes)
    t_fwd = fwd_fraction * compute_seconds
    t_bwd = compute_seconds - t_fwd

    times: list[tuple[float, float]] = []
    produced = 0
    prev_done = 0.0
    for nbytes in bucket_nbytes:
        produced += nbytes
        if overlap:
            ready = t_fwd + t_bwd * (produced / total_bytes if total_bytes else 1.0)
        else:
            # blocking: launches serialize after the full compute pass
            ready = max(compute_seconds, prev_done)
        cost = allreduce_cost(world, nbytes, profile, algorithm) if world > 1 else 0.0
        done = ready + cost
        prev_done = done
        times.append((ready, done))

    messages = len(bucket_nbytes) * allreduce_message_count(world, algorithm)
    return OverlapStepEstimate(
        compute_seconds=compute_seconds,
        bucket_times=tuple(times),
        messages_per_step=messages,
    )


def predict_run_seconds(
    world: int,
    bucket_nbytes: list[int],
    profile: NetworkProfile,
    compute_seconds: float,
    steps: int,
    epochs: int = 1,
    algorithm: str = "tree",
    overlap: bool = True,
    fwd_fraction: float = FWD_FRACTION,
) -> float:
    """Predict ``ClusterResult.simulated_seconds`` for a fault-free run.

    ``steps`` is the *total* iteration count across all epochs; each epoch
    additionally pays one tiny tree allreduce aggregating the train metrics
    (the ``[loss, correct, seen]`` triple), which the simulator charges too.
    """
    step = predict_step_time(
        world, bucket_nbytes, profile, compute_seconds,
        algorithm=algorithm, overlap=overlap, fwd_fraction=fwd_fraction,
    ).step_seconds
    stats = allreduce_cost(world, STATS_NBYTES, profile, "tree") if world > 1 else 0.0
    return steps * step + epochs * stats
