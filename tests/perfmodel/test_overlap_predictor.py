"""The closed-form overlap predictor against the thread-per-rank simulator.

``repro.perfmodel.overlap`` replays the bucket schedule analytically —
bucket *k* is ready at ``t_fwd + t_bwd·cumfrac_k`` and done after its α-β
allreduce cost — and must agree with the simulated cluster within 5%
across world sizes, algorithms, and bucket sizes (the acceptance bar; in
practice the two are equal to rounding because they share the greedy
partition and the cost model).
"""

import numpy as np
import pytest

from repro.cluster import SyncSGDConfig, train_sync_sgd
from repro.cluster.bucketing import BucketPlan
from repro.comm import NetworkProfile
from repro.comm.collectives import allreduce_cost
from repro.core import SGD, ConstantLR
from repro.nn.models import mlp
from repro.perfmodel.overlap import (
    OverlapStepEstimate,
    greedy_partition,
    predict_run_seconds,
    predict_step_time,
)

_PROFILE = NetworkProfile(alpha=1e-5, beta=1e-8)
_RNG = np.random.default_rng(7)
_X = _RNG.normal(size=(64, 8))
_Y = _RNG.integers(0, 3, size=64)


def _builder():
    return mlp(8, [64] * 4, 3, seed=13)


def _compute_time(k):
    return 2.5e-4 * k


def _simulate(world, algorithm, bucket_bytes, overlap=True):
    config = SyncSGDConfig(
        world=world, epochs=1, batch_size=32, algorithm=algorithm,
        profile=_PROFILE, compute_time=_compute_time,
        bucket_bytes=bucket_bytes, overlap=overlap, shuffle_seed=13,
    )
    return train_sync_sgd(_builder, lambda p: SGD(p, momentum=0.9),
                          ConstantLR(0.1), _X, _Y, _X[:16], _Y[:16], config)


def _predict(world, algorithm, bucket_bytes, overlap=True):
    plan = BucketPlan.from_model(_builder(), bucket_bytes=bucket_bytes)
    return predict_run_seconds(
        world, plan.bucket_nbytes, _PROFILE, _compute_time(32 // world),
        steps=2, epochs=1, algorithm=algorithm, overlap=overlap,
    )


class TestPredictorMatchesSimulator:
    @pytest.mark.parametrize("world", [2, 4, 8])
    @pytest.mark.parametrize("algorithm", ["tree", "ring", "rhd"])
    @pytest.mark.parametrize("bucket_bytes", [4096, 16384])
    def test_overlapped_run_within_5pct(self, world, algorithm, bucket_bytes):
        sim = _simulate(world, algorithm, bucket_bytes).simulated_seconds
        pred = _predict(world, algorithm, bucket_bytes)
        assert pred == pytest.approx(sim, rel=0.05)

    def test_blocking_bucketed_run_within_5pct(self):
        sim = _simulate(4, "tree", 4096, overlap=False).simulated_seconds
        pred = _predict(4, "tree", 4096, overlap=False)
        assert pred == pytest.approx(sim, rel=0.05)


class TestStepModel:
    def test_compute_dominates_only_last_bucket_exposed(self):
        """When compute dwarfs comm, everything hides except the final
        bucket, whose gradients only exist once backward ends."""
        est = predict_step_time(4, [1024] * 8, _PROFILE,
                                compute_seconds=10.0)
        last_cost = allreduce_cost(4, 1024, _PROFILE, "tree")
        assert est.step_seconds == pytest.approx(10.0 + last_cost)
        assert est.exposed_comm_seconds == pytest.approx(last_cost)
        assert est.overlap_efficiency == pytest.approx(7 / 8)

    def test_last_bucket_always_exposed(self):
        """The final bucket is ready when backward ends — its cost can never
        hide, bounding the benefit of overlap."""
        nbytes = [1024] * 4
        est = predict_step_time(4, nbytes, _PROFILE, compute_seconds=1e-4)
        last_cost = allreduce_cost(4, nbytes[-1], _PROFILE, "tree")
        assert est.step_seconds >= 1e-4 + last_cost - 1e-15

    def test_serialized_matches_compute_plus_comm(self):
        nbytes = [1024, 2048]
        est = predict_step_time(4, nbytes, _PROFILE, compute_seconds=1e-3,
                                overlap=False)
        total_comm = sum(allreduce_cost(4, n, _PROFILE, "tree")
                         for n in nbytes)
        assert est.step_seconds == pytest.approx(1e-3 + total_comm)
        assert est.overlap_efficiency == pytest.approx(0.0)

    def test_overlap_beats_serialized(self):
        nbytes = [4096] * 16
        hidden = predict_step_time(8, nbytes, _PROFILE, compute_seconds=5e-3)
        exposed = predict_step_time(8, nbytes, _PROFILE, compute_seconds=5e-3,
                                    overlap=False)
        assert hidden.step_seconds < exposed.step_seconds

    def test_world_one_is_pure_compute(self):
        est = predict_step_time(1, [1024] * 4, _PROFILE, compute_seconds=2.0)
        assert est.step_seconds == pytest.approx(2.0)
        assert est.comm_busy_seconds == pytest.approx(0.0)

    def test_efficiency_undefined_without_comm(self):
        # nothing to hide: the fraction is undefined, not 0
        est = predict_step_time(1, [1024] * 4, _PROFILE, compute_seconds=2.0)
        assert est.comm_busy_seconds == 0.0
        assert est.overlap_efficiency is None

    def test_messages_scale_with_buckets(self):
        few = predict_step_time(8, [65536], _PROFILE, 1e-3)
        many = predict_step_time(8, [4096] * 16, _PROFILE, 1e-3)
        assert many.messages_per_step > few.messages_per_step

    def test_estimate_is_dataclass_with_schedule(self):
        est = predict_step_time(4, [1024, 2048], _PROFILE, 1e-3)
        assert isinstance(est, OverlapStepEstimate)
        assert len(est.bucket_times) == 2
        for ready, done in est.bucket_times:
            assert done > ready >= 0.0


class TestPartitionShared:
    def test_plan_and_predictor_use_same_boundaries(self):
        """BucketPlan and the predictor share ``greedy_partition`` — the
        analytic schedule describes exactly the simulated one."""
        model = _builder()
        plan = BucketPlan.from_model(model, bucket_bytes=4096)
        rev_nbytes = [p.data.nbytes for p in model.parameters()[::-1]]
        groups = greedy_partition(rev_nbytes, 4096)
        assert [sum(g) for g in groups] == plan.bucket_nbytes
