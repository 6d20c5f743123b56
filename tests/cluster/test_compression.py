"""Gradient compression tests: round-trips, error feedback, wire accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    NoCompression,
    OneBitCompressor,
    TopKCompressor,
    UniformQuantizer,
    compressed_allreduce,
)
from repro.comm import run_cluster


def grad(n=64, seed=0):
    return np.random.default_rng(seed).normal(size=n)


class TestNoCompression:
    def test_roundtrip_exact(self):
        g = grad()
        assert np.array_equal(NoCompression().roundtrip(g), g)

    def test_ratio_one(self):
        c = NoCompression()
        c.compress(grad())
        assert c.stats.ratio == 1.0


class TestOneBit:
    def test_reconstruction_is_scaled_signs(self):
        c = OneBitCompressor()
        g = grad()
        out = c.roundtrip(g)
        assert set(np.round(np.abs(out), 12)) == {np.round(np.abs(out[0]), 12)}
        assert np.array_equal(np.sign(out), np.sign(g))

    def test_error_feedback_accumulates(self):
        """The residual carries what the bit couldn't express; over repeated
        compressions of the same gradient the *average* reconstruction
        approaches the true gradient (the convergence mechanism)."""
        c = OneBitCompressor()
        g = grad(32, seed=1)
        recon = np.zeros_like(g)
        steps = 500
        for _ in range(steps):
            recon += c.roundtrip(g)
        assert np.allclose(recon / steps, g, atol=0.12)

    def test_compression_ratio_near_64x(self):
        c = OneBitCompressor()
        c.compress(grad(8000))
        # fp64 -> 1 bit: 64x, minus the 8-byte scale
        assert 50 < c.stats.ratio < 64.5

    def test_zero_gradient_safe(self):
        c = OneBitCompressor()
        out = c.roundtrip(np.zeros(16))
        assert np.allclose(out, 0.0)

    def test_payload_nbytes(self):
        c = OneBitCompressor()
        payload = c.compress(grad(64))
        assert c.payload_nbytes(payload) == 8 + 8  # 64 bits + scale


class TestTopK:
    def test_keeps_largest_magnitudes(self):
        c = TopKCompressor(k=3)
        g = np.array([0.1, -5.0, 0.2, 3.0, -0.05, 1.0])
        out = c.roundtrip(g)
        assert set(np.nonzero(out)[0]) == {1, 3, 5}
        assert out[1] == -5.0

    def test_residual_returns_dropped_mass(self):
        c = TopKCompressor(k=2)
        g = np.array([1.0, 2.0, 3.0, 4.0])
        c.compress(g)
        out2 = c.roundtrip(np.zeros(4))
        # second round transmits the previously dropped 1.0 and 2.0
        assert np.allclose(out2, [1.0, 2.0, 0.0, 0.0])

    def test_k_larger_than_tensor(self):
        c = TopKCompressor(k=100)
        g = grad(10)
        assert np.allclose(c.roundtrip(g), g)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            TopKCompressor(0)

    @given(k=st.integers(1, 32), n=st.integers(1, 64))
    @settings(max_examples=25, deadline=None)
    def test_sparsity_property(self, k, n):
        c = TopKCompressor(k=k)
        out = c.roundtrip(grad(n, seed=k))
        assert np.count_nonzero(out) <= min(k, n)


class TestUniformQuantizer:
    def test_8bit_error_bounded_by_step(self):
        c = UniformQuantizer(bits=8)
        g = grad(128, seed=2)
        out = c.roundtrip(g)
        step = (g.max() - g.min()) / 255
        assert np.abs(out - g).max() <= step / 2 + 1e-12

    def test_16bit_nearly_exact(self):
        c = UniformQuantizer(bits=16)
        g = grad(64, seed=3)
        assert np.allclose(c.roundtrip(g), g, atol=1e-3)

    def test_constant_tensor(self):
        c = UniformQuantizer(bits=4)
        out = c.roundtrip(np.full(8, 3.3))
        assert np.allclose(out, 3.3)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            UniformQuantizer(0)
        with pytest.raises(ValueError):
            UniformQuantizer(17)

    @given(bits=st.integers(2, 12))
    @settings(max_examples=15, deadline=None)
    def test_monotone_fidelity_in_bits(self, bits):
        g = grad(100, seed=9)
        coarse = UniformQuantizer(bits=bits).roundtrip(g)
        fine = UniformQuantizer(bits=bits + 2).roundtrip(g)
        assert np.abs(fine - g).max() <= np.abs(coarse - g).max() + 1e-12


class TestCompressedAllreduce:
    def test_identity_compressor_matches_allreduce(self):
        def worker(comm):
            g = grad(20, seed=comm.rank)
            return compressed_allreduce(comm, g, NoCompression())

        results, _ = run_cluster(3, worker)
        expected = sum(grad(20, seed=r) for r in range(3))
        for r in results:
            assert np.allclose(r, expected, atol=1e-12)

    def test_bitwise_identical_across_ranks(self):
        def worker(comm):
            return compressed_allreduce(
                comm, grad(33, seed=comm.rank), OneBitCompressor()
            )

        results, _ = run_cluster(4, worker)
        for r in results[1:]:
            assert np.array_equal(r, results[0])

    def test_one_bit_moves_fewer_bytes(self):
        def make_worker(compressor_cls):
            def worker(comm):
                compressed_allreduce(comm, grad(4096, seed=comm.rank),
                                     compressor_cls())

            return worker

        _, fabric_full = run_cluster(4, make_worker(NoCompression))
        _, fabric_1bit = run_cluster(4, make_worker(OneBitCompressor))
        assert fabric_1bit.stats.bytes < fabric_full.stats.bytes / 20

    def test_shape_preserved(self):
        def worker(comm):
            g = grad(24, seed=comm.rank).reshape(4, 6)
            return compressed_allreduce(comm, g, UniformQuantizer(8))

        results, _ = run_cluster(2, worker)
        assert results[0].shape == (4, 6)


class TestCompressedSyncSGD:
    """compressor_factory integrated into the sync-SGD trainer."""

    def run(self, factory):
        from repro.cluster import SyncSGDConfig, train_sync_sgd
        from repro.core import SGD, ConstantLR
        from repro.data import gaussian_blobs
        from repro.nn.models import mlp

        x, y = gaussian_blobs(96, num_classes=3, dim=6, seed=111)

        def builder():
            return mlp(6, [8], 3, seed=12)

        config = SyncSGDConfig(world=4, epochs=4, batch_size=32,
                               compressor_factory=factory, shuffle_seed=7)
        return train_sync_sgd(builder,
                              lambda p: SGD(p, momentum=0.9, weight_decay=0.0),
                              ConstantLR(0.05), x, y, x[:32], y[:32], config)

    def test_identity_compressor_matches_plain(self):
        plain = self.run(None)
        identity = self.run(NoCompression)
        for k in plain.final_state:
            assert np.allclose(identity.final_state[k], plain.final_state[k],
                               atol=1e-12)

    def test_one_bit_trains_and_saves_bytes(self):
        plain = self.run(None)
        onebit = self.run(OneBitCompressor)
        assert onebit.comm_bytes < plain.comm_bytes / 5
        assert onebit.final_test_accuracy > 0.6

    def test_compression_requires_allreduce_mode(self):
        from repro.cluster import SyncSGDConfig

        with pytest.raises(ValueError):
            SyncSGDConfig(world=2, epochs=1, batch_size=8, mode="master",
                          compressor_factory=OneBitCompressor)


class TestBucketedCompression:
    """A compressed exchange split into several buckets keeps one compressor
    per bucket, so an error-feedback residual only ever meets the gradients
    of the bucket it was sized by."""

    FACTORIES = [
        pytest.param(OneBitCompressor, id="onebit"),
        pytest.param(lambda: TopKCompressor(k=64), id="topk"),
    ]

    @staticmethod
    def builder():
        from repro.nn.models import micro_alexnet

        return micro_alexnet(num_classes=4, image_size=16, width=4, hidden=16,
                             norm="bn", seed=1)

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_sync_sgd_over_several_buckets(self, factory):
        from repro.cluster import BucketPlan, SyncSGDConfig, train_sync_sgd
        from repro.core import SGD, ConstantLR
        from repro.data import make_dataset

        assert len(BucketPlan.from_model(self.builder(), bucket_bytes=4096)) > 1
        ds = make_dataset(num_classes=4, image_size=16, train_size=64,
                          test_size=16, seed=5)
        config = SyncSGDConfig(world=2, epochs=2, batch_size=16, algorithm="ring",
                               bucket_bytes=4096, overlap=False,
                               compressor_factory=factory, shuffle_seed=5)
        res = train_sync_sgd(self.builder,
                             lambda p: SGD(p, momentum=0.9, weight_decay=0.0),
                             ConstantLR(0.05), ds.x_train, ds.y_train,
                             ds.x_test, ds.y_test, config)
        for v in res.final_state.values():
            assert v.dtype == np.float32 and np.isfinite(v).all()

    @pytest.mark.parametrize("factory", FACTORIES)
    def test_residuals_are_per_bucket_in_gradient_dtype(self, factory):
        from repro.cluster import BucketedExchange, BucketPlan

        def worker(comm):
            model = self.builder()
            rng = np.random.default_rng(comm.rank)
            for p in model.parameters():
                p.grad[...] = rng.normal(size=p.grad.shape)
            plan = BucketPlan.from_model(model, bucket_bytes=4096)
            exchange = BucketedExchange(comm, plan, algorithm="ring",
                                        overlap=False, compressor_factory=factory)
            for _ in range(2):
                exchange.sync_blocking(0.5)
            return [(c.residual.shape, c.residual.dtype, b.size)
                    for c, b in zip(exchange.compressors, plan.buckets)]

        results, _ = run_cluster(2, worker)
        assert len(results[0]) > 1
        for shape, dtype, size in results[0]:
            assert shape == (size,) and dtype == np.float32
