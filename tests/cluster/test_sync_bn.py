"""SyncBatchNorm: restoring exact sequential consistency for BN models.

Plain per-shard BatchNorm is the one documented exception to the
P-workers == serial-large-batch equivalence (see ``test_sync_sgd``).
SyncBatchNorm closes it: with cross-rank statistics, a BN model trained on
P simulated ranks matches the serial full-batch run to fp tolerance.
The < 1e-9 bounds are float64 bounds, so the models are widened with
``Module.astype``.
"""

import numpy as np
import pytest

from repro.cluster import SyncSGDConfig, train_sync_sgd
from repro.comm import run_cluster
from repro.core import SGD, ConstantLR, Trainer
from repro.nn import BatchNorm, SyncBatchNorm
from repro.nn.models import mlp

_RNG = np.random.default_rng(17)
_CENTRES = _RNG.normal(size=(3, 8)) * 2.5
_Y = _RNG.integers(0, 3, size=96)
_X = _CENTRES[_Y] + _RNG.normal(size=(96, 8)) * 0.5

SEED = 23


def sync_builder():
    return mlp(8, [10], 3, batch_norm="sync", seed=SEED).astype(np.float64)


def local_builder():
    return mlp(8, [10], 3, batch_norm=True, seed=SEED).astype(np.float64)


def sgd_builder(params):
    return SGD(params, momentum=0.9, weight_decay=0.0005)


def serial_reference(builder, epochs=2, batch=32, lr=0.1):
    model = builder()
    trainer = Trainer(model, sgd_builder(model.parameters()), ConstantLR(lr),
                      shuffle_seed=SEED)
    trainer.fit(_X, _Y, _X[:24], _Y[:24], epochs=epochs, batch_size=batch)
    return model.state_dict()


def cluster_run(builder, world, mode="allreduce", epochs=2, batch=32, lr=0.1):
    config = SyncSGDConfig(world=world, epochs=epochs, batch_size=batch,
                           mode=mode, shuffle_seed=SEED)
    return train_sync_sgd(builder, sgd_builder, ConstantLR(lr),
                          _X, _Y, _X[:24], _Y[:24], config)


def max_diff(a, b):
    return max(np.abs(a[k] - b[k]).max() for k in a)


class TestStatisticsSync:
    def test_forward_stats_match_global_batch(self):
        """P shards with SyncBN normalise exactly like one big batch."""
        rng = np.random.default_rng(0)
        x = rng.normal(2.0, 3.0, size=(32, 5))

        ref_bn = BatchNorm(5)
        ref_out = ref_bn.forward(x)

        def worker(comm):
            bn = SyncBatchNorm(5)
            bn.set_comm(comm)
            shard = x[comm.rank * 8 : (comm.rank + 1) * 8]
            return bn.forward(shard)

        results, _ = run_cluster(4, worker)
        out = np.concatenate(results)
        assert np.allclose(out, ref_out, atol=1e-12)

    def test_running_stats_match_serial(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(32, 4))
        ref = BatchNorm(4)
        ref.forward(x)

        def worker(comm):
            bn = SyncBatchNorm(4)
            bn.set_comm(comm)
            bn.forward(x[comm.rank * 16 : (comm.rank + 1) * 16])
            return bn.running_mean, bn.running_var

        results, _ = run_cluster(2, worker)
        for mean, var in results:
            assert np.allclose(mean, ref.running_mean, atol=1e-12)
            assert np.allclose(var, ref.running_var, atol=1e-10)

    def test_without_comm_behaves_like_local_bn(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(16, 3))
        a, b = BatchNorm(3), SyncBatchNorm(3)
        assert np.allclose(a.forward(x), b.forward(x), atol=1e-12)
        g = rng.normal(size=(16, 3))
        assert np.allclose(a.backward(g.copy()), b.backward(g.copy()), atol=1e-12)

    def test_eval_mode_uses_running_stats_no_comm(self):
        bn = SyncBatchNorm(3, momentum=0.0)
        bn.forward(np.random.default_rng(3).normal(size=(8, 3)))
        bn.eval()
        out = bn.forward(np.ones((4, 3)))  # would deadlock if it tried comm
        assert out.shape == (4, 3)


class TestSequentialConsistencyRestored:
    @pytest.mark.parametrize("world", [2, 4])
    def test_sync_bn_matches_serial(self, world):
        ref = serial_reference(sync_builder)
        cluster = cluster_run(sync_builder, world)
        assert max_diff(ref, cluster.final_state) < 1e-9

    def test_local_bn_still_differs(self):
        """Control: the same model with plain BN does NOT match."""
        ref = serial_reference(local_builder)
        cluster = cluster_run(local_builder, 4)
        assert max_diff(ref, cluster.final_state) > 1e-9

    def test_sync_bn_master_mode(self):
        ref = serial_reference(sync_builder)
        cluster = cluster_run(sync_builder, 2, mode="master")
        assert max_diff(ref, cluster.final_state) < 1e-9

    def test_uneven_shards(self):
        """batch 32 over 3 ranks: shards 11/11/10 — pre-scaling handles it."""
        ref = serial_reference(sync_builder)
        cluster = cluster_run(sync_builder, 3)
        assert max_diff(ref, cluster.final_state) < 1e-9

    def test_serial_equivalence_of_sync_model(self):
        """The sync-BN model run serially (no comm) == plain-BN model."""
        a = serial_reference(sync_builder)
        b = serial_reference(local_builder)
        # identical init (same seed), identical parameter paths, identical
        # serial semantics
        assert set(a) == set(b)
        for k in a:
            assert np.allclose(a[k], b[k], atol=1e-12)

    def test_learning_still_happens(self):
        cluster = cluster_run(sync_builder, 4, epochs=8)
        assert cluster.final_test_accuracy > 0.7
