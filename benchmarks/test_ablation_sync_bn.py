"""Ablation: per-shard BatchNorm vs SyncBatchNorm on the simulated cluster.

Quantifies the paper-stack behaviour (per-worker BN statistics) against the
synchronised alternative: SyncBN restores exact sequential consistency at
the cost of two small allreduces per BN layer per iteration.  The drift
bound (1e-9) is a float64 bound, so the models are widened with
``Module.astype``.
"""

import numpy as np

from repro.cluster import SyncSGDConfig, train_sync_sgd
from repro.core import SGD, ConstantLR, Trainer
from repro.data import gaussian_blobs
from repro.experiments.report import format_table
from repro.nn.models import mlp

from .conftest import run_once

_X, _Y = gaussian_blobs(192, num_classes=3, dim=8, seed=41)
SEED, WORLD, EPOCHS, BATCH = 19, 4, 4, 32


def run_variant(bn_kind):
    def builder():
        return mlp(8, [12], 3, batch_norm=bn_kind, seed=SEED).astype(np.float64)

    def opt_builder(params):
        return SGD(params, momentum=0.9, weight_decay=0.0005)

    # serial reference with plain BN (= full-batch statistics)
    serial_model = mlp(8, [12], 3, batch_norm=True, seed=SEED).astype(np.float64)
    serial = Trainer(serial_model, opt_builder(serial_model.parameters()),
                     ConstantLR(0.1), shuffle_seed=SEED)
    serial.fit(_X, _Y, _X[:48], _Y[:48], epochs=EPOCHS, batch_size=BATCH)

    config = SyncSGDConfig(world=WORLD, epochs=EPOCHS, batch_size=BATCH,
                           shuffle_seed=SEED)
    cluster = train_sync_sgd(builder, opt_builder, ConstantLR(0.1),
                             _X, _Y, _X[:48], _Y[:48], config)
    drift = max(
        np.abs(serial_model.state_dict()[k] - cluster.final_state[k]).max()
        for k in cluster.final_state
    )
    return {
        "bn": "SyncBatchNorm" if bn_kind == "sync" else "per-shard BatchNorm",
        "final_accuracy": cluster.final_test_accuracy,
        "drift_vs_serial": drift,
        "messages": cluster.messages,
    }


def sweep():
    return [run_variant(True), run_variant("sync")]


def test_ablation_sync_bn(benchmark):
    rows = run_once(benchmark, sweep)
    print("\n== ablation: per-shard BN vs SyncBatchNorm (4 ranks) ==")
    print(format_table(["bn", "final_accuracy", "drift_vs_serial", "messages"], rows))

    local, sync = rows
    # SyncBN matches the serial full-batch run exactly; per-shard BN drifts
    assert sync["drift_vs_serial"] < 1e-9
    assert local["drift_vs_serial"] > 1e-9
    # the price: extra (small) collective messages per BN layer
    assert sync["messages"] > local["messages"]
    # both still learn
    assert local["final_accuracy"] > 0.7 and sync["final_accuracy"] > 0.7
