"""Ablation: gradient compression vs large batches.

The paper shrinks communication by growing B (fewer |W|-sized messages);
the cited 1-bit SGD line shrinks the messages instead.  This ablation trains
the same model on a 4-rank simulated cluster under both regimes and compares
wire bytes and final accuracy.
"""


from repro.cluster import (
    NoCompression,
    OneBitCompressor,
    TopKCompressor,
    compressed_allreduce,
    epoch_permutation,
    shard_batch,
    unflatten_grads,
    flatten_grads,
)
from repro.comm import run_cluster
from repro.core import SGD, ConstantLR
from repro.core.metrics import top1_accuracy
from repro.data import gaussian_blobs
from repro.experiments.report import format_table
from repro.nn.models import mlp

from .conftest import run_once

WORLD, EPOCHS, BATCH, LR = 4, 6, 32, 0.05
_X, _Y = gaussian_blobs(256, num_classes=3, dim=10, seed=31)


def train_with(compressor_factory):
    """Sync data-parallel SGD with a compressed gradient exchange."""

    def worker(comm):
        model = mlp(10, [16], 3, seed=6)
        opt = SGD(model.parameters(), momentum=0.9, weight_decay=0.0)
        compressor = compressor_factory()
        sched = ConstantLR(LR)
        n = len(_X)
        it = 0
        for epoch in range(EPOCHS):
            order = epoch_permutation(n, epoch, 3)
            for lo in range(0, n, BATCH):
                gidx = order[lo : lo + BATCH]
                lidx = shard_batch(gidx, WORLD, comm.rank)
                model.train()
                opt.zero_grad()
                from repro.nn.losses import SoftmaxCrossEntropy

                loss = SoftmaxCrossEntropy()
                logits = model.forward(_X[lidx])
                loss.forward(logits, _Y[lidx])
                model.backward(loss.backward())
                params = model.parameters()
                flat = flatten_grads(params) * (len(lidx) / len(gidx))
                total = compressed_allreduce(comm, flat, compressor)
                unflatten_grads(total, params)
                opt.step(sched(it))
                it += 1
        if comm.rank == 0:
            model.eval()
            return top1_accuracy(model.forward(_X), _Y)
        return None

    results, fabric = run_cluster(WORLD, worker)
    return results[0], fabric.stats.bytes


def sweep():
    rows = []
    for name, factory in [
        ("full fp32 (baseline)", NoCompression),
        ("1-bit + error feedback", OneBitCompressor),
        ("top-10% + error feedback", lambda: TopKCompressor(k=20)),
    ]:
        acc, nbytes = train_with(factory)
        rows.append({"exchange": name, "train_accuracy": acc, "wire_MB": nbytes / 1e6})
    return rows


def test_ablation_compression(benchmark):
    rows = run_once(benchmark, sweep)
    print("\n== ablation: gradient compression vs full-precision exchange ==")
    print(format_table(["exchange", "train_accuracy", "wire_MB"], rows))

    full, onebit, topk = rows
    # compression slashes wire bytes by an order of magnitude or more
    assert onebit["wire_MB"] < full["wire_MB"] / 10
    assert topk["wire_MB"] < full["wire_MB"] / 3
    # error feedback keeps the compressed runs competitive
    assert full["train_accuracy"] > 0.9
    assert onebit["train_accuracy"] > full["train_accuracy"] - 0.15
    assert topk["train_accuracy"] > full["train_accuracy"] - 0.15
