"""The float32 substrate: one dtype from data through layers, arena and wire.

Models are built in float32 and every layer computes in the dtype of its
input and parameters, so a single float64 constant anywhere (a buffer
request, an augmentation draw, a packed collective) silently widens
everything downstream of it to float64 — twice the bytes through im2col,
BatchNorm, the arena and the allreduce.  These guards make such a leak a
test failure: every model family of ``tests/nn/test_memory_parity.py``
trains one planned step without a single float64 arena request, augmented
batches stay float32, and a synchronised-BatchNorm cluster run keeps its
statistics, gradient buckets and payloads float32.
"""

import numpy as np
import pytest

from repro.cluster import SyncSGDConfig, train_sync_sgd
from repro.comm.communicator import Communicator
from repro.core import SGD, Trainer
from repro.data import BatchLoader, gaussian_blobs, make_dataset
from repro.nn import SyncBatchNorm
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.memory import MemoryContext
from repro.nn.models import build_model, micro_resnet, mlp

from ..nn.test_memory_parity import CONFIGS

F32 = np.dtype(np.float32)


def _loader(in_shape, batch, num_classes):
    """A shuffled, augmented loader over float32 data of ``in_shape``."""
    if len(in_shape) == 3:
        ds = make_dataset(num_classes=num_classes, image_size=in_shape[1],
                          channels=in_shape[0], train_size=4 * batch,
                          test_size=batch, seed=3)
        return BatchLoader(ds.x_train, ds.y_train, batch, augment="heavy",
                           seed=3, auto_advance=False)
    x, y = gaussian_blobs(4 * batch, num_classes=num_classes, dim=in_shape[0], seed=3)
    return BatchLoader(x, y, batch, seed=3, auto_advance=False)


def _first_batch(loader):
    for batches in loader.epochs(1):
        return next(iter(batches))


def _record_dtypes(mem):
    """List that collects the dtype of every arena request of ``mem``."""
    requested = []
    acquire = mem.arena.acquire

    def recording_acquire(shape, dtype):
        requested.append(np.dtype(dtype))
        return acquire(shape, dtype)

    mem.arena.acquire = recording_acquire
    return requested


@pytest.mark.parametrize("name,kwargs,in_shape,batch", CONFIGS)
def test_planned_step_requests_no_float64(name, kwargs, in_shape, batch):
    xb, yb = _first_batch(_loader(in_shape, batch, kwargs.get("num_classes", 10)))
    assert xb.dtype == F32
    model = build_model(name, **kwargs)
    loss = SoftmaxCrossEntropy(label_smoothing=0.1)
    mem = MemoryContext()
    model.bind_memory(mem)
    loss.bind_memory(mem)
    requested = _record_dtypes(mem)
    logits = model.forward(xb)
    loss.forward(logits, yb)
    grad = loss.backward()
    model.backward(grad)
    assert requested and F32 in requested
    assert np.dtype(np.float64) not in requested
    assert logits.dtype == F32 and grad.dtype == F32
    for p in model.parameters():
        assert p.data.dtype == F32 and p.grad.dtype == F32, p.name


@pytest.mark.parametrize("augment", ["none", "weak", "heavy"])
def test_augmented_batches_stay_float32(augment):
    ds = make_dataset(num_classes=4, image_size=8, train_size=32, test_size=8, seed=1)
    loader = BatchLoader(ds.x_train, ds.y_train, 8, augment=augment, seed=1,
                         auto_advance=False, reuse_buffers=True)
    for batches in loader.epochs(2):
        for xb, _ in batches:
            assert xb.dtype == F32


def test_sync_bn_overlapped_ring_run_stays_float32(monkeypatch):
    """P=2, SyncBatchNorm, overlapped ring exchange in several buckets: the
    BN statistics payloads, the gradient buckets the nonblocking allreduces
    reduce in place, and the BN running statistics are all float32."""
    payloads = []  # (source, dtype)
    iallreduce = Communicator.iallreduce
    bn_allreduce = SyncBatchNorm._allreduce

    def recording_iallreduce(self, array, *args, **kwargs):
        payloads.append(("bucket", array.dtype))
        return iallreduce(self, array, *args, **kwargs)

    def recording_bn_allreduce(self, vec):
        payloads.append(("syncbn", vec.dtype))
        return bn_allreduce(self, vec)

    monkeypatch.setattr(Communicator, "iallreduce", recording_iallreduce)
    monkeypatch.setattr(SyncBatchNorm, "_allreduce", recording_bn_allreduce)

    models = []

    def builder():
        model = mlp(8, [16, 16], 3, batch_norm="sync", seed=4)
        models.append(model)
        return model

    x, y = gaussian_blobs(64, num_classes=3, dim=8, seed=4)
    config = SyncSGDConfig(world=2, epochs=2, batch_size=16, algorithm="ring",
                           overlap=True, bucket_bytes=256, shuffle_seed=4)
    res = train_sync_sgd(builder, lambda p: SGD(p, momentum=0.9), 0.05,
                         x, y, x[:16], y[:16], config)

    sources = {s for s, _ in payloads}
    assert sources == {"bucket", "syncbn"}
    assert all(dt == F32 for _, dt in payloads), sorted(set(payloads))
    assert len(models) == 2
    for model in models:
        bns = [m for m in model.modules() if isinstance(m, SyncBatchNorm)]
        assert bns
        for bn in bns:
            assert bn.running_mean.dtype == F32 and bn.running_var.dtype == F32
    assert all(v.dtype == F32 for v in res.final_state.values())


def test_evaluate_then_train_allocates_nothing():
    """Evaluation between planned steps reuses the training slots: a float32
    test set meets a float32 network, so no slot of another dtype (or the
    step after it) allocates."""
    batch = 32
    ds = make_dataset(num_classes=10, image_size=16, train_size=4 * batch,
                      test_size=2 * batch, seed=2)
    model = micro_resnet(num_classes=10, width=8, seed=2)
    trainer = Trainer(model, SGD(model.parameters(), momentum=0.9), 0.05,
                      static_memory=True)
    loader = BatchLoader(ds.x_train, ds.y_train, batch, augment="heavy", seed=2,
                         auto_advance=False, reuse_buffers=True)
    batches = iter(next(iter(loader.epochs(1))))
    for _ in range(3):
        trainer.train_step(*next(batches))
    allocated = trainer.arena_stats()["bytes_allocated"]
    trainer.evaluate(ds.x_test, ds.y_test, batch_size=batch)
    trainer.train_step(*next(batches))
    assert trainer.arena_stats()["bytes_allocated"] == allocated


def test_trainer_casts_float64_batches_to_the_model_dtype():
    """A caller's float64 array cannot promote a float32 network."""
    x, y = gaussian_blobs(32, num_classes=3, dim=6, seed=8)
    model = mlp(6, [8], 3, batch_norm=True, seed=8)
    trainer = Trainer(model, SGD(model.parameters()), 0.05, static_memory=True)
    requested = _record_dtypes(trainer.memory)
    trainer.train_step(x.astype(np.float64), y)
    trainer.evaluate(x.astype(np.float64), y)
    assert requested and set(requested) <= {F32, np.dtype(bool)}
    bn = model.layers[1]
    assert bn.running_mean.dtype == F32
