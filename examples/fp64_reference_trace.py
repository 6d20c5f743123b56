"""Float64 reference trace: dump a checkout's float64 numerics, compare two.

    PYTHONPATH=src python examples/fp64_reference_trace.py dump OUT.npz
    PYTHONPATH=src python examples/fp64_reference_trace.py compare A.npz B.npz

``dump`` widens a few models to float64 (``Module.astype``, where the
checkout has it), loads identical float64 initial weights drawn here from a
fixed generator, and trains them on identical float64 data through the
serial eager and planned trainers (heavy augmentation on the ResNet path)
and through the simulated cluster (overlapped ring exchange in small
buckets, SyncBatchNorm).  Every loss, final weight and BatchNorm running
statistic goes into one ``.npz``.  ``compare`` exits 0 only when two dumps
are bitwise identical — run ``dump`` on two checkouts to show that a change
left float64 arithmetic untouched.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.cluster import SyncSGDConfig, train_sync_sgd
from repro.core import SGD, Trainer
from repro.data import BatchLoader
from repro.nn.initializers import fan_in_out
from repro.nn.models import micro_alexnet, micro_resnet, mlp

def _fp64_state(model, seed):
    """Float64 initial weights for ``model`` drawn from ``seed`` alone."""
    rng = np.random.default_rng(seed)
    state = {}
    for p in model.parameters():
        if p.data.ndim == 1:
            base = 1.0 if p.name.endswith("gamma") else 0.0
            state[p.name] = base + 0.1 * rng.normal(size=p.shape)
        else:
            fan_in, _ = fan_in_out(p.shape)
            state[p.name] = rng.normal(size=p.shape) * np.sqrt(2.0 / fan_in)
    return state


def _fp64(build, seed):
    """A float64 replica of ``build()`` carrying the seed's weights."""
    model = build()
    if hasattr(model, "astype"):
        model.astype(np.float64)
    model.load_state_dict(_fp64_state(model, seed))
    assert all(p.data.dtype == np.float64 for p in model.parameters())
    return model


def _bn_stats(model):
    return [(i, m.running_mean, m.running_var)
            for i, m in enumerate(model.modules()) if hasattr(m, "running_mean")]


def _record(out, prefix, model):
    for name, value in model.state_dict().items():
        out[f"{prefix}/w/{name}"] = value
    for i, mean, var in _bn_stats(model):
        out[f"{prefix}/bn{i}/mean"] = mean
        out[f"{prefix}/bn{i}/var"] = var


def _serial(out, build, seed, data, static_memory, augment):
    model = _fp64(build, seed)
    trainer = Trainer(model, SGD(model.parameters(), momentum=0.9), 0.05,
                      static_memory=static_memory)
    x, y = data
    loader = BatchLoader(x, y, 16, augment=augment, seed=seed, auto_advance=False)
    losses = []
    for batches in loader.epochs(2):
        for xb, yb in batches:
            losses.append(trainer.train_step(xb, yb)[0])
    prefix = f"serial/{build.__name__}/{'planned' if static_memory else 'eager'}"
    out[f"{prefix}/losses"] = np.array(losses)
    _record(out, prefix, model)


def _cluster(out, build, seed, data, **kw):
    models = []

    def builder():
        models.append(_fp64(build, seed))
        return models[-1]

    x, y = data
    config = SyncSGDConfig(world=2, epochs=2, batch_size=16, shuffle_seed=seed, **kw)
    res = train_sync_sgd(builder, lambda p: SGD(p, momentum=0.9), 0.05,
                         x, y, x[:16], y[:16], config)
    prefix = f"cluster/{build.__name__}"
    out[f"{prefix}/losses"] = np.array([h.train_loss for h in res.history])
    for name, value in res.final_state.items():
        out[f"{prefix}/w/{name}"] = value
    # replicas are built on concurrent rank threads, in no fixed order, and
    # per-shard BatchNorm statistics differ by rank: order them by value
    models.sort(key=lambda m: b"".join(s[1].tobytes() for s in _bn_stats(m)))
    for r, model in enumerate(models):
        _record(out, f"{prefix}/replica{r}", model)


def alexnet_bn():
    return micro_alexnet(num_classes=4, image_size=16, width=4, hidden=16, norm="bn")


def resnet():
    return micro_resnet(num_classes=4, width=4)


def mlp_sync_bn():
    return mlp(16, [24, 16], 4, batch_norm="sync")


def dump(path):
    rng = np.random.default_rng(2024)
    images = (rng.normal(size=(64, 3, 16, 16)), rng.integers(0, 4, size=64))
    vectors = (rng.normal(size=(64, 16)), rng.integers(0, 4, size=64))
    out = {}
    for static_memory in (False, True):
        _serial(out, resnet, 1, images, static_memory, "heavy")
        _serial(out, alexnet_bn, 2, images, static_memory, None)
    _cluster(out, alexnet_bn, 3, images, algorithm="ring", overlap=True,
             bucket_bytes=4096)
    _cluster(out, mlp_sync_bn, 4, vectors, algorithm="ring", overlap=True,
             bucket_bytes=256)
    np.savez(path, **out)
    print(f"{len(out)} arrays -> {path}")


def compare(path_a, path_b):
    a, b = np.load(path_a), np.load(path_b)
    bad = sorted(set(a.files) ^ set(b.files))
    for key in sorted(set(a.files) & set(b.files)):
        if a[key].dtype != b[key].dtype or not np.array_equal(a[key], b[key]):
            bad.append(key)
    print(f"{len(a.files)} vs {len(b.files)} arrays, {len(bad)} differ")
    for key in bad:
        print("  differs:", key)
    return 0 if not bad else 1


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "dump":
        dump(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
