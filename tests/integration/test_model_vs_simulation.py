"""Cross-validation of the two engines.

The repository produces the paper's numbers two ways: the analytic α-β-γ
model (repro.perfmodel) and actual execution on the simulated fabric
(repro.cluster).  These tests pin them together: for the same configuration,
the fabric's measured makespan must equal the analytic prediction.
"""

import pytest

from repro.cluster import SyncSGDConfig, train_sync_sgd
from repro.comm import NetworkProfile, allreduce_cost
from repro.core import SGD, ConstantLR
from repro.data import gaussian_blobs
from repro.nn.models import mlp

WORLD = 4
N, BATCH, EPOCHS = 128, 32, 2
_X, _Y = gaussian_blobs(N, num_classes=3, dim=6, seed=51)


def builder():
    return mlp(6, [8], 3, seed=3)


def grad_bytes():
    """Gradient bytes one allreduce carries: float32 on the simulated wire."""
    return sum(p.data.nbytes for p in builder().parameters())


def run(algorithm, profile, t_comp_per_example=0.0):
    config = SyncSGDConfig(
        world=WORLD, epochs=EPOCHS, batch_size=BATCH, algorithm=algorithm,
        profile=profile,
        compute_time=(lambda k: t_comp_per_example * k) if t_comp_per_example else None,
        shuffle_seed=5,
    )
    return train_sync_sgd(builder, lambda p: SGD(p, momentum=0.9, weight_decay=0.0),
                          ConstantLR(0.05), _X, _Y, _X[:32], _Y[:32], config)


@pytest.mark.parametrize("algorithm", ["tree", "ring", "rhd"])
def test_fabric_time_matches_analytic_allreduce_cost(algorithm):
    """makespan == iterations x analytic allreduce cost (comm-only run),
    plus the per-epoch 3-float metric reduction (a tree allreduce)."""
    profile = NetworkProfile(alpha=1e-4, beta=1e-9, name="test")
    res = run(algorithm, profile)
    iters = EPOCHS * (N // BATCH)
    expected = iters * allreduce_cost(WORLD, grad_bytes(), profile, algorithm)
    expected += EPOCHS * allreduce_cost(WORLD, 3 * 8, profile, "tree")
    assert res.simulated_seconds == pytest.approx(expected, rel=0.02)


def test_compute_time_adds_linearly():
    profile = NetworkProfile.ideal()
    t = 1e-3
    res = run("tree", profile, t_comp_per_example=t)
    iters = EPOCHS * (N // BATCH)
    local = BATCH / WORLD
    assert res.simulated_seconds == pytest.approx(iters * t * local, rel=0.01)


def test_comm_bytes_match_analytic_volume():
    """Fabric byte counter == per-algorithm analytic bytes (ring)."""
    res = run("ring", NetworkProfile.ideal())
    iters = EPOCHS * (N // BATCH)
    # ring: each rank sends 2(P-1) chunks of ~n/P per allreduce
    per_iter = WORLD * 2 * (WORLD - 1) * (grad_bytes() / WORLD)
    expected = iters * per_iter
    # metric allreduce adds a small constant per epoch
    assert res.comm_bytes == pytest.approx(expected, rel=0.05)


def test_more_ranks_less_compute_time_when_comm_free():
    t = 1e-3

    def run_world(world):
        config = SyncSGDConfig(world=world, epochs=1, batch_size=32,
                               compute_time=lambda k: t * k, shuffle_seed=5)
        return train_sync_sgd(builder, lambda p: SGD(p, momentum=0.0, weight_decay=0.0),
                              ConstantLR(0.05), _X, _Y, _X[:32], _Y[:32], config)

    t2 = run_world(2).simulated_seconds
    t4 = run_world(4).simulated_seconds
    assert t4 == pytest.approx(t2 / 2, rel=0.01)  # perfect strong scaling
