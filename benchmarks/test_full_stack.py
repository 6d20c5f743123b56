"""Full-stack showcase: one large-batch LARS recipe, executed end-to-end.

Everything at once: a paper-style recipe (linear-scaled LR + warmup +
poly(2) + LARS) trains a conv net whose global batch is sharded over 8
simulated ranks, gradients ring-allreduce over an Omni-Path-class α-β
fabric, per-iteration compute time comes from the calibrated KNL profile —
and the result must (a) match the serial memoised proxy run exactly
(sequential consistency), (b) spend simulated time consistent with the
analytic α-β-γ prediction for the same configuration.
"""

import pytest

from repro.cluster import SyncSGDConfig, train_sync_sgd
from repro.comm import allreduce_cost
from repro.core import iterations_per_epoch, paper_schedule
from repro.experiments.proxy import ProxyRun, SCALES, proxy_dataset
from repro.nn.models import paper_model_cost
from repro.perfmodel import device, network
from repro.perfmodel.timemodel import compute_time_per_iteration

from .conftest import SCALE, run_once

WORLD = 8
FACTOR = 16  # 16x the proxy baseline batch


def full_stack_run():
    s = SCALES[SCALE]
    ds = proxy_dataset(SCALE)
    batch = 8 * FACTOR
    cfg = ProxyRun("alexnet_bn", batch, 0.05 * FACTOR, warmup_epochs=1,
                   use_lars=True)
    ipe = iterations_per_epoch(ds.n_train, batch)
    sched = paper_schedule(cfg.peak_lr, s.epochs * ipe, ipe)

    cost = paper_model_cost("alexnet_bn")
    knl = device("knl")

    def compute_time(n_local: int) -> float:
        return compute_time_per_iteration(cost, float(n_local), knl)

    config = SyncSGDConfig(world=WORLD, epochs=s.epochs, batch_size=batch,
                           algorithm="ring", profile=network("opa"),
                           compute_time=compute_time, shuffle_seed=1)
    cluster = train_sync_sgd(lambda: cfg.build_model(s), cfg.build_optimizer,
                             sched, ds.x_train, ds.y_train, ds.x_test,
                             ds.y_test, config)

    # serial reference through the memoised proxy runner (shared with the
    # other benchmarks)
    from repro.experiments.proxy import run_proxy

    serial = run_proxy(cfg, SCALE)
    return cluster, serial, (s, ds, batch, cost, knl)


def test_full_stack(benchmark):
    cluster, serial, (s, ds, batch, cost, knl) = run_once(benchmark, full_stack_run)
    print(f"\n== full stack: LARS x{FACTOR} batch on {WORLD} simulated KNLs ==")
    print(f"cluster final accuracy: {cluster.final_test_accuracy:.4f}")
    print(f"serial  final accuracy: {serial.final_test_accuracy:.4f}")
    print(f"simulated time: {cluster.simulated_seconds:.2f}s, "
          f"{cluster.messages} messages, {cluster.comm_bytes / 1e6:.1f} MB")

    # (a) sequential consistency through the whole stack
    assert cluster.final_test_accuracy == pytest.approx(
        serial.final_test_accuracy, abs=1e-12)

    # (b) simulated time ~ analytic prediction for the same configuration
    iters = s.epochs * iterations_per_epoch(ds.n_train, batch)
    t_comp = compute_time_per_iteration(cost, batch / WORLD, knl)
    grad_bytes = sum(v.nbytes for v in cluster.final_state.values())
    t_comm = allreduce_cost(WORLD, grad_bytes, network("opa"), "ring")
    predicted = iters * (t_comp + t_comm)
    assert cluster.simulated_seconds == pytest.approx(predicted, rel=0.05)

    # and the run actually learned
    assert cluster.final_test_accuracy > 0.8
