"""The three training workloads, driven only through the public API.

Each workload builds its inputs from the seed (dataset, initial weights and
shuffle), sets up (dataset synthesis, model build, memory binding and a
warm-up on a throw-away replica) and then runs *units* of training from a
fresh replica: one step (``serial-resnet-b256``), one ``Trainer.fit`` epoch
(``serial-alexnet-b8``) or one whole ``train_sync_sgd`` run
(``cluster-alexnet-bn-p2``).  A :class:`Phase` collects per-step wall
times, losses and check failures.  With a :class:`SpanRecorder` the same
units run traced; the losses must come out bitwise identical.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import math
import resource
import time
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from repro.cluster import BucketPlan, SyncSGDConfig, train_sync_sgd
from repro.core import LARS, Trainer, paper_schedule
from repro.data import BatchLoader, make_dataset
from repro.nn.models import micro_alexnet, micro_resnet
from repro.perfmodel import network, predict_run_seconds, predict_step_time

from .spec import WARMUP_STEPS, WORKLOADS
from .tracing import (
    SpanRecorder,
    cluster_targets,
    layer_targets,
    leaf_classes,
    patched,
    thread_rank,
)

_now = time.perf_counter


@dataclass
class Phase:
    """What one run of units measured and found wrong."""

    step_s: list[float] = field(default_factory=list)
    samples: int = 0
    #: what traced and untraced runs must reproduce bitwise
    losses: list[float] = field(default_factory=list)
    units: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def fail(self, message: str, steps: int = 0) -> None:
        self.errors.append(message)
        self.failed += steps


def _budget_done(phase: Phase, final_train_loss: float, test_top1: float) -> None:
    """Record the fixed budget's quality, and the peak resident set so far:
    set-up plus the budget, whatever number of timing units follows."""
    phase.info["final_train_loss"] = float(final_train_loss)
    phase.info["test_top1"] = float(test_top1)
    phase.info["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def release_freed_memory() -> None:
    """Collect garbage and hand freed heap back to the OS (glibc
    ``malloc_trim``), so a peak RSS measured next reflects that work and
    not what the allocator kept from earlier runs: without it the cluster
    workload's peak read 257 or 338 MB at random, with it 183 MB every time.
    """
    gc.collect()
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


def differences(a: Phase, b: Phase) -> list[str]:
    """What differs between two runs of the same units: losses, final
    weights (cluster) and arena accounting (static memory) must be equal."""
    out = []
    if a.losses != b.losses:
        out.append("losses differ")
    for key, what in (("digest", "final weights"), ("arena", "arena accounting")):
        if a.info.get(key) != b.info.get(key):
            out.append(f"{what} differ")
    return out


def _arena(phase: Phase, trainer: Trainer, alloc: list[int]) -> None:
    """Record arena accounting; fail steady-state steps that allocated.

    The first step populates the slots and the second may add
    backward-only buffers (the arena's documented contract); every later
    step must reuse them.
    """
    stats = trainer.arena_stats()
    if stats is None:
        return
    steady = alloc[2:]
    leaks = sum(1 for b in steady if b)
    if leaks:
        phase.fail(f"{leaks} steady-state steps allocated arena bytes", steps=leaks)
    phase.info["arena"] = stats
    phase.info["nn.memory.arena_peak_bytes"] = stats["peak_bytes"]
    phase.info["nn.memory.pool_bytes"] = stats["pool_bytes"]
    phase.info["nn.memory.bytes_allocated_per_step"] = (
        sum(steady) / len(steady) if steady else None
    )


def _finite_losses(phase: Phase, losses) -> None:
    """Count every non-finite loss as a failed step (checked here, not
    silenced with ``np.errstate``)."""
    bad = sum(1 for v in losses if not math.isfinite(v))
    if bad:
        phase.fail(f"{bad} non-finite losses", steps=bad)


class Workload:
    """Common set-up and run loop; subclasses define one unit of work."""

    def __init__(self, name: str, seed: int, static_memory: bool | None = None):
        self.name = name
        self.seed = int(seed)
        self.spec = WORKLOADS[name]
        self.p = dict(self.spec["params"])
        if static_memory is not None:
            self.p["static_memory"] = static_memory
        self.ds = None

    def _dataset(self):
        p = self.p
        return make_dataset(
            num_classes=p["num_classes"], image_size=p["image_size"],
            train_size=p["train_size"], test_size=p["test_size"],
            noise=p["noise"], seed=self.seed,
        )

    def _schedule(self, steps_per_epoch: int):
        p = self.p
        return paper_schedule(
            p["peak_lr"], p["epochs"] * steps_per_epoch,
            round(p["warmup_epochs"] * steps_per_epoch), power=p["poly_power"],
        )

    def _optimizer(self, params):
        return LARS(params, trust_coefficient=self.p["trust_coefficient"])

    def setup(self) -> float:
        """Synthesize the dataset and warm up; returns wall seconds."""
        release_freed_memory()
        t0 = _now()
        self.ds = self._dataset()
        self.warm_up()
        return _now() - t0

    def run(self, *, seconds: float | None = None, units: int | None = None,
            budget: bool = False, rec: SpanRecorder | None = None) -> Phase:
        """Run units from a fresh replica until ``units`` are done, or until
        ``seconds`` have passed and (with ``budget``) the fixed training
        budget is complete and its accuracy measured."""
        phase = Phase()
        release_freed_memory()
        with ExitStack() as stack:
            self.start(phase, rec, stack)
            t0 = _now()
            while True:
                if units is not None:
                    if phase.units >= units:
                        break
                elif _now() - t0 >= seconds and (not budget or "test_top1" in phase.info):
                    break
                self.unit(phase, rec, budget)
                phase.units += 1
        self.finish(phase)
        return phase

    # -- per workload ---------------------------------------------------------
    def warm_up(self) -> None:
        raise NotImplementedError

    def start(self, phase: Phase, rec, stack: ExitStack) -> None:
        raise NotImplementedError

    def unit(self, phase: Phase, rec, budget: bool) -> None:
        raise NotImplementedError

    def finish(self, phase: Phase) -> None:
        pass


def _batches(loader: BatchLoader):
    """Endless batch stream, advancing epochs explicitly."""
    while True:
        for batches in loader.epochs(1):
            yield from batches


class SerialResnet(Workload):
    """``Trainer.train_step`` fed by ``BatchLoader``; a unit is one step."""

    def _replica(self):
        p = self.p
        model = micro_resnet(num_classes=p["num_classes"], width=p["width"], seed=self.seed)
        steps = -(-p["train_size"] // p["batch"])
        trainer = Trainer(model, self._optimizer(model.parameters()),
                          self._schedule(steps), shuffle_seed=self.seed,
                          static_memory=p["static_memory"])
        loader = BatchLoader(self.ds.x_train, self.ds.y_train, p["batch"],
                             augment="heavy", seed=self.seed, auto_advance=False,
                             reuse_buffers=True)
        return trainer, _batches(loader), steps

    def warm_up(self) -> None:
        trainer, stream, _ = self._replica()
        for _ in range(WARMUP_STEPS):
            trainer.train_step(*next(stream))

    def start(self, phase, rec, stack) -> None:
        self.trainer, stream, self.steps_per_epoch = self._replica()
        trainer = self.trainer
        self.budget_steps = self.steps_per_epoch * self.p["epochs"]
        self.alloc = []  # arena bytes allocated by each step
        fetch = stream.__next__
        if rec is not None:
            fetch = rec.wrap(fetch, "data.fetch")
            trainer.optimizer.step = rec.wrap(trainer.optimizer.step, "core.optimizer.step")
            stack.enter_context(patched(layer_targets(rec, leaf_classes(trainer.model))))

        def step():
            xb, yb = fetch()
            return len(xb), trainer.train_step(xb, yb)[0]

        self.step = step if rec is None else rec.wrap(step, "step", new_step=True)

    def unit(self, phase, rec, budget) -> None:
        trainer = self.trainer
        before = trainer.arena_stats()
        t0 = _now()
        n, loss = self.step()
        phase.step_s.append(_now() - t0)
        phase.samples += n
        phase.losses.append(loss)
        phase.attempted += 1
        if before is not None:
            self.alloc.append(trainer.arena_stats()["bytes_allocated"] - before["bytes_allocated"])
        if budget and phase.attempted == self.budget_steps:
            _budget_done(phase, np.mean(phase.losses[-self.steps_per_epoch:]),
                         trainer.evaluate(self.ds.x_test, self.ds.y_test))

    def finish(self, phase) -> None:
        _finite_losses(phase, phase.losses)
        _arena(phase, self.trainer, self.alloc)


class SerialAlexnet(Workload):
    """``Trainer.fit``; a unit is one epoch (the budget's first unit is the
    whole fixed-epoch fit, whose accuracy is reported)."""

    def _replica(self) -> Trainer:
        p = self.p
        model = micro_alexnet(num_classes=p["num_classes"], image_size=p["image_size"],
                              width=p["width"], hidden=p["hidden"], norm=p["norm"],
                              seed=self.seed)
        steps = -(-p["train_size"] // p["batch"])
        return Trainer(model, self._optimizer(model.parameters()), self._schedule(steps),
                       shuffle_seed=self.seed, static_memory=p["static_memory"])

    def warm_up(self) -> None:
        trainer = self._replica()
        b = self.p["batch"]
        for i in range(WARMUP_STEPS):
            trainer.train_step(self.ds.x_train[i * b:(i + 1) * b],
                               self.ds.y_train[i * b:(i + 1) * b])

    def start(self, phase, rec, stack) -> None:
        self.trainer = trainer = self._replica()
        inner = trainer.train_step
        if rec is not None:
            inner = rec.wrap(inner, "step", new_step=True)
            trainer.optimizer.step = rec.wrap(trainer.optimizer.step, "core.optimizer.step")
            stack.enter_context(patched(layer_targets(rec, leaf_classes(trainer.model))))

        self.alloc = []
        arena = trainer.arena_stats

        def timed_step(x, y, **kwargs):
            before = arena()
            t0 = _now()
            out = inner(x, y, **kwargs)
            phase.step_s.append(_now() - t0)
            if before is not None:
                self.alloc.append(arena()["bytes_allocated"] - before["bytes_allocated"])
            phase.samples += len(x)
            phase.losses.append(out[0])
            phase.attempted += 1
            return out

        trainer.train_step = timed_step

    def unit(self, phase, rec, budget) -> None:
        ds = self.ds
        epochs = self.p["epochs"] if budget and phase.units == 0 else 1
        result = self.trainer.fit(ds.x_train, ds.y_train, ds.x_test, ds.y_test,
                                  epochs=epochs, batch_size=self.p["batch"])
        if budget and phase.units == 0:
            _budget_done(phase, result.history[-1].train_loss, result.final_test_accuracy)

    def finish(self, phase) -> None:
        _finite_losses(phase, phase.losses)
        _arena(phase, self.trainer, self.alloc)


class ClusterAlexnetBN(Workload):
    """``train_sync_sgd``; a unit is one whole fixed-epoch run.  A step is
    the interval between rank 0's successive ``optimizer.step`` returns."""

    def _model(self):
        p = self.p
        return micro_alexnet(num_classes=p["num_classes"], image_size=p["image_size"],
                             width=p["width"], hidden=p["hidden"], norm=p["norm"],
                             seed=self.seed)

    def _config(self, epochs: int) -> SyncSGDConfig:
        p = self.p
        per_example = p["compute_s_per_example"]
        return SyncSGDConfig(
            world=p["world"], epochs=epochs, batch_size=p["batch"],
            algorithm=p["algorithm"], profile=network(p["network"]),
            compute_time=lambda n: per_example * n, bucket_bytes=p["bucket_bytes"],
            overlap=p["overlap"], static_memory=p["static_memory"],
            shuffle_seed=self.seed, eval_every=epochs,
        )

    def _train(self, model_builder, optimizer_builder, x, y, epochs: int):
        ds = self.ds
        steps = -(-len(x) // self.p["batch"])
        return train_sync_sgd(model_builder, optimizer_builder, self._schedule(steps),
                              x, y, ds.x_test, ds.y_test, self._config(epochs))

    def warm_up(self) -> None:
        n = WARMUP_STEPS * self.p["batch"]
        self._train(self._model, self._optimizer, self.ds.x_train[:n],
                    self.ds.y_train[:n], epochs=1)

    def start(self, phase, rec, stack) -> None:
        p = self.p
        if rec is not None:
            stack.enter_context(patched(
                layer_targets(rec, leaf_classes(self._model())) + cluster_targets(rec)))
        plan = BucketPlan.from_model(self._model(), p["bucket_bytes"])
        self.plan_nbytes = plan.bucket_nbytes
        self.steps = -(-p["train_size"] // p["batch"]) * p["epochs"]
        profile = network(p["network"])
        compute = p["compute_s_per_example"] * (p["batch"] // p["world"])
        estimate = predict_step_time(p["world"], self.plan_nbytes, profile, compute,
                                     algorithm=p["algorithm"], overlap=p["overlap"])
        # ``messages_per_step`` counts one rank's critical path; in a ring
        # every rank sends that many, so the fabric sees ``world`` times it.
        # Each epoch adds the [loss, correct, seen] tree allreduce: a reduce
        # and a broadcast over world - 1 edges each.
        if p["algorithm"] != "ring":
            raise ValueError("the message-count check is written for the ring")
        self.expected_messages = (
            self.steps * p["world"] * estimate.messages_per_step
            + p["epochs"] * 2 * (p["world"] - 1)
        )
        self.predicted_s = predict_run_seconds(
            p["world"], self.plan_nbytes, profile, compute, self.steps,
            epochs=p["epochs"], algorithm=p["algorithm"], overlap=p["overlap"])
        self.first_state = None

    def unit(self, phase, rec, budget) -> None:
        p = self.p
        returns: list[float] = []  # rank 0's optimizer.step return times

        def model_builder():
            model = self._model()
            if rec is not None:
                model.forward = rec.wrap(model.forward, "cluster.fwd")
                model.backward = rec.wrap(model.backward, "cluster.bwd")
            return model

        def optimizer_builder(params):
            opt = self._optimizer(params)
            if thread_rank() != 0:
                if rec is not None:
                    opt.step = rec.wrap(opt.step, "core.optimizer.step")
                return opt
            inner = opt.step if rec is None else rec.wrap(opt.step, "core.optimizer.step")

            def step(lr):
                out = inner(lr)
                returns.append(_now())
                return out

            opt.step = step
            return opt

        result = self._train(model_builder, optimizer_builder, self.ds.x_train,
                             self.ds.y_train, epochs=p["epochs"])
        phase.step_s.extend(b - a for a, b in zip(returns, returns[1:]))
        phase.samples += p["batch"] * (len(returns) - 1)
        phase.attempted += self.steps
        # an epoch's mean loss is finite only if every step's loss was
        per_epoch = self.steps // p["epochs"]
        for rec_ in result.history:
            phase.losses.append(rec_.train_loss)
            if not math.isfinite(rec_.train_loss):
                phase.fail(f"epoch {rec_.epoch}: non-finite train loss", steps=per_epoch)
        if len(returns) != self.steps:
            phase.fail(f"rank 0 ran {len(returns)} of {self.steps} steps")
        if result.messages != self.expected_messages:
            phase.fail(f"{result.messages} messages, predicted {self.expected_messages}",
                       steps=self.steps)
        state = result.final_state
        if self.first_state is None:
            self.first_state = state
            phase.info["digest"] = hashlib.sha256(
                b"".join(state[k].tobytes() for k in sorted(state))).hexdigest()
            phase.info.update(self._sim_metrics(result))
            if budget:
                _budget_done(phase, result.history[-1].train_loss, result.final_test_accuracy)
        elif any(not np.array_equal(state[k], self.first_state[k]) for k in state):
            phase.fail("a repeated run ended with different weights", steps=self.steps)

    def _sim_metrics(self, result) -> dict:
        steps = self.steps
        busy = result.comm_busy_seconds
        return {
            "sim_step_s": result.simulated_seconds / steps,
            "cluster.buckets": len(self.plan_nbytes),
            "comm.messages_per_step": result.messages / steps,
            "comm.bytes_per_step": result.comm_bytes / steps,
            "cluster.exposed_comm_s": result.exposed_comm_seconds / steps,
            "cluster.comm_busy_s": busy / steps,
            # undefined without communication time, never reported as 0
            "cluster.overlap_efficiency": (
                1.0 - result.exposed_comm_seconds / busy if busy > 0 else None
            ),
            "perfmodel.sim_over_predicted": result.simulated_seconds / self.predicted_s,
        }


CLASSES = {
    "serial-resnet-b256": SerialResnet,
    "serial-alexnet-b8": SerialAlexnet,
    "cluster-alexnet-bn-p2": ClusterAlexnetBN,
}


def make(name: str, seed: int, static_memory: bool | None = None) -> Workload:
    return CLASSES[name](name, seed, static_memory=static_memory)
