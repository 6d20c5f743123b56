"""Benchmarks for the simulated-cluster allreduce algorithms.

Each timed sample spins up a 4-rank thread cluster and runs several
allreduce rounds over a gradient-sized vector, so the number includes the
real synchronisation cost of the simulated fabric (mailboxes, condition
variables) — the quantity the ring/tree/RHD trade-off in the paper's
communication model is about.
"""

from __future__ import annotations

import numpy as np

from ..harness import register

_WORLD = 4
_ELEMENTS = 65_536
_ROUNDS = 4


def _allreduce_bench(algorithm: str):
    from repro.comm.collectives import allreduce
    from repro.comm.communicator import run_cluster

    def worker(comm):
        data = np.random.default_rng(comm.rank).normal(size=_ELEMENTS)
        for _ in range(_ROUNDS):
            data = allreduce(comm, data, algorithm)
        return float(data[0])

    return lambda: run_cluster(_WORLD, worker)


_PARAMS = {"world": _WORLD, "elements": _ELEMENTS, "rounds": _ROUNDS}


@register(
    "allreduce.tree",
    area="comm",
    params=dict(_PARAMS, algorithm="tree"),
    repeats=10,
    quick_repeats=3,
)
def _allreduce_tree():
    return _allreduce_bench("tree")


@register(
    "allreduce.ring",
    area="comm",
    params=dict(_PARAMS, algorithm="ring"),
    repeats=10,
    quick_repeats=3,
)
def _allreduce_ring():
    return _allreduce_bench("ring")


@register(
    "allreduce.rhd",
    area="comm",
    params=dict(_PARAMS, algorithm="rhd"),
    repeats=10,
    quick_repeats=3,
)
def _allreduce_rhd():
    return _allreduce_bench("rhd")
