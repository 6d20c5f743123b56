"""One allreduce implementation per algorithm, driven blocking or nonblocking.

Each algorithm lives once, as a generator in
``repro.comm.collectives.ALLREDUCE_ALGORITHMS``.  These tests pin that
structure and the invariants that follow from it over the whole parameter
space: both drivers give the same bits on every rank with the same message
and byte counts, and their simulated makespans sit within documented bounds
of the analytic ``allreduce_cost``.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.comm import NetworkProfile, run_cluster
from repro.comm import collectives
from repro.comm.collectives import allreduce_cost

#: four α-β regimes: latency-bound to bandwidth-bound
_PROFILES = [
    NetworkProfile(alpha=1e-5, beta=1e-8),
    NetworkProfile(alpha=1e-6, beta=1e-9),
    NetworkProfile(alpha=1e-4, beta=1e-10),
    NetworkProfile(alpha=2e-6, beta=8e-10),
]


def _rank_data(rank: int, n: int) -> np.ndarray:
    return np.random.default_rng(rank).normal(size=n)


def _run(world, n, algorithm, profile=None, nonblocking=False):
    def worker(comm):
        x = _rank_data(comm.rank, n)
        if nonblocking:
            return comm.iallreduce(x, algorithm=algorithm).wait()
        return comm.allreduce(x, algorithm=algorithm)

    results, fabric = run_cluster(world, worker, profile=profile)
    return results, fabric


def test_both_drivers_run_the_registered_generator(monkeypatch):
    """Blocking and nonblocking allreduce share one implementation: both go
    through ``ALLREDUCE_ALGORITHMS[name]`` looked up at call time."""
    calls = []
    ring = collectives.ALLREDUCE_ALGORITHMS["ring"]

    def counting(rank, size, send, flat, tag):
        calls.append(rank)
        return ring(rank, size, send, flat, tag)

    monkeypatch.setitem(collectives.ALLREDUCE_ALGORITHMS, "ring", counting)
    _run(3, 10, "ring")
    assert sorted(calls) == [0, 1, 2]
    calls.clear()
    _run(3, 10, "ring", nonblocking=True)
    assert sorted(calls) == [0, 1, 2]


@st.composite
def _cases(draw):
    algorithm = draw(st.sampled_from(["tree", "ring", "rhd"]))
    if algorithm == "rhd":
        world = 2 ** draw(st.integers(0, 6))
    else:
        world = draw(st.integers(1, 64))
    n = draw(st.integers(1, 1001))
    profile = draw(st.sampled_from(_PROFILES))
    return algorithm, world, n, profile


@given(case=_cases())
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_blocking_and_nonblocking_agree_and_bound_the_model(case):
    algorithm, world, n, profile = case
    blocking, fb = _run(world, n, algorithm, profile)
    nonblocking, fn = _run(world, n, algorithm, profile, nonblocking=True)

    # same bits on every rank under both drivers, same wire traffic
    for got in blocking + nonblocking:
        np.testing.assert_array_equal(got, blocking[0])
    np.testing.assert_allclose(blocking[0], sum(_rank_data(r, n) for r in range(world)),
                               rtol=1e-12, atol=1e-12)
    assert (fb.stats.messages, fb.stats.bytes) == (fn.stats.messages, fn.stats.bytes)

    # simulated makespans against the analytic critical path
    t_block, t_nonblock = fb.makespan, fn.makespan
    cost = allreduce_cost(world, n * 8, profile, algorithm)
    per_element = 8 * profile.beta
    if algorithm == "tree":
        assert t_nonblock <= t_block * (1 + 1e-12)
        assert t_block <= cost * (1 + 1e-12)
        if world & (world - 1) == 0:
            assert t_block == pytest.approx(cost, rel=1e-12, abs=1e-18)
            assert t_nonblock == pytest.approx(cost, rel=1e-12, abs=1e-18)
    else:
        assert t_block == t_nonblock
        hops = 2 * (world - 1) if algorithm == "ring" else 2 * int(math.log2(world))
        assert abs(t_block - cost) <= hops * per_element * (1 + 1e-9)
