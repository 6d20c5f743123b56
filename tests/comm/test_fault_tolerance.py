"""Transport-level fault tolerance: typed timeouts, death notification,
halt, the failure detector, and fault pricing on the fabric."""

import threading
import time

import numpy as np
import pytest

from repro.comm import (
    ClusterHalted,
    Communicator,
    FabricTimeout,
    FailureDetector,
    NetworkProfile,
    PeerDeadError,
    PeerStatus,
    SimulatedFabric,
    run_cluster,
)
from repro.faults import FaultInjector, FaultPlan


class TestTypedTimeout:
    def test_recv_timeout_is_typed_and_carries_context(self):
        f = SimulatedFabric(2)
        with pytest.raises(FabricTimeout) as exc_info:
            f.recv(1, 0, tag=7, timeout=0.05)
        exc = exc_info.value
        assert exc.dst == 1 and exc.src == 0 and exc.tag == 7
        assert isinstance(exc, TimeoutError)  # old except clauses still work

    def test_communicator_recv_timeout_override(self):
        f = SimulatedFabric(2)
        comm = Communicator(f, 1, recv_timeout=30.0)
        start = time.monotonic()
        with pytest.raises(FabricTimeout):
            comm.recv(0, timeout=0.05)
        assert time.monotonic() - start < 5.0

    def test_communicator_default_recv_timeout(self):
        f = SimulatedFabric(2)
        comm = Communicator(f, 1, recv_timeout=0.05)
        with pytest.raises(FabricTimeout):
            comm.recv(0)


class TestDeathNotification:
    def test_recv_from_dead_peer_fails_fast(self):
        f = SimulatedFabric(2)
        f.mark_dead(0)
        start = time.monotonic()
        with pytest.raises(PeerDeadError):
            f.recv(1, 0, timeout=60.0)  # must not wait the 60 s
        assert time.monotonic() - start < 5.0

    def test_mark_dead_wakes_blocked_receiver(self):
        f = SimulatedFabric(2)
        caught = []

        def receiver():
            try:
                f.recv(1, 0, timeout=60.0)
            except PeerDeadError as exc:
                caught.append(exc)

        t = threading.Thread(target=receiver, daemon=True)
        t.start()
        time.sleep(0.05)
        f.mark_dead(0)
        t.join(5.0)
        assert not t.is_alive()
        assert caught and caught[0].src == 0

    def test_in_flight_messages_drain_before_death_error(self):
        f = SimulatedFabric(2)
        f.send(0, 1, np.arange(3.0))
        f.mark_dead(0)
        assert np.array_equal(f.recv(1, 0, timeout=1.0), np.arange(3.0))
        with pytest.raises(PeerDeadError):
            f.recv(1, 0, timeout=1.0)


class TestHalt:
    def test_halt_wakes_every_blocked_receiver(self):
        f = SimulatedFabric(4)
        outcomes = [None] * 3

        def receiver(rank):
            try:
                f.recv(rank, (rank + 1) % 4, timeout=60.0)
            except ClusterHalted as exc:
                outcomes[rank - 1] = exc

        threads = [threading.Thread(target=receiver, args=(r,), daemon=True)
                   for r in (1, 2, 3)]
        for t in threads:
            t.start()
        time.sleep(0.05)
        f.halt("test abort")
        for t in threads:
            t.join(5.0)
            assert not t.is_alive()
        assert all(isinstance(o, ClusterHalted) for o in outcomes)
        assert "test abort" in str(outcomes[0])

    def test_halt_beats_pending_payload(self):
        f = SimulatedFabric(2)
        f.send(0, 1, 1.0)
        f.halt()
        with pytest.raises(ClusterHalted):
            f.recv(1, 0, timeout=1.0)


class TestFailureDetector:
    def test_transport_death_is_authoritative(self):
        f = SimulatedFabric(3)
        det = FailureDetector(f, rank=0, suspect_after=10.0)
        assert det.diagnose(1) == PeerStatus.ALIVE
        f.mark_dead(1)
        assert det.diagnose(1) == PeerStatus.DEAD
        assert det.dead_peers() == {1}

    def test_silence_makes_a_suspect_not_a_corpse(self):
        f = SimulatedFabric(2, NetworkProfile.ideal())
        det = FailureDetector(f, rank=0, suspect_after=5.0)
        det.observe(1, 1.0)
        f.clocks[0].advance(2.0)
        assert det.diagnose(1) == PeerStatus.ALIVE
        f.clocks[0].advance(10.0)
        assert det.diagnose(1) == PeerStatus.SUSPECT

    def test_observe_feeds_silence(self):
        f = SimulatedFabric(2)
        det = FailureDetector(f, rank=0)
        det.observe(1, 3.0)
        assert det.silence(1, 10.0) == 7.0
        det.observe(1, 2.0)  # stale observation must not move time backwards
        assert det.silence(1, 10.0) == 7.0

    def test_communicator_reports_heartbeats(self):
        def worker(comm):
            comm.detector = FailureDetector(comm.fabric, comm.rank)
            if comm.rank == 0:
                comm.send(1, np.float64(1.0))
                return None
            comm.recv(0)
            return comm.detector.silence(0, comm.time)

        results, _ = run_cluster(2, worker)
        assert results[1] == 0.0  # heard from rank 0 "just now"

    def test_survivors_agree_on_dead_set(self):
        f = SimulatedFabric(4)
        f.mark_dead(2)
        detectors = [FailureDetector(f, r) for r in (0, 1, 3)]
        verdicts = {d.diagnose(2) for d in detectors}
        assert verdicts == {PeerStatus.DEAD}


class TestFaultPricing:
    PROFILE = NetworkProfile(alpha=1e-5, beta=1e-9)

    def _makespan(self, plan: FaultPlan | None) -> tuple[float, object]:
        injector = FaultInjector(plan) if plan else None
        f = SimulatedFabric(2, self.PROFILE, injector=injector)
        for i in range(300):
            f.send(0, 1, np.ones(64), tag=i)
            f.recv(1, 0, tag=i, timeout=5.0)
        return f.makespan, injector

    def test_message_loss_costs_time_not_values(self):
        clean, _ = self._makespan(None)
        lossy, injector = self._makespan(FaultPlan(seed=3, drop_prob=0.05))
        assert lossy > clean
        assert lossy - clean == pytest.approx(
            injector.stats.retransmit_seconds
        )

    def test_delay_faults_push_arrival(self):
        clean, _ = self._makespan(None)
        delayed, injector = self._makespan(
            FaultPlan(seed=3, delay_prob=0.1, delay_seconds=1e-3)
        )
        assert delayed > clean
        assert injector.stats.messages_delayed > 0

    def test_straggler_stretches_compute(self):
        inj = FaultInjector(FaultPlan(stragglers={0: 3.0}))
        f = SimulatedFabric(2, injector=inj)
        slow, fast = Communicator(f, 0), Communicator(f, 1)
        slow.compute(2.0)
        fast.compute(2.0)
        assert slow.time == pytest.approx(6.0)
        assert fast.time == pytest.approx(2.0)
        assert inj.stats.straggler_seconds == pytest.approx(4.0)

    def test_isend_also_pays_fault_delay(self):
        inj = FaultInjector(FaultPlan(seed=0, delay_prob=0.999999,
                                      delay_seconds=2.0))
        f = SimulatedFabric(2, self.PROFILE, injector=inj)
        f.isend(0, 1, np.ones(8))
        f.recv(1, 0, timeout=5.0)
        assert f.time_of(1) >= 2.0

    def test_collectives_survive_loss_bit_identically(self):
        from repro.comm.collectives import ALLREDUCE_ALGORITHMS, allreduce

        rng = np.random.default_rng(0)
        data = rng.normal(size=(4, 37))
        expected = data.sum(axis=0)
        for name in ALLREDUCE_ALGORITHMS:
            def worker(comm, name=name):
                return allreduce(comm, data[comm.rank].copy(), name, tag=1000)

            results, _ = run_cluster(
                4, worker,
                injector=FaultInjector(FaultPlan(seed=5, drop_prob=0.05)),
                recv_timeout=10.0,
            )
            for out in results:
                np.testing.assert_array_equal(out, results[0])
            np.testing.assert_allclose(results[0], expected, atol=1e-12), name
