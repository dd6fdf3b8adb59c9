"""Runtime failure paths: timeouts, poisoning, root-cause reporting."""

import threading
import time

import numpy as np
import pytest

from repro.runtime import (
    ParallelJob,
    Transport,
    TransportPoisonedError,
)
from repro.runtime.comm import _payload_bytes


class TestTimeoutUnification:
    def test_transport_carries_job_timeout(self):
        job = ParallelJob(2, timeout=0.25)
        assert job.transport.timeout == 0.25
        assert job.timeout == 0.25

    def test_timeout_applies_to_existing_transport(self):
        tr = Transport(2)
        assert tr.timeout == 120.0
        ParallelJob(2, transport=tr, timeout=0.5)
        assert tr.timeout == 0.5

    def test_fetch_uses_configured_timeout(self):
        tr = Transport(1, timeout=0.05)
        t0 = time.monotonic()
        with pytest.raises(TimeoutError, match="recv timeout"):
            tr.fetch(0, 0, 0)
        assert time.monotonic() - t0 < 5.0

    def test_recv_timeout_surfaces_as_root_cause(self):
        def prog(comm):
            if comm.rank == 1:
                comm.recv(source=0)   # never sent

        with pytest.raises(RuntimeError, match="recv timeout") as info:
            ParallelJob(2, timeout=0.1).run(prog)
        assert isinstance(info.value.__cause__, TimeoutError)

    def test_barrier_uses_configured_timeout(self):
        def prog(comm):
            if comm.rank == 0:
                comm.barrier()        # rank 1 never joins

        t0 = time.monotonic()
        with pytest.raises(RuntimeError):
            ParallelJob(2, timeout=0.1).run(prog)
        assert time.monotonic() - t0 < 5.0


class TestPoisoning:
    def test_failed_rank_unsticks_receivers(self):
        """A rank failure must not leave peers waiting out their recv."""
        def prog(comm):
            if comm.rank == 0:
                raise ValueError("boom")
            comm.recv(source=0)       # would block 120 s without poison

        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="rank 0 failed.*boom"):
            ParallelJob(2).run(prog)
        assert time.monotonic() - t0 < 10.0

    def test_root_cause_preferred_over_poison_and_barrier(self):
        def prog(comm):
            if comm.rank == 1:
                raise KeyError("root")
            if comm.rank == 0:
                comm.recv(source=1)   # poisoned
            comm.barrier()            # broken

        with pytest.raises(RuntimeError, match="rank 1 failed"):
            ParallelJob(3).run(prog)

    def test_join_timeout_poisons_stuck_ranks(self):
        """No leaked daemon threads after the join deadline passes."""
        before = threading.active_count()

        def prog(comm):
            if comm.rank == 0:
                comm.recv(source=1)   # rank 1 exits without sending

        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="rank 0 failed"):
            ParallelJob(2, join_timeout=0.3).run(prog)
        assert time.monotonic() - t0 < 10.0
        time.sleep(0.2)
        assert threading.active_count() <= before

    def test_poisoned_fetch_raises_specific_error(self):
        tr = Transport(2)
        tr.poison("test")
        with pytest.raises(TransportPoisonedError):
            tr.fetch(0, 1, 0, timeout=1.0)

    def test_delivered_message_wins_over_poison(self):
        # A collective's root posts its result, then fails: the poison
        # lands after the message, and the receiver still takes it.
        tr = Transport(2)
        tr.post(0, 1, 0, b"x", 1)
        tr.poison("test")
        assert tr.fetch(0, 1, 0, timeout=1.0) == b"x"
        with pytest.raises(TransportPoisonedError):
            tr.fetch(0, 1, 0, timeout=1.0)

    def test_reset_clears_poison_and_mailboxes(self):
        tr = Transport(2)
        tr.post(0, 1, 0, b"x", 1)
        tr.poison("test")
        tr.reset()
        assert not tr.poisoned
        assert tr.undelivered() == 0
        assert tr.message_count() == 1   # records survive a reset

    def test_job_reusable_after_failure(self):
        job = ParallelJob(2)

        def bad(comm):
            if comm.rank == 0:
                raise ValueError("first run dies")
            comm.recv(source=0)

        with pytest.raises(RuntimeError):
            job.run(bad)
        assert job.run(lambda c: c.allreduce(1)) == [2, 2]


class TestPayloadBytes:
    def test_complex_scalars_counted_exactly(self):
        assert _payload_bytes(1 + 2j) == 16
        assert _payload_bytes(np.complex128(1j)) == 16
        assert _payload_bytes(np.complex64(1j)) == 8

    def test_numpy_scalars_use_itemsize(self):
        assert _payload_bytes(np.float32(1.0)) == 4
        assert _payload_bytes(np.float64(1.0)) == 8
        assert _payload_bytes(np.int16(3)) == 2

    def test_zero_d_arrays(self):
        assert _payload_bytes(np.array(1j)) == 16
        assert _payload_bytes(np.array(1.0, dtype=np.float32)) == 4

    def test_python_numbers_nominal(self):
        assert _payload_bytes(3) == 8
        assert _payload_bytes(3.0) == 8

    def test_complex_traffic_recorded_exactly(self):
        """PARATEC-style complex payloads: bytes measured, not guessed."""
        tr = Transport(2)

        def prog(comm):
            if comm.rank == 0:
                comm.send(np.complex128(1j), dest=1)
                comm.send([np.complex128(1j)] * 3, dest=1, tag=1)
            else:
                comm.recv(source=0)
                comm.recv(source=0, tag=1)

        ParallelJob(2, transport=tr).run(prog)
        assert tr.messages[0].nbytes == 16
        assert sum(m.nbytes for m in tr.messages) == 16 + 48


class TestSubCommunicators:
    def test_subcomm_p2p_lands_in_global_transport(self):
        """_SubComm traffic is recorded with *global* ranks."""
        tr = Transport(4)

        def prog(comm):
            sub = comm.split(comm.rank // 2)
            peer = 1 - sub.rank
            return sub.sendrecv(np.float64(comm.rank), dest=peer,
                                source=peer)

        out = ParallelJob(4, transport=tr).run(prog)
        assert [float(x) for x in out] == [1.0, 0.0, 3.0, 2.0]
        assert {(m.src, m.dst) for m in tr.messages} \
            == {(0, 1), (1, 0), (2, 3), (3, 2)}

    def test_subcomm_split_unsupported(self):
        def prog(comm):
            sub = comm.split(0)
            sub.split(0)

        with pytest.raises(RuntimeError, match="not supported"):
            ParallelJob(2).run(prog)

    def test_subcomm_inherits_timeout(self):
        def prog(comm):
            sub = comm.split(0)
            return sub._shared.timeout

        assert ParallelJob(2, timeout=7.0).run(prog) == [7.0, 7.0]
