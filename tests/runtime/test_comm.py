"""Communicator: point-to-point, collectives, exchange semantics."""

import numpy as np
import pytest

from repro.runtime import ParallelJob, Transport


def _phases_out_of_step(comm):
    """Rank 1 answers inside phase ``a`` what rank 0 asks inside ``b``.

    Module-level so the process backend can pickle it by reference.
    Only a phase that synchronized the ranks could deadlock it.
    """
    with comm.phase("a"):
        if comm.rank == 1:
            got = comm.recv(source=0, tag=1)
            comm.send(got + 1.0, dest=0, tag=2)
    with comm.phase("b"):
        if comm.rank == 0:
            comm.send(np.zeros(4), dest=1, tag=1)
            return comm.recv(source=1, tag=2)
    return None


class TestPointToPoint:
    def test_send_recv_array(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send(np.arange(10.0), dest=1)
                return None
            if comm.rank == 1:
                return comm.recv(source=0)
            return None

        out = ParallelJob(2).run(prog)
        np.testing.assert_array_equal(out[1], np.arange(10.0))

    def test_send_borrow_then_cow(self):
        """Ownership semantics: mutating after send must not affect the
        receiver.  The sent buffer is borrowed (frozen in transit); the
        sender mutates through writable(), which copies on write."""
        from repro.runtime import writable

        def prog(comm):
            if comm.rank == 0:
                a = np.ones(4)
                comm.send(a, dest=1)
                a = writable(a)       # copy-on-write: private copy
                a[:] = -1.0
                comm.barrier()
                return None
            comm.barrier()
            return comm.recv(source=0)

        out = ParallelJob(2).run(prog)
        np.testing.assert_array_equal(out[1], np.ones(4))

    def test_send_freezes_borrowed_buffer(self):
        """In-place mutation of a buffer in transit fails loudly."""
        def prog(comm):
            if comm.rank == 0:
                a = np.ones(4)
                comm.send(a, dest=1)
                with pytest.raises(ValueError, match="read-only"):
                    a[:] = -1.0
                comm.barrier()
                return None
            comm.barrier()
            return comm.recv(source=0)

        out = ParallelJob(2).run(prog)
        np.testing.assert_array_equal(out[1], np.ones(4))

    def test_legacy_copy_mode(self):
        """zero_copy=False restores unconditional deep-copy semantics."""
        def prog(comm):
            if comm.rank == 0:
                a = np.ones(4)
                comm.send(a, dest=1)
                a[:] = -1.0           # legal: the runtime copied
                comm.barrier()
                return None
            comm.barrier()
            return comm.recv(source=0)

        out = ParallelJob(2, zero_copy=False).run(prog)
        np.testing.assert_array_equal(out[1], np.ones(4))

    def test_tags_disambiguate(self):
        def prog(comm):
            if comm.rank == 0:
                comm.send("b", dest=1, tag=2)
                comm.send("a", dest=1, tag=1)
                return None
            return (comm.recv(0, tag=1), comm.recv(0, tag=2))

        assert ParallelJob(2).run(prog)[1] == ("a", "b")

    def test_sendrecv_ring(self):
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            return comm.sendrecv(comm.rank, dest=right, source=left)

        out = ParallelJob(5).run(prog)
        assert out == [4, 0, 1, 2, 3]

    def test_exchange_halo_pattern(self):
        def prog(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            got = comm.exchange({right: f"from{comm.rank}",
                                 left: f"from{comm.rank}"})
            return sorted(got.values())

        out = ParallelJob(4).run(prog)
        assert out[0] == ["from1", "from3"]

    def test_exchange_with_self_rejected(self):
        def prog(comm):
            comm.exchange({comm.rank: 1})

        with pytest.raises(RuntimeError, match="exchange with self"):
            ParallelJob(2).run(prog)


class TestCollectives:
    def test_allreduce_sum_scalar(self):
        out = ParallelJob(6).run(lambda c: c.allreduce(c.rank))
        assert out == [15] * 6

    def test_allreduce_array(self):
        def prog(comm):
            return comm.allreduce(np.full(3, float(comm.rank)))

        out = ParallelJob(4).run(prog)
        for r in out:
            np.testing.assert_array_equal(r, np.full(3, 6.0))

    def test_allreduce_max_min(self):
        assert ParallelJob(4).run(
            lambda c: c.allreduce(c.rank, op="max")) == [3] * 4
        assert ParallelJob(4).run(
            lambda c: c.allreduce(c.rank, op="min")) == [0] * 4

    def test_allreduce_bad_op(self):
        with pytest.raises(RuntimeError, match="unknown reduction"):
            ParallelJob(2).run(lambda c: c.allreduce(1, op="prod"))

    def test_bcast(self):
        def prog(comm):
            val = np.arange(4.0) if comm.rank == 2 else None
            return comm.bcast(val, root=2)

        out = ParallelJob(4).run(prog)
        for r in out:
            np.testing.assert_array_equal(r, np.arange(4.0))

    def test_gather(self):
        def prog(comm):
            return comm.gather(comm.rank * 10, root=1)

        out = ParallelJob(3).run(prog)
        assert out[0] is None and out[2] is None
        assert out[1] == [0, 10, 20]

    def test_allgather(self):
        out = ParallelJob(3).run(lambda c: c.allgather(c.rank))
        assert out == [[0, 1, 2]] * 3

    def test_alltoall_transpose(self):
        def prog(comm):
            chunks = [f"{comm.rank}->{d}" for d in range(comm.size)]
            return comm.alltoall(chunks)

        out = ParallelJob(3).run(prog)
        assert out[1] == ["0->1", "1->1", "2->1"]

    def test_alltoall_wrong_arity(self):
        with pytest.raises(RuntimeError, match="alltoall needs"):
            ParallelJob(3).run(lambda c: c.alltoall([1, 2]))

    def test_collectives_repeatable(self):
        def prog(comm):
            return [comm.allreduce(comm.rank + i) for i in range(5)]

        out = ParallelJob(3).run(prog)
        assert out[0] == [3, 6, 9, 12, 15]


class TestJobMechanics:
    def test_single_rank_job(self):
        assert ParallelJob(1).run(lambda c: c.allreduce(42)) == [42]

    def test_rank_args(self):
        out = ParallelJob(3).run(lambda c, x: x * 2,
                                 rank_args=[(1,), (2,), (3,)])
        assert out == [2, 4, 6]

    def test_rank_args_length_checked(self):
        with pytest.raises(ValueError):
            ParallelJob(3).run(lambda c, x: x, rank_args=[(1,)])

    def test_exception_propagates(self):
        def prog(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            comm.barrier()

        with pytest.raises(RuntimeError, match="rank 1 failed"):
            ParallelJob(2).run(prog)

    def test_invalid_nprocs(self):
        with pytest.raises(ValueError):
            ParallelJob(0)

    def test_transport_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ParallelJob(4, transport=Transport(2))

    def test_phase_labels_traffic(self):
        transport = Transport(2)

        def prog(comm):
            with comm.phase("halo"):
                if comm.rank == 0:
                    comm.send(np.zeros(10), dest=1)
                else:
                    comm.recv(source=0)
            with comm.phase("other"):
                if comm.rank == 0:
                    comm.send(np.zeros(3), dest=1)
                else:
                    comm.recv(source=0)

        ParallelJob(2, transport=transport).run(prog)
        phases = {m.phase for m in transport.messages}
        assert phases == {"halo", "other"}
        halo = [m for m in transport.messages if m.phase == "halo"]
        assert sum(m.nbytes for m in halo) == 80

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_phases_never_synchronize_ranks(self, backend):
        transport = Transport(2, timeout=10.0)
        out = ParallelJob(2, transport=transport,
                          backend=backend).run(_phases_out_of_step)
        np.testing.assert_array_equal(out[0], np.ones(4))
        labels = {(m.src, m.tag): m.phase for m in transport.messages}
        assert labels == {(0, 1): "b", (1, 2): "a"}
