"""Checkpointer: atomic per-rank .npz snapshots and consistency logic."""

import threading
import time

import numpy as np
import pytest

from repro.resilience import (
    Checkpointer,
    CheckpointCorruptError,
    CheckpointError,
    RecoveryPolicy,
    ResilientJob,
    SDCDetectedError,
)
from repro.runtime import FaultInjector, FaultPlan, ParallelJob, RankCrashError


class TestRoundtrip:
    def test_bitwise_roundtrip(self, tmp_path):
        ck = Checkpointer(tmp_path)
        f = np.random.default_rng(0).standard_normal((3, 5))
        c = (np.random.default_rng(1).standard_normal(4)
             + 1j * np.random.default_rng(2).standard_normal(4))
        tags = np.arange(7, dtype=np.int64)
        ck.save(2, 0, f=f, c=c, tags=tags, t=np.float64(0.125))
        data = ck.load(2, 0)
        assert np.array_equal(data["f"], f)
        assert np.array_equal(data["c"], c)
        assert data["c"].dtype == np.complex128
        assert np.array_equal(data["tags"], tags)
        assert data["tags"].dtype == np.int64
        assert float(data["t"][()]) == 0.125

    def test_empty_arrays_roundtrip(self, tmp_path):
        ck = Checkpointer(tmp_path)
        ck.save(1, 0, r=np.empty(0), tag=np.empty(0, dtype=np.int64))
        data = ck.load(1, 0)
        assert data["r"].shape == (0,)

    def test_object_payload_rejected(self, tmp_path):
        ck = Checkpointer(tmp_path)
        with pytest.raises(TypeError, match="not numeric"):
            ck.save(0, 0, bad=np.array([object()]))

    def test_no_temp_files_left(self, tmp_path):
        ck = Checkpointer(tmp_path)
        for step in range(4):
            for rank in range(2):
                ck.save(step, rank, x=np.ones(2) * step)
        leftovers = [p.name for p in tmp_path.iterdir()
                     if not p.name.endswith(".npz")]
        assert leftovers == []


class TestConsistency:
    def test_latest_consistent_requires_all_ranks(self, tmp_path):
        ck = Checkpointer(tmp_path)
        assert ck.latest_consistent(2) is None
        ck.save(1, 0, x=np.ones(1))
        ck.save(1, 1, x=np.ones(1))
        ck.save(2, 0, x=np.ones(1))      # rank 1 never finished step 2
        assert ck.latest_consistent(2) == 1
        ck.save(2, 1, x=np.ones(1))
        assert ck.latest_consistent(2) == 2

    def test_consistent_steps_sorted(self, tmp_path):
        ck = Checkpointer(tmp_path)
        for step in (3, 1, 2):
            for rank in range(2):
                ck.save(step, rank, x=np.ones(1))
        assert ck.consistent_steps(2) == [1, 2, 3]

    def test_prune_keeps_newest_per_rank(self, tmp_path):
        ck = Checkpointer(tmp_path, keep=2)
        for step in range(5):
            ck.save(step, 0, x=np.ones(1))
        assert ck.rank_steps(0) == [3, 4]

    def test_clear(self, tmp_path):
        ck = Checkpointer(tmp_path)
        ck.save(1, 0, x=np.ones(1))
        ck.clear()
        assert ck.rank_steps(0) == []


class TestIntegrity:
    def test_load_missing_names_rank_and_step(self, tmp_path):
        ck = Checkpointer(tmp_path)
        with pytest.raises(CheckpointError,
                           match="step 3 rank 1: file missing") as info:
            ck.load(3, 1)
        assert (info.value.step, info.value.rank) == (3, 1)

    def test_load_truncated_raises_unreadable(self, tmp_path):
        ck = Checkpointer(tmp_path)
        path = ck.save(2, 0, x=np.arange(64.0))
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(CheckpointError,
                           match="step 2 rank 0: unreadable archive"):
            ck.load(2, 0)

    def test_stale_crc_detected_as_corruption(self, tmp_path):
        ck = Checkpointer(tmp_path)
        path = ck.save(1, 0, x=np.arange(4.0))
        with np.load(path) as z:
            raw = {name: z[name] for name in z.files}
        raw["x"] = raw["x"] + 1.0       # payload changed, CRC stale
        with open(path, "wb") as fh:
            np.savez(fh, **raw)
        with pytest.raises(CheckpointCorruptError,
                           match="array 'x' CRC mismatch"):
            ck.load(1, 0)
        assert not ck.verified(1, 0)
        assert ck.load(1, 0, verify=False)["x"][0] == 1.0

    def test_crc_fields_reserved(self, tmp_path):
        ck = Checkpointer(tmp_path)
        with pytest.raises(ValueError, match="reserved"):
            ck.save(0, 0, _crc_x=np.ones(1))

    def test_consistent_steps_skip_unreadable_files(self, tmp_path):
        ck = Checkpointer(tmp_path)
        for step in (1, 2):
            for rank in range(2):
                ck.save(step, rank, x=np.ones(8) * step)
        bad = tmp_path / "step00000002.rank00001.npz"
        bad.write_bytes(b"\x00" * 32)   # exists but is not an archive
        assert ck.consistent_steps(2) == [1]
        assert ck.latest_consistent(2) == 1

    def test_injected_corruption_skipped_by_latest_verified(self, tmp_path):
        injector = FaultInjector(FaultPlan(
            seed=3, ckpt_corrupt=1.0, ckpt_corrupt_rank=0,
            ckpt_corrupt_step=2))
        ck = Checkpointer(tmp_path, injector=injector)
        for step in (1, 2):
            ck.save(step, 0, x=np.arange(128.0) * step)
        assert injector.counts() == {"ckpt-corrupt": 1}
        assert not ck.verified(2, 0)
        assert ck.verified(1, 0)
        # The damaged file exists and may even be structurally readable,
        # but the rollback target must be the older, CRC-clean step.
        assert ck.latest_verified(1) == 1
        # One-shot: re-writing the same step after rollback saves clean.
        ck.save(2, 0, x=np.arange(128.0) * 2)
        assert ck.latest_verified(1) == 2

    def test_quarantine_distrusts_later_steps_until_resaved(self, tmp_path):
        ck = Checkpointer(tmp_path)
        for step in (1, 2, 3):
            for rank in range(2):
                ck.save(step, rank, x=np.ones(4) * step)
        assert ck.latest_verified(2) == 3
        # A detection at step 2 taints everything checkpointed from
        # then on, even though the files are CRC-clean: the CRC proves
        # the bytes on disk, not the health of the state they froze.
        ck.quarantine(2)
        assert ck.verified_steps(2) == [1]
        assert ck.latest_verified(2) == 1
        # The replay re-earns trust label by label as it overwrites.
        ck.save(2, 0, x=np.ones(4) * 2)
        ck.save(2, 1, x=np.ones(4) * 2)
        assert ck.latest_verified(2) == 2
        assert 3 in ck._quarantined

    def test_pre_crc_checkpoints_still_load(self, tmp_path):
        ck = Checkpointer(tmp_path)
        with open(tmp_path / "step00000001.rank00000.npz", "wb") as fh:
            np.savez(fh, x=np.arange(3.0))     # no _crc_ fields
        assert np.array_equal(ck.load(1, 0)["x"], np.arange(3.0))
        assert ck.verified(1, 0)

    def test_concurrent_loads_read_archives_one_at_a_time(
            self, tmp_path, monkeypatch):
        """Rank threads restarting together must not parse .npy headers
        at once (CPython 3.11's AST converter keeps shared state)."""
        from repro.resilience import checkpoint

        ck = Checkpointer(tmp_path)
        for rank in range(4):
            ck.save(1, rank, x=np.arange(8.0) + rank)
        guard = threading.Lock()
        inside = [0, 0]     # [now, peak]: calls between np.load and close
        real_load = checkpoint.np.load

        class Tracked:
            def __init__(self, z):
                self.z = z

            def __enter__(self):
                return self.z.__enter__()

            def __exit__(self, *exc):
                with guard:
                    inside[0] -= 1
                return self.z.__exit__(*exc)

        def counting_load(*args, **kwargs):
            with guard:
                inside[0] += 1
                inside[1] = max(inside[1], inside[0])
            time.sleep(0.05)
            return Tracked(real_load(*args, **kwargs))

        monkeypatch.setattr(checkpoint.np, "load", counting_load)
        start = threading.Barrier(4)
        out = {}

        def load(rank):
            start.wait(timeout=10)
            out[rank] = ck.load(1, rank)["x"]

        threads = [threading.Thread(target=load, args=(r,))
                   for r in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
        assert inside[1] == 1
        assert all(np.array_equal(out[r], np.arange(8.0) + r)
                   for r in range(4))


class TestRecoveryPolicy:
    def _sdc(self, step=3, monitor="mass"):
        return SDCDetectedError(1, step, monitor, 2.0, 1.0, 1.0, 1e-8)

    def test_first_sdc_is_transient_rollback(self):
        policy = RecoveryPolicy(max_restarts=2)
        ev = policy.decide(self._sdc(), attempt=0)
        assert (ev.kind, ev.classification, ev.action) == \
            ("sdc", "transient", "rollback")
        assert (ev.rank, ev.step, ev.monitor) == (1, 3, "mass")

    def test_repeat_signature_is_persistent_abort(self):
        policy = RecoveryPolicy(max_restarts=5)
        policy.decide(self._sdc(), attempt=0)
        ev = policy.decide(self._sdc(), attempt=1)
        assert (ev.classification, ev.action) == ("persistent", "abort")
        # A *different* site is a new transient, not the same stuck-at.
        ev2 = policy.decide(self._sdc(step=5), attempt=1)
        assert (ev2.classification, ev2.action) == \
            ("transient", "rollback")

    def test_crash_restarts_until_budget_exhausted(self):
        policy = RecoveryPolicy(max_restarts=1)
        ev = policy.decide(RankCrashError(0, 2), attempt=0)
        assert (ev.kind, ev.action) == ("crash", "restart")
        ev = policy.decide(RankCrashError(0, 4), attempt=1)
        assert ev.action == "abort"

    def test_fatal_errors_never_retried(self):
        policy = RecoveryPolicy(max_restarts=5)
        ev = policy.decide(ValueError("genuine bug"), attempt=0)
        assert (ev.kind, ev.classification, ev.action) == \
            ("fatal", "fatal", "abort")

    def test_retry_gates(self):
        policy = RecoveryPolicy(max_restarts=5, retry_sdc=False)
        ev = policy.decide(self._sdc(), attempt=0)
        assert ev.action == "abort"

    def test_backoff_schedule_doubles_and_caps(self):
        policy = RecoveryPolicy(backoff_base=0.02, backoff_max=0.05,
                                jitter=False)
        assert [policy.backoff(a) for a in range(4)] == \
            [0.02, 0.04, 0.05, 0.05]

    def test_jittered_backoff_is_decorrelated_and_bounded(self):
        # Decorrelated jitter: each pause is uniform in
        # [base, 3 * previous], clipped at the cap.
        policy = RecoveryPolicy(backoff_base=0.02, backoff_max=0.5,
                                seed=42)
        prev = 0.02
        draws = []
        for attempt in range(50):
            pause = policy.backoff(attempt)
            assert 0.02 <= pause <= 0.5
            assert pause <= max(3.0 * prev, 0.02) + 1e-12
            draws.append(pause)
            prev = pause
        assert len(set(draws)) > 10      # actually jittered, not a ramp
        # Seeded: the same policy replays the same schedule.
        replay = RecoveryPolicy(backoff_base=0.02, backoff_max=0.5,
                                seed=42)
        assert [replay.backoff(a) for a in range(50)] == draws
        # A different seed gives a different schedule.
        other = RecoveryPolicy(backoff_base=0.02, backoff_max=0.5,
                               seed=43)
        assert [other.backoff(a) for a in range(50)] != draws

    def test_jittered_backoff_resets_with_policy(self):
        policy = RecoveryPolicy(backoff_base=0.02, backoff_max=0.5,
                                seed=7)
        first = [policy.backoff(a) for a in range(5)]
        policy.reset()
        assert [policy.backoff(a) for a in range(5)] == first

    def test_zero_base_backoff_stays_zero(self):
        policy = RecoveryPolicy(backoff_base=0.0)
        assert [policy.backoff(a) for a in range(3)] == [0.0, 0.0, 0.0]

    def test_describe_is_diagnostic(self):
        policy = RecoveryPolicy()
        ev = policy.decide(self._sdc(), attempt=0)
        text = ev.describe()
        assert "transient sdc [mass]" in text
        assert "rank 1 at step 3" in text
        assert "rollback" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryPolicy(max_restarts=-1)
        with pytest.raises(ValueError):
            RecoveryPolicy(backoff_base=-0.1)


class TestSupervisor:
    def test_restart_on_crash_resumes_and_finishes(self, tmp_path):
        ck = Checkpointer(tmp_path)
        injector = FaultInjector(FaultPlan(crash_rank=1, crash_step=2))
        job = ParallelJob(2, injector=injector)
        supervised = ResilientJob(job)

        def prog(comm):
            latest = comm.bcast(ck.latest_consistent(comm.size)
                                if comm.rank == 0 else None)
            acc = float(ck.load(latest, comm.rank)["acc"][()]) \
                if latest is not None else 0.0
            start = latest or 0
            for step in range(start, 4):
                injector.tick(comm.rank, step)
                acc += comm.allreduce(comm.rank + 1)
                ck.save(step + 1, comm.rank, acc=np.float64(acc))
            return acc

        out = supervised.run(prog)
        assert out == [12.0, 12.0]      # 4 steps x allreduce(1+2)
        assert supervised.restarts == 1
        assert injector.crash_fired

    def test_restart_budget_exhausted_reraises(self):
        injector = FaultInjector(FaultPlan(crash_rank=0, crash_step=0))
        supervised = ResilientJob(ParallelJob(1, injector=injector),
                                  max_restarts=0)

        def prog(comm):
            injector.tick(comm.rank, 0)

        with pytest.raises(RuntimeError, match="injected crash") as info:
            supervised.run(prog)
        assert isinstance(info.value.__cause__, RankCrashError)

    def test_non_crash_errors_not_retried(self):
        calls = []
        supervised = ResilientJob(ParallelJob(1), max_restarts=5)

        def prog(comm):
            calls.append(1)
            raise ValueError("genuine bug")

        with pytest.raises(RuntimeError, match="genuine bug"):
            supervised.run(prog)
        assert len(calls) == 1          # restarts must not mask bugs
        final = supervised.policy.final_failure
        assert final is not None
        assert (final.kind, final.exception) == ("fatal", "ValueError")

    def test_backoff_slept_and_recorded(self):
        slept = []
        policy = RecoveryPolicy(max_restarts=3, backoff_base=0.01,
                                backoff_max=1.0, jitter=False)
        supervised = ResilientJob(ParallelJob(1), policy=policy,
                                  sleep=slept.append)
        crashes = iter((True, True, False))

        def prog(comm):
            # Two distinct crashes (different steps -> fresh signatures),
            # then success.
            if next(crashes):
                raise RankCrashError(0, len(slept))
            return "done"

        assert supervised.run(prog) == ["done"]
        assert slept == [0.01, 0.02]            # base * 2**attempt
        assert supervised.backoffs == slept
        assert supervised.restarts == 2
        assert [ev.backoff for ev in policy.events] == slept

    def test_final_failure_names_rank_and_step(self):
        injector = FaultInjector(FaultPlan(crash_rank=0, crash_step=1))
        policy = RecoveryPolicy(max_restarts=0, backoff_base=0.0)
        supervised = ResilientJob(ParallelJob(1, injector=injector),
                                  policy=policy)

        def prog(comm):
            injector.tick(comm.rank, 1)

        with pytest.raises(RuntimeError, match="injected crash"):
            supervised.run(prog)
        final = policy.final_failure
        assert final is not None
        assert (final.kind, final.action) == ("crash", "abort")
        assert (final.rank, final.step) == (0, 1)
        assert final.exception == "RankCrashError"
        assert "rank 0 at step 1" in final.describe()

    def test_rerun_resets_history(self):
        policy = RecoveryPolicy(max_restarts=1, backoff_base=0.0)
        supervised = ResilientJob(ParallelJob(1), policy=policy,
                                  sleep=lambda _: None)
        state = {"crashed": False}

        def prog(comm):
            if not state["crashed"]:
                state["crashed"] = True
                raise RankCrashError(0, 0)
            return 1

        assert supervised.run(prog) == [1]
        assert supervised.restarts == 1
        state["crashed"] = False
        assert supervised.run(prog) == [1]
        # Same signature again, but a fresh run() starts a fresh
        # history: still classified transient, not persistent.
        assert supervised.restarts == 1
        assert all(ev.classification == "transient"
                   for ev in policy.events)
