"""Online (in-job) rank-failure recovery: the degrade-and-continue loop.

:class:`OnlineRunner` owns an application driver's step loop and turns
PR 1/3's crash-and-restart into ULFM-style shrink/spare recovery:

1. **detect** — a killed rank surfaces on every survivor as a typed
   :class:`~repro.runtime.transport.RankFailedError` (the transport's
   heartbeat detector supplies the seeded virtual detection latency);
2. **revoke** — the first survivor to observe it revokes the
   communicator so stragglers unwind promptly;
3. **repair** — :meth:`~repro.runtime.comm.Comm.repair` rebuilds the
   communicator: *respawn* refills the dead rank from the job's spare
   pool, *shrink* renumbers the survivors densely;
4. **replay** — a respawned replacement reloads only *its own*
   checkpoint shard and catches up from the transport's sender-side
   message / collective-result logs;
5. **localized rollback** — survivors restore their in-memory
   top-of-step snapshots and re-execute just the interrupted step.
   Nobody but the replacement (plus, on shrink, the redistribution
   hook) touches the checkpoint directory — O(failed ranks) recovery,
   not O(job).

The runner is deliberately small: the driver keeps its state and its
physics and hands the runner four callbacks (``save``/``load`` for
checkpoint shards, ``snapshot``/``restore`` for in-memory step
snapshots) plus the loop body.  Failure classes the runner does not
handle — :class:`~repro.runtime.faults.RankCrashError`, SDC detections,
genuine bugs — propagate unchanged to the restart supervisor, so the
two recovery layers stack.
"""

from __future__ import annotations

from typing import Any, Callable, Collection

from ..runtime.comm import Comm, OnlineRecoveryError
from ..runtime.transport import CommRevokedError, RankFailedError, \
    RepairRecord
from .supervisor import KIND_KILL, RecoveryEvent, RecoveryPolicy


class OnlineRunner:
    """Drive one rank's step loop with online rank-failure recovery.

    Parameters
    ----------
    comm:
        This rank's communicator (repaired in place on failure).
    nsteps:
        Application steps to run (step indices ``0 .. nsteps - 1``).
    checkpoint, checkpoint_every, save, load:
        Shard persistence: ``save(label)`` writes this rank's state as
        checkpoint ``label`` (= steps completed), ``load(label)``
        restores it.  The runner calls ``save`` every
        ``checkpoint_every`` steps, resumes a restarted job from
        ``checkpoint.latest_verified`` and a *replacement* rank from
        its :class:`~repro.runtime.comm.ReplayInfo` rollback point.
    snapshot, restore:
        In-memory state copy taken at the top of every live step;
        survivors restore it to re-execute an interrupted step without
        touching the checkpoint directory.
    policy:
        Optional :class:`RecoveryPolicy`; the repair leader appends one
        ``online-respawn`` / ``online-shrink``
        :class:`RecoveryEvent` per repair.
    on_shrink:
        ``on_shrink(comm, record)`` redistribution hook run after a
        shrink repair (domain remap + state reload).  Without it the
        runner never chooses shrink.
    neighbors:
        Global ranks whose halo state this rank shares; marks the
        survivor as part of the localized-rollback set in the
        :class:`RepairRecord`.
    mode:
        Force ``"respawn"`` or ``"shrink"``; default picks respawn
        while spares last, then shrink.
    start_step:
        First step when no checkpoint resume applies.
    """

    def __init__(self, comm: Comm, *, nsteps: int, checkpoint=None,
                 checkpoint_every: int = 0,
                 save: Callable[[int], None] | None = None,
                 load: Callable[[int], None] | None = None,
                 snapshot: Callable[[], Any] | None = None,
                 restore: Callable[[Any], None] | None = None,
                 policy: RecoveryPolicy | None = None,
                 on_shrink: Callable[[Comm, RepairRecord], None]
                 | None = None,
                 neighbors: Collection[int] = (),
                 mode: str | None = None, start_step: int = 0):
        if mode not in (None, "respawn", "shrink"):
            raise ValueError(f"unknown recovery mode {mode!r}")
        self.comm = comm
        self.nsteps = int(nsteps)
        self.checkpoint = checkpoint
        self.checkpoint_every = int(checkpoint_every)
        self.save = save
        self.load = load
        self.snapshot = snapshot
        self.restore = restore
        self.policy = policy
        self.on_shrink = on_shrink
        self.neighbors = set(neighbors)
        self.mode = mode
        self.start_step = int(start_step)
        #: newest checkpoint label this run wrote or resumed from
        self._last_ckpt: int | None = None
        self._snap: Any = None
        #: repairs this rank participated in (survivor side)
        self.records: list[RepairRecord] = []

    # -- startup -------------------------------------------------------------
    def _resume_point(self) -> tuple[int, int | None]:
        """(first step to execute, replay catch-up boundary or None)."""
        comm = self.comm
        info = comm.replay_info
        if info is not None:
            # Replacement rank: reload only *this* shard, then replay.
            start = info.rollback_step
            if start > 0 and self.load is not None:
                self.load(start)
            self._last_ckpt = start if start > 0 else None
            if info.resume_step > start:
                comm.begin_replay()
                return start, info.resume_step
            return start, None
        start = self.start_step
        if self.checkpoint is not None and self.load is not None:
            latest = comm.bcast(
                self.checkpoint.latest_verified(comm.size)
                if comm.rank == 0 else None)
            if latest is not None:
                self.load(latest)
                self._last_ckpt = latest
                start = latest
        return start, None

    # -- checkpoint cadence ---------------------------------------------------
    def _maybe_save(self, step: int) -> None:
        if (self.save is None or self.checkpoint_every <= 0
                or self.comm.in_replay):
            return
        label = step + 1
        if label % self.checkpoint_every:
            return
        self.save(label)
        tp = self.comm.transport
        if tp.online and self.comm.rank == 0 \
                and self._last_ckpt is not None:
            # Replay never targets anything older than the previous
            # checkpoint; keep the logs bounded to two labels.
            tp.prune_logs(self._last_ckpt)
        self._last_ckpt = label

    # -- failure handling ----------------------------------------------------
    def _recover(self, exc: Exception, step: int) -> int:
        """Repair the communicator; return the step to resume from."""
        comm = self.comm
        tp = comm.transport
        comm.revoke()
        dead = tp.dead_ranks()
        rollback = self._last_ckpt if self._last_ckpt is not None else 0
        mode = self.mode
        if mode is None:
            if comm.spares_left() >= len(dead):
                mode = "respawn"
            elif self.on_shrink is not None:
                mode = "shrink"
            else:
                raise OnlineRecoveryError(
                    f"rank(s) {dead} failed at step {step} with no "
                    f"spares left and no shrink hook") from exc
        is_neighbor = bool(self.neighbors.intersection(dead))
        if mode == "respawn":
            # Survivors re-execute only the interrupted step from their
            # in-memory snapshots; the replacement replays the gap.
            record = comm.repair(mode="respawn", resume_step=step,
                                 rollback_step=rollback,
                                 is_neighbor=is_neighbor)
            if self.restore is not None and self._snap is not None:
                self.restore(self._snap)
            resume = step
        else:
            # Everyone rolls back to the last checkpoint; the hook
            # remaps the decomposition over the shrunken communicator.
            record = comm.repair(mode="shrink", resume_step=rollback,
                                 rollback_step=rollback,
                                 is_neighbor=is_neighbor)
            if self.on_shrink is None:
                raise OnlineRecoveryError(
                    "shrink repair without a redistribution hook")
            self.on_shrink(comm, record)
            resume = rollback
        self.records.append(record)
        self._note(record, exc, step, mode)
        return resume

    def _note(self, record: RepairRecord, exc: Exception, step: int,
              mode: str) -> None:
        """Record the repair as a recovery event (repair leader only)."""
        comm = self.comm
        if self.policy is None \
                or comm._global(comm.rank) != record.survivors[0]:
            return
        self.policy.events.append(RecoveryEvent(
            kind=KIND_KILL, classification="transient",
            action=f"online-{mode}", exception=type(exc).__name__,
            message=str(exc), rank=record.dead[0], step=step,
            monitor=None, attempt=record.epoch - 1,
            latency_steps=0))

    # -- the loop -------------------------------------------------------------
    def run(self, body: Callable[[int], None]) -> None:
        """Execute ``body(step)`` for every step, surviving rank loss.

        ``body`` is the driver's original loop body (fault tick,
        physics phases, halo exchange, health checks) — unchanged from
        the restart-supervised form, so crash/SDC faults keep their
        PR 1/3 semantics and propagate to :class:`ResilientJob`.
        """
        comm = self.comm
        # Repair needs all survivors in the step a peer died in: one that
        # dies in step k passed step k-1's barrier, none pass step k's.
        closes_steps = comm.transport.online or self.on_shrink is not None
        step, catchup = self._resume_point()
        while step < self.nsteps:
            if catchup is not None and step >= catchup:
                comm.end_replay()
                catchup = None
            if not comm.in_replay and self.snapshot is not None:
                self._snap = self.snapshot()
            comm.begin_step(step)
            try:
                body(step)
                if closes_steps:
                    comm.barrier()
                self._maybe_save(step)
            except (RankFailedError, CommRevokedError) as exc:
                step = self._recover(exc, step)
                continue
            step += 1
