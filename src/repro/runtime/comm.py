"""SPMD communicator and parallel job driver.

:class:`ParallelJob` runs one Python function per rank on threads; the
per-rank :class:`Comm` handle provides the MPI-flavoured operations the
four applications need (send/recv, sendrecv, halo ``exchange``, allreduce,
alltoall, bcast, gather).  Payloads travel under the buffer-ownership
protocol of :mod:`repro.runtime.buffers`: owning arrays are *borrowed*
(flagged non-writeable in transit and shared zero-copy), writable views
are packed once, and mutation of a borrowed buffer goes through
:func:`~repro.runtime.buffers.writable` (copy-on-write).  Every transfer
is recorded by the :class:`~repro.runtime.transport.Transport` for
communication-profile accounting — the *logical* bytes moved, regardless
of how few physical copies the fast path performs.

The GIL makes this a *simulation* of parallelism, not a speedup mechanism —
which is exactly what is needed: the runtime exists to execute the same
distributed algorithms the paper's codes use and to measure their traffic.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from ..obs.events import CAT_COMM, CAT_HEALTH, CAT_PHASE, CAT_SYNC
from ..obs.tracer import NULL_SPAN
from .buffers import borrow, writable
from .buffers import reclaim as _thaw
from .faults import RankKilledError
from .sanitize import caller_site, enrich_readonly_error, \
    record_borrow_sites
from .transport import DEFAULT_TIMEOUT as _DEFAULT_TIMEOUT
from .transport import BackendError, CommRevokedError, RankFailedError, \
    RepairRecord, Transport, TransportPoisonedError

__all__ = ["Comm", "OnlineRecoveryError", "ParallelJob", "ReplayInfo",
           "writable"]

#: control-plane tag space for communicator repair (per repair epoch)
_REPAIR_TAG_BASE = -100


class OnlineRecoveryError(RuntimeError):
    """Communicator repair itself failed; fall back to a full restart."""


@dataclass(frozen=True)
class ReplayInfo:
    """Catch-up instructions handed to a replacement rank.

    The replacement reloads the checkpoint of ``rollback_step``, then
    re-executes steps ``rollback_step .. resume_step - 1`` in *replay
    mode*: receives are served from the transport's sender-side message
    log starting at ``cursors`` (the dead rank's consumed-count marks at
    the rollback checkpoint), collectives from the logged results, and
    sends/barriers are suppressed.  At ``resume_step`` it rejoins the
    survivors live.
    """

    rank: int
    rollback_step: int
    resume_step: int
    cursors: dict = field(default_factory=dict)


def _payload_bytes(obj: Any) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, np.generic):
        return obj.nbytes          # exact: np.complex128 is 16, float32 is 4
    if isinstance(obj, complex):
        return 16                  # two float64 components
    if isinstance(obj, (bool, int, float)):
        return 8
    if isinstance(obj, (list, tuple)):
        return sum(_payload_bytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(_payload_bytes(v) for v in obj.values())
    return 64  # opaque object: nominal envelope


def _copy(obj: Any) -> Any:
    """Value-semantics copy, standing in for MPI's buffer copy."""
    if isinstance(obj, np.ndarray):
        owned = np.empty_like(obj)
        np.copyto(owned, obj)
        return owned
    if isinstance(obj, list):
        return [_copy(x) for x in obj]
    if isinstance(obj, tuple):
        return tuple(_copy(x) for x in obj)
    if isinstance(obj, dict):
        return {k: _copy(v) for k, v in obj.items()}
    return obj


class _Barrier:
    """Reusable barrier whose ``abort`` breaks only unfilled generations.

    ``threading.Barrier.abort`` can break threads draining out of an
    already-completed generation (state goes broken before they re-check
    it), which would let two survivors of a rank failure observe the
    break one step apart.  Online recovery needs the guarantee that a
    generation the dead rank helped fill *completes normally* on every
    rank — then all survivors provably stop at the same step boundary.
    API-compatible with ``threading.Barrier`` for ``wait``/``abort``.
    """

    def __init__(self, parties: int, timeout: float | None = None):
        self.parties = parties
        self.timeout = timeout
        self._cond = threading.Condition()
        self._count = 0
        self._gen = 0
        self._broken_from: int | None = None

    def wait(self, timeout: float | None = None) -> int:
        if timeout is None:
            timeout = self.timeout
        with self._cond:
            gen = self._gen
            if self._broken_from is not None \
                    and self._broken_from <= gen:
                raise threading.BrokenBarrierError
            self._count += 1
            if self._count == self.parties:
                self._count = 0
                self._gen = gen + 1
                self._cond.notify_all()
                return 0
            ok = self._cond.wait_for(
                lambda: self._gen > gen
                or (self._broken_from is not None
                    and self._broken_from <= gen),
                timeout)
            if self._gen > gen:
                # Generation filled: released normally, even if the
                # barrier broke immediately afterwards.
                return 1
            if not ok:
                self._broken_from = gen
                self._cond.notify_all()
            raise threading.BrokenBarrierError

    def abort(self) -> None:
        with self._cond:
            if self._broken_from is None or self._broken_from > self._gen:
                self._broken_from = self._gen
            self._cond.notify_all()

    @property
    def broken(self) -> bool:
        with self._cond:
            return (self._broken_from is not None
                    and self._broken_from <= self._gen)


@dataclass
class _Shared:
    """State shared by all ranks of one job (or one repair epoch)."""

    nprocs: int
    transport: Transport
    barrier: "_Barrier"
    coll_lock: threading.Lock
    coll_buf: list
    timeout: float = _DEFAULT_TIMEOUT
    #: global (transport) rank of each member; identity until a shrink
    members: list = field(default_factory=list)
    #: repair generation: 0 for the original communicator
    epoch: int = 0
    #: spare-rank tokens held in reserve (popped per respawn)
    spares: list = field(default_factory=list)
    #: job callback spawning a replacement worker thread
    spawn_replacement: Callable | None = None

    @classmethod
    def create(cls, nprocs: int, transport: Transport,
               timeout: float = _DEFAULT_TIMEOUT) -> "_Shared":
        return cls(nprocs, transport,
                   _Barrier(nprocs, timeout=timeout),
                   threading.Lock(), [None] * nprocs, timeout,
                   list(range(nprocs)))


class Comm:
    """Per-rank communicator handle."""

    def __init__(self, rank: int, shared: _Shared,
                 replay_info: ReplayInfo | None = None):
        self.rank = rank
        self._shared = shared
        self.transport = shared.transport
        #: set on a replacement rank spawned by :meth:`repair`
        self.replay_info = replay_info
        self._replay_active = False
        self._replay_cursors: dict = {}
        self._step: int | None = None
        self._coll_index = 0

    @property
    def size(self) -> int:
        return self._shared.nprocs

    def _global(self, r: int) -> int:
        """Transport (global) rank of local rank ``r``.

        Identity until a shrink renumbers the survivors; the transport,
        its traffic records and the failure detector always speak
        global ranks.
        """
        members = self._shared.members
        return members[r] if members else r

    @property
    def _track(self) -> int:
        """Trace track (tid) for this rank: the job-global rank."""
        return self._global(self.rank)

    # -- step bookkeeping (heartbeats + collective call indexing) -----------
    def begin_step(self, step: int) -> None:
        """Mark the top of application step ``step`` on this rank.

        Beats the transport's heartbeat detector (virtual time = step
        index) and resets the per-step collective call counter that
        keys the collective-result replay log.  With the replay logs
        armed it also snapshots this rank's per-channel consumption —
        the mark communicator repair rolls the logs back to when this
        very step is interrupted (replacement catch-up skips the mark:
        its live counters resume at the original rank's values).
        """
        self._step = step
        self._coll_index = 0
        tp = self.transport
        gid = self._global(self.rank)
        tp.detector.beat(gid, float(step))
        if tp.online and not self._replay_active:
            tp.mark_consumed(step, gid)

    # -- replay mode (replacement-rank catch-up) ----------------------------
    @property
    def in_replay(self) -> bool:
        return self._replay_active

    def begin_replay(self) -> None:
        """Enter catch-up replay (replacement ranks only)."""
        if self.replay_info is None:
            raise OnlineRecoveryError("begin_replay on a non-replacement "
                                      "rank")
        self._replay_cursors = dict(self.replay_info.cursors)
        self._replay_active = True

    def end_replay(self) -> None:
        """Leave replay mode; subsequent operations run live."""
        self._replay_active = False

    def _barrier_wait(self) -> None:
        """Barrier wait that surfaces rank failure as the typed error."""
        try:
            self._shared.barrier.wait()
        except threading.BrokenBarrierError:
            if self.transport._failure_pending():
                self.transport.raise_rank_failed()
            raise

    def _span(self, name: str, cat: str = CAT_COMM, **args):
        """Tracer span on this rank's track; free when tracing is off.

        The argument dict is only built when a real tracer is attached,
        so the disabled path is one attribute load and a branch.
        """
        tr = self.transport.tracer
        if not tr.enabled:
            return NULL_SPAN
        return tr.span(self._track, name, cat, args if args else None)

    # -- phases --------------------------------------------------------------
    @contextlib.contextmanager
    def phase(self, label: str):
        """Label this rank's subsequent traffic for per-phase accounting.

        The label is this rank's alone (:attr:`Transport.phase_label`),
        so a phase synchronizes nothing: ranks order themselves only
        through their own messages and collectives.  Each rank's stay in
        the phase is emitted as one tracer span.
        """
        if self._replay_active:
            # Catch-up replay is single-rank: no barriers, no label
            # changes — the traffic was already accounted live.
            yield
            return
        prev = self.transport.phase_label
        self.transport.phase_label = label
        try:
            with self._span(label, CAT_PHASE):
                yield
        finally:
            self.transport.phase_label = prev

    @contextlib.contextmanager
    def region(self, label: str):
        """Sub-phase span on this rank only; traffic keeps its phase label.

        For fine-grained tagging inside a :meth:`phase` — e.g. the
        transpose stages of a parallel FFT — whose traffic should still
        count toward the enclosing phase.
        """
        with self._span(label, "region"):
            yield

    def _outgoing(self, obj: Any, site: str | None = None) -> Any:
        """Wire payload for ``obj``: borrowed (zero-copy) or deep-copied.

        ``site`` is the caller's stamp when it already holds one.
        """
        tp = self.transport
        if not tp.zero_copy:
            return _copy(obj)
        if not tp.sanitize:
            return borrow(obj, tp.buffers)
        # Sanitize mode: stamp the borrow with the app-level call site so
        # a later violation (any rank, any phase) names this send.
        if site is None:
            site = caller_site()
        payload = borrow(obj, tp.buffers, sanitize=True, site=site)
        record_borrow_sites(payload, site, tp.borrow_log)
        return payload

    # -- point-to-point --------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if self._replay_active:
            return            # already on the wire in the original run
        nbytes = _payload_bytes(obj)
        tr = self.transport.tracer
        site = caller_site() if tr.enabled else None
        payload = self._outgoing(obj, site)
        src, dst = self._global(self.rank), self._global(dest)
        if not tr.enabled:          # hot path: no span, no args dict
            self.transport.post(src, dst, tag, payload, nbytes)
            return
        self.transport.note_buffers(payload, self._track, "publish", site)
        with tr.span(self._track, "send", CAT_COMM,
                     {"dst": dst, "tag": tag, "nbytes": nbytes,
                      "site": site}):
            self.transport.post(src, dst, tag, payload, nbytes)

    def _replay_recv(self, src: int, dst: int, tag: int) -> Any:
        key = (src, dst, tag)
        index = self._replay_cursors.get(key, 0)
        self._replay_cursors[key] = index + 1
        return self.transport.replay_fetch(src, dst, tag, index)

    def recv(self, source: int, tag: int = 0) -> Any:
        src, dst = self._global(source), self._global(self.rank)
        if self._replay_active:
            return self._replay_recv(src, dst, tag)
        tr = self.transport.tracer
        if not tr.enabled:
            return self.transport.fetch(src, dst, tag)
        site = caller_site()
        with tr.span(self._track, "recv", CAT_COMM,
                     {"src": src, "tag": tag, "site": site}):
            result = self.transport.fetch(src, dst, tag)
        self.transport.note_buffers(result, self._track, "read", site)
        return result

    def reclaim(self, obj: Any) -> Any:
        """Take back a buffer previously lent to :meth:`send`.

        Thaws owning arrays frozen by the zero-copy borrow protocol so
        the caller may overwrite them again.  The caller owns the
        ordering obligation: reclaim only after every receiver is
        provably done with the buffer (acknowledged by a return message
        or a collective) — receivers of a zero-copy borrow observe the
        same storage, so an unordered reclaim-then-write races with
        their reads.  Under tracing each thawed buffer emits a
        ``reclaim`` buffer-epoch event, which is exactly what
        ``repro analyze --races`` checks against the reads.
        """
        tr = self.transport.tracer
        if tr.enabled:
            self.transport.note_buffers(obj, self._track, "reclaim",
                                        caller_site())
        return _thaw(obj)

    def sendrecv(self, obj: Any, dest: int, source: int,
                 tag: int = 0) -> Any:
        """Simultaneous send+recv, deadlock-free (buffered sends)."""
        self.send(obj, dest, tag)
        return self.recv(source, tag)

    def exchange(self, outgoing: dict[int, Any], tag: int = 0
                 ) -> dict[int, Any]:
        """General neighbourhood exchange.

        Sends ``outgoing[dest]`` to each destination and receives one
        payload from every rank that targeted this rank.  The communication
        graph must be symmetric-by-agreement: each rank receives exactly
        from the ranks it sends to (true for halo swaps on symmetric
        decompositions).
        """
        for dest, obj in outgoing.items():
            if dest == self.rank:
                raise ValueError("exchange with self; handle locally")
            self.send(obj, dest, tag)
        return {src: self.recv(src, tag) for src in outgoing}

    # -- collectives ------------------------------------------------------------
    def barrier(self) -> None:
        if self._replay_active:
            return
        tr = self.transport.tracer
        if not tr.enabled:          # hot path: no span object, no kwargs
            self._barrier_wait()
            return
        with tr.span(self._track, "barrier", CAT_SYNC):
            self._barrier_wait()

    def _allgather_raw(self, value: Any) -> list:
        """Barrier-protected gather of one value from each rank.

        With the online replay logs armed, rank 0 logs the gathered
        list per ``(step, call index)`` — the sequence is identical on
        every rank of a bulk-synchronous program, so one log entry
        reproduces the collective for any replacement.  In replay mode
        the list is served straight from that log.
        """
        tp = self.transport
        if self._replay_active:
            index = self._coll_index
            self._coll_index += 1
            return tp.coll_get(0, self._step, index)
        index = None
        if tp.online and self._step is not None:
            index = self._coll_index
            self._coll_index += 1
        sh = self._shared
        sh.coll_buf[self.rank] = value
        self._barrier_wait()
        result = list(sh.coll_buf)
        if index is not None and self.rank == 0:
            tp.coll_put(0, self._step, index, result)
        self._barrier_wait()       # everyone has read; buffer reusable
        return result

    def _record_collective(self, kind: str, nbytes: int) -> None:
        """Account one collective call — except in catch-up replay,
        where the traffic was already recorded by the original run."""
        if not self._replay_active:
            self.transport.record_collective(kind, nbytes)

    def allgather(self, value: Any) -> list:
        nbytes = _payload_bytes(value)
        tp = self.transport
        self._record_collective("allgather", nbytes)
        if tp.zero_copy:
            with self._span("allgather", nbytes=nbytes):
                return list(self._allgather_raw(self._outgoing(value)))
        with self._span("allgather", nbytes=nbytes):
            return [_copy(v) if isinstance(v, np.ndarray) else v
                    for v in self._allgather_raw(value)]

    def allreduce(self, value: Any, op: str = "sum") -> Any:
        """Reduction over ranks; deterministic rank-order combination."""
        nbytes = _payload_bytes(value)
        self._record_collective("allreduce", nbytes)
        with self._span("allreduce", op=op, nbytes=nbytes):
            vals = self._allgather_raw(value)
            return _reduce(vals, op)

    def bcast(self, value: Any, root: int = 0) -> Any:
        nbytes = _payload_bytes(value)
        tp = self.transport
        self._record_collective("bcast", nbytes)
        with self._span("bcast", root=root, nbytes=nbytes):
            if tp.zero_copy:
                contrib = (self._outgoing(value) if self.rank == root
                           else None)
                return self._allgather_raw(contrib)[root]
            vals = self._allgather_raw(value if self.rank == root else None)
            return _copy(vals[root])

    def gather(self, value: Any, root: int = 0) -> list | None:
        nbytes = _payload_bytes(value)
        tp = self.transport
        self._record_collective("gather", nbytes)
        with self._span("gather", root=root, nbytes=nbytes):
            out = self._outgoing(value) if tp.zero_copy else value
            vals = self._allgather_raw(out)
        if self.rank == root:
            if tp.zero_copy:
                return list(vals)
            return [_copy(v) if isinstance(v, np.ndarray) else v
                    for v in vals]
        return None

    def split(self, color: int, key: int | None = None) -> "Comm":
        """MPI_Comm_split: sub-communicators by ``color``.

        Collective over the parent communicator.  Ranks sharing a color
        form a new communicator, ordered by ``key`` (default: parent
        rank).  The GTC 2D decomposition's radial charge reduction is
        the canonical use: one sub-communicator per toroidal domain.
        """
        key = self.rank if key is None else key
        triples = self._allgather_raw((color, key, self.rank))
        group = sorted((k, r) for c, k, r in triples if c == color)
        members = [r for _, r in group]
        # The lowest parent rank of each color creates the shared state;
        # everyone picks theirs out of a gathered registry.
        registry = {}
        if self.rank == min(members):
            registry[color] = _SubShared(members, self._shared)
        registries = self._allgather_raw(registry)
        shared = None
        for reg in registries:
            if color in reg:
                shared = reg[color]
        if shared is None:  # not an assert: must survive ``python -O``
            raise RuntimeError(
                f"comm split failed: no shared state published for "
                f"color {color} (rank {self.rank})")
        return _SubComm(members.index(self.rank), shared)

    def alltoall(self, chunks: Sequence[Any]) -> list:
        """Personalized all-to-all: ``chunks[d]`` goes to rank ``d``.

        This is the primitive under PARATEC's parallel-FFT transposes.
        """
        if len(chunks) != self.size:
            raise ValueError(
                f"alltoall needs {self.size} chunks, got {len(chunks)}")
        nbytes = sum(_payload_bytes(c) for c in chunks)
        tp = self.transport
        self._record_collective("alltoall", nbytes)
        with self._span("alltoall", nbytes=nbytes):
            if tp.zero_copy:
                matrix = self._allgather_raw(
                    [self._outgoing(c) for c in chunks])
                return [matrix[src][self.rank]
                        for src in range(self.size)]
            matrix = self._allgather_raw(list(chunks))
            return [_copy(matrix[src][self.rank])
                    for src in range(self.size)]

    # -- communicator repair (ULFM-style) ------------------------------------
    def revoke(self) -> None:
        """Revoke the communicator: every rank's pending op unwinds.

        Idempotent; the first survivor to observe a failure calls this
        so stragglers not blocked on the dead rank also enter repair
        promptly (``MPI_Comm_revoke`` semantics).
        """
        self.transport.revoke()

    def spares_left(self) -> int:
        return len(self._shared.spares)

    def shrink(self, *, resume_step: int = 0, rollback_step: int = 0,
               is_neighbor: bool = False) -> RepairRecord:
        """Repair by renumbering the survivors densely (no replacement)."""
        return self.repair(mode="shrink", resume_step=resume_step,
                           rollback_step=rollback_step,
                           is_neighbor=is_neighbor)

    def respawn(self, *, resume_step: int = 0, rollback_step: int = 0,
                is_neighbor: bool = False) -> RepairRecord:
        """Repair by refilling dead ranks from the job's spare pool."""
        return self.repair(mode="respawn", resume_step=resume_step,
                           rollback_step=rollback_step,
                           is_neighbor=is_neighbor)

    def repair(self, *, resume_step: int, rollback_step: int,
               mode: str | None = None,
               is_neighbor: bool = False) -> RepairRecord:
        """Rebuild the communicator around the current dead set.

        Collective over the survivors (every survivor must call it with
        the same ``resume_step``/``rollback_step``; the leader — lowest
        surviving global rank — verifies agreement).  The broken barrier
        cannot carry the handshake, so it runs over reserved control
        tags on the transport mailboxes:

        1. survivors post ``join`` to the leader;
        2. the leader drains stale in-flight traffic, builds a fresh
           shared state (respawn: same size, spare threads refill the
           dead ranks and catch up via log replay; shrink: survivors
           renumber densely and the caller remaps the decomposition),
           revives the transport and answers every survivor;
        3. everyone swaps the new shared state into their ``Comm`` in
           place, so application handles stay valid.

        Returns the :class:`~repro.runtime.transport.RepairRecord`
        appended to ``transport.repairs``.
        """
        tp = self.transport
        sh = self._shared
        t0 = time.perf_counter()
        dead = tp.dead_ranks()
        if not dead:
            raise OnlineRecoveryError("repair called with no dead rank")
        gid = self._global(self.rank)
        members = list(sh.members) if sh.members \
            else list(range(sh.nprocs))
        survivors = [m for m in members if m not in dead]
        if not survivors:
            raise OnlineRecoveryError("no survivors to repair around")
        lost = tuple(m for m in members if m in dead)
        leader = survivors[0]
        epoch = sh.epoch + 1
        tag = _REPAIR_TAG_BASE - epoch
        if mode is None:
            mode = "respawn" if len(sh.spares) >= len(lost) else "shrink"
        if mode not in ("respawn", "shrink"):
            raise ValueError(f"unknown repair mode {mode!r}")
        if gid != leader:
            tp.post(gid, leader, tag,
                    ("join", gid, resume_step, rollback_step,
                     is_neighbor), 0, control=True)
            reply = tp.fetch(leader, gid, tag, control=True)
            if reply[0] != "repaired":
                raise OnlineRecoveryError(
                    f"unexpected repair reply {reply[0]!r}")
            _, new_shared, record = reply
        else:
            new_shared, record = self._lead_repair(
                mode, epoch, tag, members, survivors, lost,
                resume_step, rollback_step, is_neighbor, t0)
        self._shared = new_shared
        if mode == "shrink":
            self.rank = new_shared.members.index(gid)
        self._coll_index = 0
        if tp.tracer.enabled:
            tp.tracer.instant(gid, "comm-repair", CAT_HEALTH,
                              {"epoch": epoch, "mode": mode,
                               "dead": list(lost),
                               "resume_step": resume_step,
                               "rollback_step": rollback_step})
        return record

    def _lead_repair(self, mode: str, epoch: int, tag: int,
                     members: list, survivors: list, lost: tuple,
                     resume_step: int, rollback_step: int,
                     is_neighbor: bool, t0: float):
        tp = self.transport
        sh = self._shared
        leader = survivors[0]
        joins = {leader: (resume_step, rollback_step, is_neighbor)}
        for r in survivors[1:]:
            msg = tp.fetch(r, leader, tag, control=True)
            if msg[0] != "join":
                raise OnlineRecoveryError(
                    f"unexpected repair message {msg[0]!r} from rank {r}")
            joins[msg[1]] = msg[2:]
        agreed = {(s, c) for s, c, _ in joins.values()}
        if len(agreed) != 1:
            raise OnlineRecoveryError(
                f"survivors disagree on rollback point: {sorted(agreed)} "
                f"(online repair needs a step-aligned failure)")
        detect = max((tp.dead_record(d).latency if tp.dead_record(d)
                      else 0.0) for d in lost)
        tp.drain_boxes()
        # Survivors re-execute the interrupted step; drop its partial
        # log entries and roll the consumption counters back with them.
        tp.truncate_logs(resume_step)
        if mode == "respawn":
            if len(sh.spares) < len(lost):
                raise OnlineRecoveryError(
                    f"{len(lost)} dead ranks but only {len(sh.spares)} "
                    f"spares; use shrink")
            if sh.spawn_replacement is None:
                raise OnlineRecoveryError(
                    "no spawn hook: job was not started with spares")
            new_shared = _Shared(
                sh.nprocs, tp,
                _Barrier(sh.nprocs, timeout=sh.timeout),
                threading.Lock(), [None] * sh.nprocs, sh.timeout,
                members, epoch, sh.spares, sh.spawn_replacement)
            replacements = lost
        else:
            n = len(survivors)
            new_shared = _Shared(
                n, tp, _Barrier(n, timeout=sh.timeout),
                threading.Lock(), [None] * n, sh.timeout,
                list(survivors), epoch, sh.spares,
                sh.spawn_replacement)
            replacements = ()
        neighbors = tuple(r for r, (_, _, nb) in sorted(joins.items())
                          if nb)
        record = RepairRecord(
            epoch, mode, lost, tuple(survivors), replacements,
            tuple(sorted(set(replacements) | set(neighbors))),
            resume_step, rollback_step, detect,
            time.perf_counter() - t0)
        # Arm the new barrier for a possible second failure, then lift
        # the failure state *before* anyone resumes normal traffic.
        tp.dead_callbacks[:] = [new_shared.barrier.abort]
        tp.revive_all()
        if mode == "respawn":
            for d in lost:
                sh.spares.pop(0)
                info = ReplayInfo(d, rollback_step, resume_step,
                                  tp.consumed_mark(rollback_step, d))
                sh.spawn_replacement(d, new_shared, info)
        tp.repairs.append(record)
        for r in survivors[1:]:
            tp.post(leader, r, tag, ("repaired", new_shared, record),
                    0, control=True)
        return new_shared, record


class _SubShared:
    """Shared state of a split sub-communicator."""

    def __init__(self, members: list[int], parent: _Shared):
        self.members = members
        self.transport = parent.transport
        self.timeout = parent.timeout
        self.barrier = threading.Barrier(len(members),
                                         timeout=parent.timeout)
        self.coll_lock = threading.Lock()
        self.coll_buf = [None] * len(members)

    @property
    def nprocs(self) -> int:
        return len(self.members)


class _SubComm(Comm):
    """A communicator over a subset of the job's ranks.

    Local ranks are dense 0..n-1; point-to-point calls translate to the
    parent's global ranks on the shared transport (so traffic accounting
    stays global, as with real MPI communicators).
    """

    def __init__(self, local_rank: int, shared: _SubShared):
        self._shared = shared      # duck-typed: barrier/coll_buf/nprocs
        self.transport = shared.transport
        self.rank = local_rank
        self.replay_info = None
        self._replay_active = False
        self._replay_cursors: dict = {}
        self._step: int | None = None
        self._coll_index = 0

    @property
    def size(self) -> int:
        return self._shared.nprocs

    def _global(self, local: int) -> int:
        return self._shared.members[local]

    @property
    def _track(self) -> int:
        return self._global(self.rank)

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        nbytes = _payload_bytes(obj)
        tr = self.transport.tracer
        site = caller_site() if tr.enabled else None
        payload = self._outgoing(obj, site)
        if not tr.enabled:
            self.transport.post(self._global(self.rank),
                                self._global(dest), tag, payload, nbytes)
            return
        self.transport.note_buffers(payload, self._track, "publish", site)
        with tr.span(self._track, "send", CAT_COMM,
                     {"dst": self._global(dest), "tag": tag,
                      "nbytes": nbytes, "site": site}):
            self.transport.post(self._global(self.rank),
                                self._global(dest), tag, payload, nbytes)

    def recv(self, source: int, tag: int = 0) -> Any:
        tr = self.transport.tracer
        if not tr.enabled:
            return self.transport.fetch(self._global(source),
                                        self._global(self.rank), tag)
        site = caller_site()
        with tr.span(self._track, "recv", CAT_COMM,
                     {"src": self._global(source), "tag": tag,
                      "site": site}):
            result = self.transport.fetch(self._global(source),
                                          self._global(self.rank), tag)
        self.transport.note_buffers(result, self._track, "read", site)
        return result

    def split(self, color: int, key: int | None = None) -> "Comm":
        """Unsupported: a sub-communicator cannot be split again.

        Split from the parent :class:`Comm` instead — none of the four
        applications needs nested sub-communicators (GTC's 2D
        decomposition splits the world communicator exactly once).
        """
        raise NotImplementedError(
            "splitting a sub-communicator is not supported")


def _reduce(vals: list, op: str) -> Any:
    if not vals:
        raise ValueError("empty reduction")
    if op == "sum":
        acc = _copy(vals[0])
        for v in vals[1:]:
            acc = acc + v
        return acc
    if op == "max":
        acc = vals[0]
        for v in vals[1:]:
            acc = np.maximum(acc, v) if isinstance(acc, np.ndarray) \
                else max(acc, v)
        return _copy(acc)
    if op == "min":
        acc = vals[0]
        for v in vals[1:]:
            acc = np.minimum(acc, v) if isinstance(acc, np.ndarray) \
                else min(acc, v)
        return _copy(acc)
    raise ValueError(f"unknown reduction op {op!r}")


class ParallelJob:
    """Runs ``fn(comm, *args)`` on ``nprocs`` ranks and collects results.

    >>> job = ParallelJob(4)
    >>> job.run(lambda comm: comm.allreduce(comm.rank))
    [6, 6, 6, 6]

    ``timeout`` is the one recv/barrier timeout for the whole job (it
    also bounds the reliability layer's retry window); ``injector``
    attaches a :class:`~repro.runtime.faults.FaultInjector` to the
    transport, enabling fault injection and the retry/ack recovery path;
    ``tracer`` attaches a :class:`~repro.obs.tracer.Tracer`, turning on
    span/instant emission for every comm op, phase, barrier and fault
    (the default is the zero-cost null tracer).
    """

    def __init__(self, nprocs: int, transport: Transport | None = None,
                 *, timeout: float | None = None, injector=None,
                 tracer=None, join_timeout: float = 600.0,
                 zero_copy: bool | None = None,
                 sanitize: bool | None = None,
                 spares: int = 0, online: bool | None = None,
                 backend: str = "thread"):
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if spares < 0:
            raise ValueError("spares must be >= 0")
        if backend not in ("thread", "process"):
            raise BackendError(
                f"unknown execution backend {backend!r}; expected "
                f"'thread' or 'process'")
        #: execution backend: 'thread' (deterministic in-process
        #: reference) or 'process' (OS-process ranks, true parallelism;
        #: :mod:`repro.runtime.process_backend`)
        self.backend = backend
        self.nprocs = nprocs
        #: spare-rank pool held in reserve for online respawn
        self.spares = int(spares)
        #: arm the replay logs (implied by a non-empty spare pool)
        self.online = bool(online) if online is not None else spares > 0
        if transport is None:
            transport = Transport(
                nprocs,
                timeout=timeout if timeout is not None else _DEFAULT_TIMEOUT,
                injector=injector,
                zero_copy=zero_copy if zero_copy is not None else True,
                sanitize=sanitize)
        else:
            if timeout is not None:
                transport.timeout = float(timeout)
            if injector is not None:
                transport.injector = injector
            if zero_copy is not None:
                transport.zero_copy = bool(zero_copy)
            if sanitize is not None:
                if sanitize:
                    transport.enable_sanitize()
                else:
                    transport.sanitize = False
                    transport.pool.sanitize = False
        if tracer is not None:
            transport.tracer = tracer
        if transport.injector is not None:
            transport.injector.tracer = transport.tracer
        self.transport = transport
        if self.transport.nprocs != nprocs:
            raise ValueError("transport sized for a different job")
        if self.online:
            self.transport.enable_online()
        self.timeout = self.transport.timeout
        self.join_timeout = join_timeout
        self._threads: list[threading.Thread] = []
        self._tlock = threading.Lock()

    def run(self, fn: Callable[..., Any], *args: Any,
            rank_args: Sequence[tuple] | None = None) -> list:
        """Execute one SPMD program; returns per-rank return values.

        ``rank_args`` optionally supplies distinct extra arguments per rank
        (e.g. per-rank initial data); otherwise ``args`` is shared.
        Exceptions on any rank abort the job — the shared barrier is
        broken and the transport poisoned so every other rank unwinds
        promptly — and re-raise on the caller.
        """
        if rank_args is not None and len(rank_args) != self.nprocs:
            raise ValueError("rank_args length != nprocs")
        if self.backend == "process":
            from .process_backend import run_process_job
            return run_process_job(self, fn, args, rank_args)
        self.transport.clear_poison()
        self.transport.revive_all()
        shared = _Shared.create(self.nprocs, self.transport, self.timeout)
        shared.spares = list(range(self.spares))
        results: list = [None] * self.nprocs
        errors: list = [None] * self.nprocs

        def worker(rank: int, shared_: _Shared,
                   replay_info: ReplayInfo | None = None) -> None:
            comm = Comm(rank, shared_, replay_info=replay_info)
            extra = rank_args[rank] if rank_args is not None else args
            try:
                t_body = time.perf_counter()
                results[rank] = fn(comm, *extra)
                self.transport.body_seconds[rank] = (
                    time.perf_counter() - t_body)
            except RankKilledError as exc:
                # Fail-stop loss: mark this rank dead on the transport
                # (typed wake-up for the survivors, no poison) and let
                # the thread die.  Survivors repair the communicator; if
                # nothing repairs it, the error surfaces below.
                errors[rank] = exc
                self.transport.mark_dead(rank, step=exc.step,
                                         reason="injected kill")
            except BaseException as exc:  # noqa: BLE001 - propagated below
                errors[rank] = exc
                # Abort the *current* barrier: repair may have swapped a
                # fresh shared state into this rank's comm.
                comm._shared.barrier.abort()
                self.transport.poison(f"rank {rank} failed: {exc!r}")

        def spawn_replacement(rank: int, shared_: _Shared,
                              info: ReplayInfo) -> None:
            t = threading.Thread(target=worker,
                                 args=(rank, shared_, info), daemon=True)
            with self._tlock:
                self._threads.append(t)
            t.start()

        shared.spawn_replacement = spawn_replacement
        self.transport.dead_callbacks[:] = [shared.barrier.abort]
        try:
            return self._run_threads(worker, shared, results, errors)
        finally:
            # The spawn hook closes over ``worker`` and so over this job,
            # the dead callbacks hold its barrier, and a rank error's
            # traceback holds ``worker``'s frame and so ``errors``: drop
            # all three, so no reference cycle keeps the transport (pool
            # buffers, replay logs, message records) alive after the job.
            shared.spawn_replacement = None
            self.transport.dead_callbacks.clear()
            errors[:] = [None] * len(errors)

    def _run_threads(self, worker: Callable, shared: _Shared,
                     results: list, errors: list) -> list:
        """Start one thread per rank, join until quiescent, and return
        the results or raise the root-cause rank error."""
        with self._tlock:
            self._threads = [
                threading.Thread(target=worker, args=(r, shared),
                                 daemon=True)
                for r in range(self.nprocs)]
            initial = list(self._threads)
        for t in initial:
            t.start()
        # Join until quiescent: communicator repair may spawn
        # replacement threads while the original ones are still draining.
        deadline = time.monotonic() + self.join_timeout
        while True:
            with self._tlock:
                snapshot = list(self._threads)
            pending = [t for t in snapshot if t.is_alive()]
            if not pending:
                with self._tlock:
                    if len(self._threads) == len(snapshot):
                        break
                continue
            for t in pending:
                t.join(timeout=max(0.05, min(
                    1.0, deadline - time.monotonic())))
            if time.monotonic() >= deadline:
                break
        with self._tlock:
            threads = list(self._threads)
        alive = [t for t in threads if t.is_alive()]
        if alive:
            # Unstick lingering ranks instead of leaking daemon threads:
            # break the barrier and poison the mailboxes, then give the
            # ranks a grace period to unwind.
            shared.barrier.abort()
            self.transport.poison("job join timeout")
            for t in alive:
                t.join(timeout=5.0)
        # A rank lost to a kill whose communicator was repaired is not a
        # failure: either a replacement re-ran it (respawn) or the
        # survivors shrank around it.
        repaired = set()
        for rec in self.transport.repairs:
            repaired.update(rec.dead)
        failed = [(r, e) for r, e in enumerate(errors)
                  if e is not None
                  and not (isinstance(e, RankKilledError)
                           and r in repaired)]
        # Prefer reporting a root-cause error: a rank that died aborts the
        # shared barrier and poisons the transport, making innocent ranks
        # fail with BrokenBarrierError / TransportPoisonedError (or, for
        # fail-stop losses, RankFailedError / CommRevokedError).
        root = [(r, e) for r, e in failed
                if not isinstance(e, (threading.BrokenBarrierError,
                                      TransportPoisonedError,
                                      RankFailedError,
                                      CommRevokedError,
                                      OnlineRecoveryError))]
        for rank, err in root or failed:
            if self.transport.sanitize:
                # Sender-side borrow violations surface as numpy's
                # anonymous read-only ValueError; upgrade the message
                # with recent borrow provenance.
                hint = enrich_readonly_error(
                    err, self.transport.borrow_log.values())
                if hint is not None:
                    raise RuntimeError(
                        f"rank {rank} failed: {hint}") from err
            raise RuntimeError(f"rank {rank} failed: {err!r}") from err
        alive = [t for t in threads if t.is_alive()]
        if alive:
            raise TimeoutError(f"{len(alive)} ranks failed to finish")
        return results

    @property
    def spares_left(self) -> int:
        """Spare ranks still in reserve (valid during/after ``run``)."""
        return self.spares - sum(len(rec.replacements)
                                 for rec in self.transport.repairs)
