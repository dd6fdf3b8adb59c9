"""In-memory message transport with full event accounting.

Every message and collective that moves through the simulated runtime is
recorded here.  The records are the ground truth from which application
communication profiles (:class:`~repro.perf.work.CommPhase`) are built —
message counts and volumes are *measured*, not estimated, which matters
for reproducing effects like LBMHD's CAF-vs-MPI tradeoff (CAF eliminates
the user/system copies but issues more, smaller messages; §3.2).

Reliability layer
-----------------
When a :class:`~repro.runtime.faults.FaultInjector` is attached, every
point-to-point payload travels in a sequence-numbered, checksummed
envelope and the injector decides the fate of each delivery attempt:

* **drop** — the attempt is lost; the sender backs off exponentially and
  retransmits (the simulated ack never arrives);
* **corrupt** — the envelope is delivered with a failing checksum; the
  receiver discards it and the sender retransmits (simulated NACK);
* **duplicate** — the envelope is delivered twice; the receiver discards
  the stale sequence number;
* **delay** — delivery is held back by the plan's ``delay_seconds``.

Every attempt that goes on the wire — including retransmissions and
duplicate copies — is recorded as its own :class:`MessageRecord` with
``resend=True`` for the extras, so the communication profile stays an
honest account of the traffic actually moved.

Failure semantics
-----------------
:meth:`Transport.poison` marks the fabric dead and wakes every blocked
receiver with :class:`TransportPoisonedError`.  The job driver poisons
the transport when a rank fails (or when the join times out), so ranks
stuck in ``recv`` unwind promptly instead of waiting out their timeout.
A receiver whose box already holds a message still takes it, and
raises once the box is empty.
:meth:`Transport.reset` clears mailboxes, sequence state and the poison
flag — message/collective records are kept — which is what a supervised
restart needs before re-running ranks from a checkpoint.
"""

from __future__ import annotations

import hashlib
import struct
import threading
import time
import weakref
import zlib
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from ..obs.events import CAT_BUFFER, CAT_HEALTH
from ..obs.tracer import NULL_TRACER
from .buffers import BufferPool, BufferStats
from .faults import CORRUPT, DELAY, DROP, DUPLICATE
from .sanitize import env_enabled as _sanitize_env_enabled

#: one configurable recv/barrier timeout for the whole runtime
DEFAULT_TIMEOUT = 120.0

#: number of channel shards; (src, dst, tag) keys hash across these so
#: unrelated channels never contend on one global lock
_NSHARDS = 16

#: XOR mask applied to a corrupted envelope's checksum
_CORRUPT_MASK = 0xDEADBEEF


class BackendError(RuntimeError):
    """An execution backend was misconfigured or cannot run this job.

    Raised for unknown ``backend=`` names and for job shapes a backend
    does not support (e.g. the process backend cannot run CAF one-sided
    jobs or unpicklable rank functions).  Typed so CLI/campaign layers
    can classify configuration errors without string matching.
    """


class TransportPoisonedError(RuntimeError):
    """The transport was shut down while this rank was blocked on it."""


class RankFailedError(RuntimeError):
    """A peer rank died while this rank was (or would be) blocked on it.

    Unlike :class:`TransportPoisonedError` — the whole-fabric shutdown
    used by the restart supervisor — a rank failure is *survivable*:
    the error names the dead rank and the failure detector's latency so
    survivors can enter communicator repair
    (:meth:`~repro.runtime.comm.Comm.repair`) instead of unwinding the
    whole job.
    """

    def __init__(self, rank: int, *, step: int | None = None,
                 latency: float = 0.0):
        where = f" at step {step}" if step is not None else ""
        super().__init__(
            f"rank {rank} failed{where} "
            f"(detected after {latency:.3f}s virtual)")
        self.rank = rank
        self.step = step
        #: seeded virtual-time detection latency (heartbeat timeout)
        self.latency = latency

    def __reduce__(self):
        return (_rebuild_rank_failed,
                (self.rank, self.step, self.latency))


def _rebuild_rank_failed(rank: int, step, latency) -> "RankFailedError":
    """Unpickle helper: :class:`RankFailedError` takes keyword-only args."""
    return RankFailedError(rank, step=step, latency=latency)


class CommRevokedError(RuntimeError):
    """The communicator was revoked (``Comm.revoke``) during a failure.

    Raised on ranks whose pending operations were interrupted by an
    explicit revocation rather than by observing the dead rank directly
    (ULFM's ``MPI_Comm_revoke`` semantics).
    """


class ReplayGapError(RuntimeError):
    """A replacement rank's replay ran past the bounded message log.

    The sender-side log only retains traffic back to the last pruned
    checkpoint mark; a rollback deeper than that (or a log overflow)
    cannot be replayed online and must fall back to a full restart.
    """


@dataclass(frozen=True)
class DeadRank:
    """One detected rank failure."""

    rank: int
    step: int | None
    latency: float     # seeded virtual detection latency, seconds
    reason: str = ""


@dataclass(frozen=True)
class RepairRecord:
    """One completed communicator repair (shrink or respawn)."""

    epoch: int                     # repair generation, 1-based
    mode: str                      # "respawn" | "shrink"
    dead: tuple[int, ...]          # ranks lost this epoch
    survivors: tuple[int, ...]     # old rank ids that carried on
    replacements: tuple[int, ...]  # rank ids refilled by spares
    rolled_back: tuple[int, ...]   # ranks that reloaded/refreshed state
    resume_step: int               # step survivors re-execute from
    rollback_step: int             # checkpoint the replacement loaded
    detect_latency: float          # virtual seconds to detection
    repair_seconds: float          # wall seconds spent in repair


class HeartbeatDetector:
    """Seeded virtual-time heartbeat failure detector.

    Ranks beat once per application step (``beat``) with a virtual
    timestamp; a rank whose last beat is older than its per-rank timeout
    is a suspect.  Timeouts are *seeded* keyed-hash jitter around
    ``base_timeout`` — deterministic under the thread backend, and
    deliberately desynchronized across ranks so simultaneous detections
    don't stampede.  The detector also supplies the detection latency
    reported by :class:`RankFailedError`: in virtual time, a failed rank
    is detected exactly one timeout after its last beat.
    """

    def __init__(self, nprocs: int, *, seed: int = 0,
                 base_timeout: float = 2.0, jitter: float = 0.5):
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if base_timeout <= 0.0:
            raise ValueError("base_timeout must be positive")
        if jitter < 0.0:
            raise ValueError("jitter must be >= 0")
        self.nprocs = nprocs
        self.seed = seed
        self.base_timeout = float(base_timeout)
        self.jitter = float(jitter)
        self._lock = threading.Lock()
        self._last: dict[int, float] = {r: 0.0 for r in range(nprocs)}

    def timeout_for(self, rank: int) -> float:
        """Seeded per-rank timeout in ``[base, base * (1 + jitter)]``."""
        key = struct.pack("<q", self.seed)
        msg = struct.pack("<2q", 0x4842, rank)   # 'HB' domain separator
        digest = hashlib.blake2b(msg, key=key, digest_size=8).digest()
        u = int.from_bytes(digest, "little") / 2.0 ** 64
        return self.base_timeout * (1.0 + self.jitter * u)

    #: detection latency of a failed rank equals its heartbeat timeout
    latency = timeout_for

    def beat(self, rank: int, now: float) -> None:
        """Record a heartbeat from ``rank`` at virtual time ``now``."""
        with self._lock:
            if now > self._last.get(rank, 0.0):
                self._last[rank] = now

    def last_beat(self, rank: int) -> float:
        with self._lock:
            return self._last.get(rank, 0.0)

    def suspects(self, now: float,
                 exclude: set[int] | None = None) -> list[int]:
        """Ranks whose heartbeat is older than their timeout at ``now``."""
        exclude = exclude or set()
        with self._lock:
            return [r for r in range(self.nprocs)
                    if r not in exclude
                    and now - self._last.get(r, 0.0) > self.timeout_for(r)]


class _ChannelLog:
    """Bounded in-order log of one channel's posted payloads.

    ``base`` is the absolute index of the first retained entry, so
    replay cursors keep meaning across pruning; reading below ``base``
    (pruned) or past the end (dropped by the bound) raises
    :class:`ReplayGapError` rather than silently replaying wrong data.
    """

    __slots__ = ("base", "items", "dropped")

    def __init__(self):
        self.base = 0
        self.items: list[Any] = []
        self.dropped = 0

    def append(self, payload: Any, limit: int) -> None:
        self.items.append(payload)
        if len(self.items) > limit:
            overflow = len(self.items) - limit
            del self.items[:overflow]
            self.base += overflow
            self.dropped += overflow

    def prune_to(self, index: int) -> None:
        drop = min(max(index - self.base, 0), len(self.items))
        if drop:
            del self.items[:drop]
            self.base += drop

    def get(self, key: tuple[int, int, int], index: int) -> Any:
        i = index - self.base
        if i < 0 or i >= len(self.items):
            raise ReplayGapError(
                f"channel {key}: replay index {index} outside retained "
                f"log [{self.base}, {self.base + len(self.items)})")
        return self.items[i]

    def end(self) -> int:
        return self.base + len(self.items)


class DeliveryFailedError(RuntimeError):
    """A payload exhausted the reliability layer's retry budget.

    Raised on the *sender* after ``max_attempts`` delivery attempts all
    failed (dropped or corrupted) — the wire-fault analogue of a dead
    link.  Carries the message identity so supervisors and tests can
    diagnose which channel died instead of matching on message text.
    """

    def __init__(self, src: int, dst: int, tag: int, seq: int,
                 attempts: int):
        super().__init__(
            f"message {src}->{dst} tag {tag} seq {seq} undeliverable "
            f"after {attempts} attempts")
        self.src = src
        self.dst = dst
        self.tag = tag
        self.seq = seq
        self.attempts = attempts

    def __reduce__(self):
        return (type(self),
                (self.src, self.dst, self.tag, self.seq, self.attempts))


@dataclass(frozen=True)
class MessageRecord:
    """One point-to-point message (MPI send or CAF put/get).

    ``resend`` marks wire traffic beyond a payload's first transmission:
    retransmissions after a dropped/corrupted attempt and duplicate
    copies.  They are distinct records on purpose — retries are real
    bytes on a real network.
    """

    src: int
    dst: int
    nbytes: int
    tag: int = 0
    onesided: bool = False
    phase: str = ""
    resend: bool = False


@dataclass(frozen=True)
class CollectiveRecord:
    """One rank's call of a collective: a 4-rank allreduce is 4 records."""

    kind: str                      # "allreduce", "alltoall", "bcast", ...
    nprocs: int
    nbytes_per_rank: int
    phase: str = ""


@dataclass
class TrafficSummary:
    """Aggregated traffic (for one rank or one whole run).

    Beyond the global aggregates, ``by_pair`` breaks byte totals down
    per ``(src, dst)`` rank pair and ``by_tag`` per message tag — the
    views that show *which* link and *which* protocol stream carried
    the volume (halo vs. shift vs. retry storms).
    """

    messages: int = 0
    nbytes: int = 0
    onesided_messages: int = 0
    onesided_nbytes: int = 0
    resends: int = 0
    by_pair: dict = field(default_factory=dict)   # (src, dst) -> bytes
    by_tag: dict = field(default_factory=dict)    # tag -> bytes

    def add(self, rec: MessageRecord) -> None:
        if rec.onesided:
            self.onesided_messages += 1
            self.onesided_nbytes += rec.nbytes
        else:
            self.messages += 1
            self.nbytes += rec.nbytes
        if rec.resend:
            self.resends += 1
        pair = (rec.src, rec.dst)
        self.by_pair[pair] = self.by_pair.get(pair, 0) + rec.nbytes
        self.by_tag[rec.tag] = self.by_tag.get(rec.tag, 0) + rec.nbytes

    def hottest_pair(self) -> tuple[tuple[int, int], int] | None:
        """The (src, dst) link carrying the most bytes, if any."""
        if not self.by_pair:
            return None
        pair = max(self.by_pair, key=lambda p: (self.by_pair[p], p))
        return pair, self.by_pair[pair]


def _checksum(obj: Any) -> int:
    """Cheap structural CRC32 of a payload (reliability-layer integrity)."""
    if isinstance(obj, np.ndarray):
        return zlib.crc32(obj.tobytes())
    if isinstance(obj, (bytes, bytearray)):
        return zlib.crc32(bytes(obj))
    if isinstance(obj, (bool, int, float, complex, np.generic, str)):
        return zlib.crc32(repr(obj).encode())
    if isinstance(obj, (list, tuple)):
        acc = len(obj)
        for x in obj:
            acc = zlib.crc32(acc.to_bytes(4, "little") +
                             _checksum(x).to_bytes(4, "little"))
        return acc
    if isinstance(obj, dict):
        acc = len(obj)
        for k, v in obj.items():
            acc = zlib.crc32(acc.to_bytes(4, "little") +
                             _checksum(k).to_bytes(4, "little") +
                             _checksum(v).to_bytes(4, "little"))
        return acc
    return 0  # opaque object: integrity not modelled


def _array_leaves(obj: Any) -> Iterator[np.ndarray]:
    """Every ndarray leaf of a (possibly nested) payload."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _array_leaves(x)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _array_leaves(v)


def _log_copy(obj: Any) -> Any:
    """Deep value copy for the replay logs.

    Posted payloads may alias pooled or borrowed buffers whose storage
    is recycled after delivery; a log entry must own its bytes or a
    later replay would hand the replacement rank garbage.
    """
    if isinstance(obj, np.ndarray):
        owned = np.empty_like(obj)
        np.copyto(owned, obj)
        return owned
    if isinstance(obj, list):
        return [_log_copy(x) for x in obj]
    if isinstance(obj, tuple):
        return tuple(_log_copy(x) for x in obj)
    if isinstance(obj, dict):
        return {k: _log_copy(v) for k, v in obj.items()}
    return obj


@dataclass(frozen=True)
class _Envelope:
    """Wire format of the reliability layer."""

    seq: int
    checksum: int
    payload: Any


class _ChannelShard:
    """Lock domain for a subset of (src, dst, tag) channels.

    Each shard owns the condition variables and send/recv sequence
    counters of the channels that hash into it, so two ranks talking on
    unrelated channels never serialize on a global transport lock.
    """

    __slots__ = ("lock", "conds", "send_seq", "recv_seq")

    def __init__(self):
        self.lock = threading.Lock()
        self.conds: dict[tuple[int, int, int], threading.Condition] = {}
        self.send_seq: dict[tuple[int, int, int], int] = defaultdict(int)
        self.recv_seq: dict[tuple[int, int, int], int] = defaultdict(int)


class Transport:
    """Shared mailbox fabric + event recorder for one parallel job."""

    def __init__(self, nprocs: int, *, timeout: float = DEFAULT_TIMEOUT,
                 injector=None, zero_copy: bool = True,
                 sanitize: bool | None = None):
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        self.nprocs = nprocs
        #: recv/barrier timeout in seconds, shared by the whole job
        self.timeout = float(timeout)
        #: optional FaultInjector; enables the reliability layer
        self.injector = injector
        #: tracer every Comm/CoArray built on this transport reports to;
        #: NULL_TRACER (tracing disabled, zero-cost) unless a job attaches
        #: a real :class:`~repro.obs.tracer.Tracer`
        self.tracer = NULL_TRACER
        #: borrowed-buffer fast path (False restores unconditional
        #: deep-copy semantics — the legacy reference for benchmarks)
        self.zero_copy = bool(zero_copy)
        #: ownership sanitizer (:mod:`repro.runtime.sanitize`); ``None``
        #: defers to the ``REPRO_SANITIZE`` environment variable
        self.sanitize = (_sanitize_env_enabled() if sanitize is None
                         else bool(sanitize))
        #: borrow provenance in sanitize mode: id(frozen leaf) -> site
        self.borrow_log: dict[int, str] = {}
        #: physical-copy accounting of the ownership protocol
        self.buffers = BufferStats()
        #: recycled packing buffers for halo/transpose exchanges
        self.pool = BufferPool(sanitize=self.sanitize)
        self._state_lock = threading.Lock()
        self._rec_lock = threading.Lock()
        self._shards = [_ChannelShard() for _ in range(_NSHARDS)]
        self._boxes: dict[tuple[int, int, int], list] = defaultdict(list)
        self._poisoned = False
        self._poison_reason = ""
        self.messages: list[MessageRecord] = []
        self.collectives: list[CollectiveRecord] = []
        self._label = threading.local()
        self.recording: bool = True
        # -- online-recovery state (PR 6) --------------------------------
        #: heartbeat failure detector; per-rank seeded timeouts
        self.detector = HeartbeatDetector(nprocs)
        #: detected-but-not-yet-repaired rank failures
        self._dead: dict[int, DeadRank] = {}
        self._revoked = False
        #: called once per newly dead rank (the job hooks its barrier
        #: abort here so collective waiters unstick immediately)
        self.dead_callbacks: list[Callable[[], None]] = []
        #: completed communicator repairs (cumulative, like messages)
        self.repairs: list[RepairRecord] = []
        #: per-rank wall seconds spent inside the rank program (kernel
        #: path only — excludes spawn/import for process workers);
        #: filled by both execution backends after the job completes
        self.body_seconds: dict[int, float] = {}
        #: replay logging armed (spare-rank recovery); off by default
        #: because every logged payload is a deep copy
        self.online = False
        #: retained entries per channel in the sender-side message log
        self.log_limit = 512
        self._msg_log: dict[tuple[int, int, int], _ChannelLog] = {}
        self._consumed: dict[tuple[int, int, int], int] = defaultdict(int)
        self._consumed_marks: dict[tuple[int, int], dict] = {}
        self._coll_log: dict[tuple[int, int, int], Any] = {}
        #: index into :attr:`messages` at the last :meth:`reset`; the
        #: boundary between cumulative and current-epoch accounting
        self._epoch_mark = 0
        #: in-flight payloads discarded by the last :meth:`reset`
        self.last_reset_drained = 0
        # -- buffer-epoch identity (race analyzer, PR 10) ----------------
        # id(arr) -> (label, weakref); the weakref validates the id
        # against pointer reuse after a buffer is garbage-collected.
        self._buf_lock = threading.Lock()
        self._buf_reg: dict[int, tuple[str, weakref.ref]] = {}
        self._buf_count = 0
        self._buf_gen: dict[str, int] = {}

    def enable_sanitize(self) -> None:
        """Turn on the ownership sanitizer for subsequent traffic.

        The pool is cleared first: buffers recycled before sanitize mode
        carry no poison pattern, and re-issuing one would be
        misdiagnosed as a write-after-release.
        """
        self.sanitize = True
        self.pool.clear()
        self.pool.sanitize = True

    @property
    def phase_label(self) -> str:
        """The calling rank's ``Comm.phase`` label, kept per thread (a
        thread rank is one thread; a process rank records from one)."""
        return getattr(self._label, "text", "")

    @phase_label.setter
    def phase_label(self, label: str) -> None:
        self._label.text = label

    def _shard(self, key: tuple[int, int, int]) -> _ChannelShard:
        return self._shards[hash(key) % _NSHARDS]

    def _cond(self, key: tuple[int, int, int]) -> threading.Condition:
        shard = self._shard(key)
        with shard.lock:
            c = shard.conds.get(key)
            if c is None:
                c = shard.conds[key] = threading.Condition()
            return c

    # -- failure control -----------------------------------------------------
    def _wake_all(self) -> None:
        """Wake every receiver blocked on any channel condition."""
        conds = []
        for shard in self._shards:
            with shard.lock:
                conds.extend(shard.conds.values())
        for cond in conds:
            with cond:
                cond.notify_all()

    def poison(self, reason: str = "") -> None:
        """Mark the fabric dead and wake every blocked receiver."""
        with self._state_lock:
            if self._poisoned:
                return
            self._poisoned = True
            self._poison_reason = reason
        self._wake_all()

    def mark_dead(self, rank: int, *, step: int | None = None,
                  reason: str = "") -> None:
        """Declare one rank failed; wake all waiters with the typed error.

        Survivable counterpart of :meth:`poison`: instead of killing the
        fabric, the rank joins the dead set, the registered callbacks
        fire (the job aborts its collective barrier there) and every
        blocked ``fetch`` raises :class:`RankFailedError` naming the
        rank and the detector's seeded latency — the entry ticket into
        communicator repair.
        """
        self._check_rank(rank)
        with self._state_lock:
            if rank in self._dead:
                return
            latency = self.detector.latency(rank)
            self._dead[rank] = DeadRank(rank, step, latency, reason)
        if self.tracer.enabled:
            self.tracer.instant(rank, "rank-dead", CAT_HEALTH,
                                {"rank": rank, "step": step,
                                 "latency": latency,
                                 "reason": reason or "fail-stop"})
        for cb in list(self.dead_callbacks):
            cb()
        self._wake_all()

    def revoke(self) -> None:
        """Revoke the fabric: unstick every rank during failure handling.

        Idempotent; raised errors are :class:`RankFailedError` when a
        dead rank is known, :class:`CommRevokedError` otherwise.
        Cleared by :meth:`revive_all` once repair completes.
        """
        with self._state_lock:
            if self._revoked:
                return
            self._revoked = True
        for cb in list(self.dead_callbacks):
            cb()
        self._wake_all()

    def revive_all(self) -> None:
        """Clear the dead set and revocation after a completed repair."""
        with self._state_lock:
            self._dead.clear()
            self._revoked = False

    def dead_ranks(self) -> list[int]:
        with self._state_lock:
            return sorted(self._dead)

    def dead_record(self, rank: int) -> DeadRank | None:
        with self._state_lock:
            return self._dead.get(rank)

    def _failure_pending(self) -> bool:
        return self._revoked or bool(self._dead)

    def raise_rank_failed(self) -> None:
        """Raise the typed failure for the current dead set (or revoke)."""
        with self._state_lock:
            if self._dead:
                rec = self._dead[min(self._dead)]
                raise RankFailedError(rec.rank, step=rec.step,
                                      latency=rec.latency)
        raise CommRevokedError("communicator revoked during failure "
                               "handling")

    @property
    def poisoned(self) -> bool:
        return self._poisoned

    def clear_poison(self) -> None:
        with self._state_lock:
            self._poisoned = False
            self._poison_reason = ""

    def reset(self) -> None:
        """Drop in-flight payloads and sequence state; keep the records.

        Called by the restart supervisor between job attempts (and by
        communicator repair): a crashed run leaves undelivered
        envelopes, asymmetric sequence counters, stale per-channel
        condition variables and a dirty failure/replay state behind,
        none of which may leak into the resumed run.  Cumulative
        message/collective records are kept; the per-epoch accounting
        (``resend_count(epoch=True)`` / ``undelivered()``) starts clean.
        """
        with self._state_lock:
            self.last_reset_drained = sum(
                len(v) for v in self._boxes.values())
            self._boxes.clear()
            self._poisoned = False
            self._poison_reason = ""
            self._dead.clear()
            self._revoked = False
            self.dead_callbacks.clear()
            self._msg_log.clear()
            self._consumed.clear()
            self._consumed_marks.clear()
            self._coll_log.clear()
        with self._rec_lock:
            self._epoch_mark = len(self.messages)
        for shard in self._shards:
            with shard.lock:
                shard.send_seq.clear()
                shard.recv_seq.clear()
                shard.conds.clear()

    def _raise_if_poisoned(self) -> None:
        if self._poisoned:
            raise TransportPoisonedError(
                f"transport poisoned: {self._poison_reason or 'job aborted'}")

    # -- point-to-point -------------------------------------------------------
    def _deliver(self, key: tuple[int, int, int], item: Any) -> None:
        cond = self._cond(key)
        with cond:
            self._boxes[key].append(item)
            cond.notify_all()

    def _record(self, src: int, dst: int, nbytes: int, tag: int,
                onesided: bool, resend: bool = False) -> None:
        if self.recording:
            with self._rec_lock:
                self.messages.append(MessageRecord(
                    src, dst, nbytes, tag, onesided, self.phase_label,
                    resend))

    def _log_post(self, key: tuple[int, int, int], payload: Any) -> None:
        """Append a deep copy of ``payload`` to the sender-side log."""
        with self._state_lock:
            chan = self._msg_log.get(key)
            if chan is None:
                chan = self._msg_log[key] = _ChannelLog()
            chan.append(_log_copy(payload), self.log_limit)

    def post(self, src: int, dst: int, tag: int, payload,
             nbytes: int, *, onesided: bool = False,
             control: bool = False) -> None:
        self._check_rank(src)
        self._check_rank(dst)
        self._raise_if_poisoned()
        if not control and self._failure_pending():
            # Sending into a failed epoch: unwind into repair promptly
            # instead of parking a message a dead rank will never read.
            self.raise_rank_failed()
        key = (src, dst, tag)
        if self.online and not control:
            self._log_post(key, payload)
        inj = self.injector
        if inj is None or control:
            self._deliver(key, payload)
            if not control:
                self._record(src, dst, nbytes, tag, onesided)
            return
        shard = self._shard(key)
        with shard.lock:
            seq = shard.send_seq[key]
            shard.send_seq[key] = seq + 1
        csum = _checksum(payload)
        for attempt in range(inj.plan.max_attempts):
            self._raise_if_poisoned()
            action = inj.action(src, dst, tag, seq, attempt)
            resend = attempt > 0
            if action == DROP:
                # Lost on the wire: the bytes were still sent.
                self._record(src, dst, nbytes, tag, onesided, resend)
                time.sleep(inj.backoff(attempt))
                continue
            if action == CORRUPT:
                # Damaged in transit: deliver with a failing checksum so
                # the receiver-side discard path runs, then retransmit.
                self._deliver(key, _Envelope(seq, csum ^ _CORRUPT_MASK,
                                             payload))
                self._record(src, dst, nbytes, tag, onesided, resend)
                time.sleep(inj.backoff(attempt))
                continue
            if action == DELAY:
                time.sleep(inj.plan.delay_seconds)
            self._deliver(key, _Envelope(seq, csum, payload))
            self._record(src, dst, nbytes, tag, onesided, resend)
            if action == DUPLICATE:
                self._deliver(key, _Envelope(seq, csum, payload))
                self._record(src, dst, nbytes, tag, onesided, True)
            return
        raise DeliveryFailedError(src, dst, tag, seq,
                                  inj.plan.max_attempts)

    def _count_consumed(self, key: tuple[int, int, int]) -> None:
        if self.online:
            with self._state_lock:
                self._consumed[key] += 1

    def fetch(self, src: int, dst: int, tag: int,
              timeout: float | None = None, *, control: bool = False,
              sensitive: bool | None = None):
        """Next message on ``(src, dst, tag)``, blocking up to ``timeout``.

        A ``sensitive`` fetch (default: not ``control``) unwinds when a
        rank fails; the process backend's barrier and collectives are
        control fetches that must, so they pass ``sensitive=True``.
        """
        if sensitive is None:
            sensitive = not control
        self._check_rank(src)
        self._check_rank(dst)
        if timeout is None:
            timeout = self.timeout
        key = (src, dst, tag)
        cond = self._cond(key)
        deadline = time.monotonic() + timeout
        while True:
            with cond:
                ok = cond.wait_for(
                    lambda: self._poisoned
                    or (sensitive and self._failure_pending())
                    or bool(self._boxes[key]),
                    max(0.0, deadline - time.monotonic()))
                # A delivered message wins over a poison: a collective's
                # root may post its result and then fail.
                if not self._boxes[key]:
                    self._raise_if_poisoned()
                if sensitive and self._failure_pending():
                    self.raise_rank_failed()
                if not ok:
                    raise TimeoutError(
                        f"recv timeout: rank {dst} waiting on {src} "
                        f"tag {tag}")
                item = self._boxes[key].pop(0)
            if not isinstance(item, _Envelope):
                if not control:
                    self._count_consumed(key)
                return item
            inj = self.injector
            shard = self._shard(key)
            with shard.lock:
                expected = shard.recv_seq[key]
            if item.seq < expected:
                if inj is not None:
                    inj.note("duplicate-discard", src, dst, tag,
                             item.seq, 0)
                continue
            if _checksum(item.payload) != item.checksum:
                if inj is not None:
                    inj.note("corrupt-discard", src, dst, tag,
                             item.seq, 0)
                continue
            with shard.lock:
                shard.recv_seq[key] = item.seq + 1
            if not control:
                self._count_consumed(key)
            return item.payload

    # -- buffer-epoch events (race analyzer) ----------------------------------
    def _buffer_label(self, arr: np.ndarray, *,
                      create: bool) -> str | None:
        """Stable per-buffer label ("b0", "b1", ...) for epoch events.

        Identity is ``id(arr)`` validated by a weakref — a recycled id
        (new array at a freed address) never inherits the old label.
        A frozen view produced by the sanitizer's ``FrozenBorrow`` is
        aliased to its base, so the owner can later reclaim with the
        original array object it actually holds.
        """
        with self._buf_lock:
            ent = self._buf_reg.get(id(arr))
            if ent is not None and ent[1]() is arr:
                return ent[0]
            if not create:
                return None
            label = f"b{self._buf_count}"
            self._buf_count += 1
            self._buf_reg[id(arr)] = (label, weakref.ref(arr))
            self._buf_gen.setdefault(label, 0)
            base = arr.base
            if isinstance(base, np.ndarray):
                alias = self._buf_reg.get(id(base))
                if alias is None or alias[1]() is not base:
                    self._buf_reg[id(base)] = (label, weakref.ref(base))
            return label

    def note_buffers(self, obj: Any, rank: int, op: str,
                     site: str) -> None:
        """Emit ``buf-epoch`` instants for the frozen ndarray leaves.

        ``op`` is ``publish`` (write epoch closes: the buffer was lent
        to a message), ``read`` (a receiver observed it) or ``reclaim``
        (the owner thawed it: a new write epoch opens, bumping the
        generation).  Free when tracing is off; deep-copy payloads
        (``zero_copy=False``) share no storage and emit nothing.
        """
        if not self.tracer.enabled:
            return
        for arr in _array_leaves(obj):
            if op == "publish":
                if arr.flags.writeable:
                    continue       # value copy, not a shared borrow
                label = self._buffer_label(arr, create=True)
            else:
                label = self._buffer_label(arr, create=False)
                if label is None:
                    continue
            with self._buf_lock:
                if op == "reclaim":
                    self._buf_gen[label] = \
                        self._buf_gen.get(label, 0) + 1
                gen = self._buf_gen.get(label, 0)
            self.tracer.instant(rank, "buf-epoch", CAT_BUFFER,
                                {"op": op, "buf": label, "gen": gen,
                                 "site": site})

    def record_collective(self, kind: str, nbytes_per_rank: int) -> None:
        if self.recording:
            with self._rec_lock:
                self.collectives.append(CollectiveRecord(
                    kind, self.nprocs, nbytes_per_rank, self.phase_label))

    def record_onesided(self, src: int, dst: int, nbytes: int) -> None:
        """Account a one-sided transfer that bypassed the mailboxes."""
        if self.recording:
            with self._rec_lock:
                self.messages.append(MessageRecord(
                    src, dst, nbytes, 0, True, self.phase_label))

    def _check_rank(self, r: int) -> None:
        if not 0 <= r < self.nprocs:
            raise ValueError(f"rank {r} out of range [0, {self.nprocs})")

    # -- online-recovery replay logs -----------------------------------------
    def enable_online(self) -> None:
        """Arm the sender-side message and collective-result logs.

        Required for spare-rank respawn: a replacement catches up by
        replaying the traffic the dead rank consumed after the rollback
        checkpoint.  Off by default because every logged payload is a
        deep copy.
        """
        self.online = True

    def replay_fetch(self, src: int, dst: int, tag: int, index: int):
        """Serve message ``index`` of channel ``(src, dst, tag)`` from
        the log (replacement-rank catch-up; mailboxes untouched)."""
        key = (src, dst, tag)
        with self._state_lock:
            chan = self._msg_log.get(key)
            if chan is None:
                raise ReplayGapError(
                    f"channel {key}: no logged traffic to replay")
            return chan.get(key, index)

    def coll_put(self, rank: int, step: int, index: int,
                 value: Any) -> None:
        """Log one rank's result of collective ``index`` within ``step``."""
        with self._state_lock:
            self._coll_log[(rank, step, index)] = _log_copy(value)

    def coll_get(self, rank: int, step: int, index: int):
        with self._state_lock:
            try:
                return self._coll_log[(rank, step, index)]
            except KeyError:
                raise ReplayGapError(
                    f"no logged result for collective {index} of step "
                    f"{step} on rank {rank}") from None

    def mark_consumed(self, step: int, rank: int) -> None:
        """Snapshot ``rank``'s per-channel consumption at checkpoint
        ``step`` — the replay cursors a replacement for ``rank`` rolling
        back to ``step`` starts from."""
        with self._state_lock:
            self._consumed_marks[(step, rank)] = {
                k: v for k, v in self._consumed.items() if k[1] == rank}

    def consumed_mark(self, step: int, rank: int) -> dict:
        with self._state_lock:
            return dict(self._consumed_marks.get((step, rank), {}))

    def prune_logs(self, step: int) -> None:
        """Drop replay state older than checkpoint ``step``.

        Message-log channels are pruned to their destination's consumed
        mark at ``step`` (rollback never targets anything older), and
        collective results / marks for earlier steps are discarded —
        this is what keeps both logs bounded.
        """
        with self._state_lock:
            for key, chan in self._msg_log.items():
                mark = self._consumed_marks.get((step, key[1]))
                if mark is not None:
                    chan.prune_to(mark.get(key, 0))
            self._coll_log = {k: v for k, v in self._coll_log.items()
                              if k[1] >= step}
            self._consumed_marks = {
                k: v for k, v in self._consumed_marks.items()
                if k[0] >= step}

    def truncate_logs(self, step: int) -> None:
        """Roll replay state back to the top of ``step`` (repair path).

        A failure interrupts ``step`` mid-flight: survivors have already
        posted (and logged) part of the step's traffic, and consumed
        part of what their peers posted.  They will re-execute the step
        from their snapshots and re-post everything, so the partial
        entries must go — otherwise the log indices and consumption
        counters drift apart and a *later* replacement would replay the
        wrong messages.  Per-step consumed marks (taken by
        ``Comm.begin_step``) say exactly how much of each channel
        belongs to completed steps; everything beyond is truncated and
        the consumption counters are rolled back to match.
        """
        with self._state_lock:
            for key, chan in self._msg_log.items():
                mark = self._consumed_marks.get((step, key[1]))
                target = max((mark or {}).get(key, 0), chan.base)
                del chan.items[target - chan.base:]
                self._consumed[key] = target
            self._coll_log = {k: v for k, v in self._coll_log.items()
                              if k[1] < step}

    def check_heartbeats(self, now: float) -> list[int]:
        """Sweep the failure detector and mark overdue ranks dead.

        ``now`` is virtual time (the current step index under the
        thread backend).  Already-dead ranks are excluded; each newly
        overdue rank is declared via :meth:`mark_dead`, so blocked
        waiters observe the typed failure.  Returns the newly marked
        ranks.
        """
        with self._state_lock:
            already = set(self._dead)
        overdue = self.detector.suspects(now, exclude=already)
        for rank in overdue:
            self.mark_dead(rank, reason="heartbeat timeout")
        return overdue

    def drain_boxes(self) -> int:
        """Discard every in-flight payload (communicator repair).

        Survivors re-execute the interrupted step from their in-memory
        snapshots and re-send everything, so whatever the failure left
        in the mailboxes is stale by construction.
        """
        with self._state_lock:
            n = sum(len(v) for v in self._boxes.values())
            self._boxes.clear()
        return n

    # -- accounting -------------------------------------------------------------
    def per_rank_traffic(self, phase: str | None = None
                         ) -> dict[int, TrafficSummary]:
        """Outgoing traffic per source rank, optionally for one phase."""
        out: dict[int, TrafficSummary] = defaultdict(TrafficSummary)
        for rec in self.messages:
            if phase is not None and rec.phase != phase:
                continue
            out[rec.src].add(rec)
        return dict(out)

    def traffic_summary(self, phase: str | None = None) -> TrafficSummary:
        """One run-level summary over every recorded message.

        Includes the per-(src, dst) and per-tag byte breakdowns; use
        :meth:`per_rank_traffic` for the per-source view.
        """
        out = TrafficSummary()
        for rec in self.messages:
            if phase is not None and rec.phase != phase:
                continue
            out.add(rec)
        return out

    def total_bytes(self, *, onesided: bool | None = None) -> int:
        return sum(m.nbytes for m in self.messages
                   if onesided is None or m.onesided == onesided)

    def message_count(self, *, onesided: bool | None = None) -> int:
        return sum(1 for m in self.messages
                   if onesided is None or m.onesided == onesided)

    def resend_count(self, *, epoch: bool = False) -> int:
        """Wire messages beyond first transmissions (retries + dup copies).

        ``epoch=True`` counts only traffic since the last :meth:`reset` —
        the clean-counter view a repaired/restarted communicator starts
        from; the default stays cumulative across restarts.
        """
        msgs = self.messages[self._epoch_mark:] if epoch else self.messages
        return sum(1 for m in msgs if m.resend)

    def undelivered(self) -> int:
        """Number of posted-but-unreceived payloads (0 after a clean run)."""
        with self._state_lock:
            return sum(len(v) for v in self._boxes.values())
