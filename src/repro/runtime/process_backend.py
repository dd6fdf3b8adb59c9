"""Multi-process SPMD backend: OS-process ranks, shared-memory payloads.

The thread backend (:class:`~repro.runtime.comm.ParallelJob` default)
is the deterministic reference implementation, but every rank shares
one GIL — fused multi-rank kernels serialize and the measured speedup
of "4 ranks" on 4 cores is ~1x.  This module runs the *same* SPMD
program on real ``multiprocessing`` processes so NumPy kernels execute
concurrently, while preserving the runtime's contracts:

* **Same API.**  Rank functions receive a :class:`ProcComm` that is a
  :class:`~repro.runtime.comm.Comm` subclass; send/recv/collectives,
  phases, tracing spans, fault injection and online repair all work.
* **Same results, bit for bit.**  Collectives gather contributions in
  rank order to rank 0 and broadcast the assembled list, so
  ``_reduce`` combines values in exactly the thread backend's order.
  The backend-parity test suite pins this for all four applications.
* **Same traffic accounting.**  Logical ``MessageRecord`` /
  ``CollectiveRecord`` streams are produced per rank and merged in
  rank order, so measured communication profiles are backend-invariant.

Transport mechanics
-------------------
Each rank owns one ``multiprocessing`` inbox queue; a per-process pump
thread drains it into the rank's local :class:`Transport` mailboxes, so
the base class's envelope logic (sequence numbers, checksum discards,
duplicate suppression) runs unchanged.  Control traffic (envelopes,
barrier/collective sync, repair notices) travels pickled through the
queues; any ndarray payload at or above :data:`SHM_MIN_BYTES` is copied
once into a fresh :class:`multiprocessing.shared_memory.SharedMemory`
segment and travels as a *name* — the receiver maps the segment and
hands the application a read-only zero-copy view whose finalizer
releases the segment, mirroring the thread backend's frozen-borrow
ownership protocol (PR 4).

Start-up
--------
Each rank's program (function, arguments and config, one pickle) waits
in a shared-memory segment, so the spawned ``Process`` carries only the
segment's name and every rank starts at once; ranks share the cores'
BLAS threads (:func:`_blas_threads`).

Failure semantics
-----------------
Process liveness is real: the parent supervises child sentinels.  A
rank that dies — cooperatively (injected :class:`RankKilledError`,
exit code :data:`KILLED_EXIT`) or violently (``SIGKILL``) — is marked
dead and broadcast to the survivors, whose blocked fetches raise
:class:`RankFailedError` exactly as in-process ranks would.  Online
repair runs through the parent: survivors post ``join`` requests, the
parent verifies agreement, authors the :class:`RepairRecord`, spawns a
replacement OS process that reloads its checkpoint, and answers every
survivor.  Replay catch-up is impossible across address spaces (the
dead rank's receive cursors died with it), so the process backend
requires checkpoint-aligned recovery: ``rollback_step`` must equal
``resume_step`` (i.e. ``checkpoint_every=1`` for killed steps), which
the parent enforces with a typed :class:`BackendError`.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import pickle
import queue as queue_mod
import sys
import tempfile
import threading
import time
import uuid
import weakref
from dataclasses import dataclass
from multiprocessing.connection import wait
from multiprocessing.shared_memory import SharedMemory
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from ..obs.events import CAT_BUFFER, CAT_HEALTH, TraceEvent
from ..obs.tracer import Tracer
from .comm import Comm, OnlineRecoveryError, ReplayInfo, _Shared
from .faults import RankKilledError
from .sanitize import caller_site
from .transport import (BackendError, CommRevokedError, RankFailedError,
                        RepairRecord, Transport, TransportPoisonedError,
                        _Envelope, _array_leaves)

#: ndarray payloads at or above this many bytes ride in shared memory;
#: smaller ones are cheaper to pickle through the queue than to map
SHM_MIN_BYTES = 1 << 14

#: reserved control tags for the message-based barrier / collectives
#: (distinct from the repair tags at -100-epoch and all app tags >= 0)
SYNC_TAG = -150
COLL_TAG = -160

#: exit code of a rank that died to an injected fail-stop kill
KILLED_EXIT = 17

#: grace period between a child sentinel going silent and the parent
#: declaring an unexplained (non-cooperative) process death
_SENTINEL_GRACE = 1.0

#: thread-pool widths of the BLAS and OpenMP runtimes a rank may load
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

#: serializes setting and restoring :data:`BLAS_THREAD_VARS` around a
#: rank's ``start()``, so concurrent jobs never see each other's values
_ENV_LOCK = threading.Lock()


def _untrack(name: str) -> None:
    """Detach one segment from this process's resource tracker.

    Every ``SharedMemory`` — created or merely attached — registers
    itself with the resource tracker the spawned ranks share with the
    parent, which would double-unlink (and warn about) segments whose
    lifetime is managed explicitly by the transport.  Best-effort:
    tracker internals differ across Python patch levels.
    """
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker
        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:
        pass


def _release_segment(seg) -> None:
    """Close and unlink one segment, tolerating racy double-release."""
    try:
        seg.close()
    except OSError:  # pragma: no cover - buffer still mapped elsewhere
        return
    try:
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - peer already unlinked
        pass


# -- payload wire format ------------------------------------------------------
#
# _ship turns a payload into a queue-safe "wire" tree of tagged tuples:
#     ("shm",  name, shape, dtype_str)   large ndarray in a shm segment
#     ("arr",  ndarray)                  small ndarray, pickled inline
#     ("list"/"tuple", [wire, ...])      containers, recursively
#     ("dict", [(key, wire), ...])
#     ("obj",  value)                    scalars and opaque payloads
# and an envelope/raw marker at the top:
#     ("env", seq, checksum, wire) | ("raw", wire)

def _ship(obj: Any, tp: "ProcTransport") -> Any:
    if isinstance(obj, np.ndarray):
        if obj.nbytes >= tp.shm_min:
            arr = np.ascontiguousarray(obj)
            name = f"{tp.shm_prefix}r{tp.rank}s{tp._ship_seq}"
            tp._ship_seq += 1
            seg = SharedMemory(name=name, create=True, size=arr.nbytes)
            _untrack(name)
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
            view[...] = arr
            del view
            seg.close()
            if tp.tracer.enabled:
                # The segment name is the cross-process buffer identity;
                # every segment is written once before its name escapes,
                # so its only write epoch is generation 0.
                tp.tracer.instant(tp.rank, "buf-epoch", CAT_BUFFER,
                                  {"op": "publish", "buf": f"shm:{name}",
                                   "gen": 0, "site": caller_site()})
            return ("shm", name, arr.shape, arr.dtype.str)
        small = np.ascontiguousarray(obj)
        if type(small) is not np.ndarray:
            # Frozen-borrow subclasses aren't wire types; a base-class
            # view pickles as plain bytes (read-only is re-applied on
            # the receiving side).
            small = small.view(np.ndarray)
        return ("arr", small)
    if isinstance(obj, list):
        return ("list", [_ship(x, tp) for x in obj])
    if isinstance(obj, tuple):
        return ("tuple", [_ship(x, tp) for x in obj])
    if isinstance(obj, dict):
        return ("dict", [(k, _ship(v, tp)) for k, v in obj.items()])
    return ("obj", obj)


def _unship(wire: Any, tp: "ProcTransport") -> Any:
    kind = wire[0]
    if kind == "shm":
        _, name, shape, dtype = wire
        # Attaching registers the segment with the resource tracker; the
        # unlink in _release_segment unregisters it again.
        seg = SharedMemory(name=name)
        raw = np.ndarray(shape, dtype=np.dtype(dtype), buffer=seg.buf)
        if tp.zero_copy:
            raw.flags.writeable = False
            # The view owns the segment: releasing the last reference
            # unmaps and unlinks it — the process-backend analogue of
            # giving a borrowed buffer back.
            weakref.finalize(raw, _release_segment, seg)
            if tp.tracer.enabled:
                tp._shm_reg[id(raw)] = (name, weakref.ref(raw))
            return raw
        out = np.empty_like(raw)
        np.copyto(out, raw)
        del raw
        _release_segment(seg)
        return out
    if kind == "arr":
        arr = wire[1]
        if tp.zero_copy:
            arr.flags.writeable = False
        return arr
    if kind == "list":
        return [_unship(x, tp) for x in wire[1]]
    if kind == "tuple":
        return tuple(_unship(x, tp) for x in wire[1])
    if kind == "dict":
        return {k: _unship(v, tp) for k, v in wire[1]}
    return wire[1]


def _release_wire(wire: Any) -> None:
    """Unlink the segments of a message that will never be delivered."""
    kind = wire[0]
    if kind == "shm":
        try:
            seg = SharedMemory(name=wire[1])
        except FileNotFoundError:
            return
        _release_segment(seg)
    elif kind in ("list", "tuple"):
        for x in wire[1]:
            _release_wire(x)
    elif kind == "dict":
        for _, v in wire[1]:
            _release_wire(v)
    elif kind == "env":
        _release_wire(wire[3])
    elif kind == "raw":
        _release_wire(wire[1])


def _write_program(name: str, program: tuple) -> None:
    """Pickle one rank's program into a new segment (parent side); the
    rank only attaches to it, and the job's teardown sweep unlinks it."""
    try:
        data = pickle.dumps(program)
    except Exception as exc:
        raise BackendError(
            f"process backend requires a picklable rank function and "
            f"arguments: {exc!r}") from exc
    seg = SharedMemory(name=name, create=True, size=len(data))
    _untrack(name)
    seg.buf[:len(data)] = data
    seg.close()


def _read_program(name: str) -> tuple:
    """Unpickle this rank's program from its segment (rank side)."""
    seg = SharedMemory(name=name)
    # Attaching registered the segment, and the rank never unlinks it:
    # unregister, or the tracker reports it leaked at shutdown.
    _untrack(name)
    try:
        return pickle.loads(seg.buf)
    finally:
        seg.close()


@contextlib.contextmanager
def _blas_threads(nprocs: int):
    """Ranks started inside get ``cores // nprocs`` BLAS threads each.

    A rank's BLAS otherwise starts a pool as wide as the host, and the
    ranks' pools spin against each other.  Spawn copies the environment
    at ``start()``; the parent's is restored on exit.  A caller that set
    any of :data:`BLAS_THREAD_VARS` keeps its choice for all three.
    """
    with _ENV_LOCK:
        if any(v in os.environ for v in BLAS_THREAD_VARS):
            yield
            return
        cpus = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        os.environ.update(
            dict.fromkeys(BLAS_THREAD_VARS, str(max(1, cpus // nprocs))))
        try:
            yield
        finally:
            for v in BLAS_THREAD_VARS:
                del os.environ[v]


def _sweep_segments(prefix: str) -> None:
    """Unlink every segment of one job left in ``/dev/shm`` (parent, at
    teardown): the rank programs and any leaked payloads."""
    for p in Path("/dev/shm").glob(f"{prefix}*"):
        p.unlink(missing_ok=True)


# -- per-process transport ----------------------------------------------------

class ProcTransport(Transport):
    """One rank's view of the fabric, fed by a queue pump thread.

    Local mailboxes, sequence counters and records live in the base
    class; :meth:`_deliver` reroutes remote-bound items through the
    destination's inbox queue, and the pump thread replays incoming
    items into the base mailboxes so :meth:`fetch` semantics (envelope
    discard logic, blocking, failure wake-ups) are inherited verbatim.
    """

    def __init__(self, rank: int, nprocs: int, inboxes: Sequence,
                 parent_q, *, shm_prefix: str, epoch: int = 0,
                 shm_min: int = SHM_MIN_BYTES, **kwargs):
        super().__init__(nprocs, **kwargs)
        self.rank = rank
        self.inboxes = list(inboxes)
        self.parent_q = parent_q
        self.shm_prefix = shm_prefix
        self.shm_min = shm_min
        self.epoch = epoch
        self._ship_seq = 0
        self._epoch_lock = threading.Lock()
        #: messages stamped with a future repair epoch, parked until
        #: this rank's own repair catches up
        self._future: list = []
        self._notices: list = []
        self._notice_cond = threading.Condition()
        self._pump_thread: threading.Thread | None = None
        #: id(mapped view) -> (segment name, weakref); filled by
        #: ``_unship`` under tracing so receiver-side reads of a
        #: zero-copy segment can be stamped with its wire identity
        self._shm_reg: dict[int, tuple[str, weakref.ref]] = {}

    def note_buffers(self, obj: Any, rank: int, op: str,
                     site: str) -> None:
        """Buffer-epoch events in segment-name terms.

        Publish epochs are stamped inside ``_ship`` (where the segment
        name is minted), and segments are single-use so there is no
        reclaim; only receiver-side reads of mapped zero-copy views are
        emitted here.  Inline-pickled small arrays are value copies and
        share no storage.
        """
        if not self.tracer.enabled:
            return
        if op != "read":
            return
        for arr in _array_leaves(obj):
            ent = self._shm_reg.get(id(arr))
            if ent is None or ent[1]() is not arr:
                continue
            self.tracer.instant(rank, "buf-epoch", CAT_BUFFER,
                                {"op": "read", "buf": f"shm:{ent[0]}",
                                 "gen": 0, "site": site})

    # -- inbox pump ----------------------------------------------------------
    def start_pump(self) -> None:
        self._wake = os.pipe()          # one byte stops the pump
        t = threading.Thread(target=self._pump_loop, args=(self._wake[0],),
                             name=f"pump-r{self.rank}", daemon=True)
        self._pump_thread = t
        t.start()

    def stop_pump(self) -> None:
        """Wake the pump, join it and close its wake pipe (idempotent)."""
        t, self._pump_thread = self._pump_thread, None
        if t is None:
            return
        os.write(self._wake[1], b"\0")
        t.join(timeout=2.0)
        for fd in self._wake:
            os.close(fd)

    def _pump_loop(self, wake_fd: int) -> None:
        inbox = self.inboxes[self.rank]
        while True:
            try:
                # Wait on both pipes without the reader lock; take it
                # only once bytes are waiting.  A lock held while idle is
                # abandoned by a rank that dies (injected kill, SIGKILL),
                # deadlocking the replacement that inherits this inbox.
                if wake_fd in wait([inbox._reader, wake_fd]):
                    return
                item = inbox.get_nowait()
            except queue_mod.Empty:
                continue
            except (EOFError, OSError):  # pragma: no cover - teardown
                return
            try:
                self._dispatch(item)
            except Exception:  # pragma: no cover - must never kill pump
                pass

    def _dispatch(self, item: tuple) -> None:
        kind = item[0]
        if kind == "msg":
            _, epoch, src, dst, tag, wire = item
            with self._epoch_lock:
                if epoch < self.epoch:
                    # Stale traffic from before a communicator repair.
                    _release_wire(wire)
                    return
                if epoch > self.epoch:
                    # A peer already repaired; park until we catch up.
                    self._future.append(item)
                    return
                self._deliver_local((src, dst, tag), wire)
        elif kind == "dead":
            _, rank, step, reason = item
            self.mark_dead(rank, step=step, reason=reason)
        elif kind == "poison":
            self.poison(item[1])
        elif kind == "revoke":
            self.revoke()
        elif kind == "repaired":
            with self._notice_cond:
                self._notices.append(item)
                self._notice_cond.notify_all()

    def _deliver_local(self, key: tuple[int, int, int], wire) -> None:
        if wire[0] == "env":
            item = _Envelope(wire[1], wire[2], _unship(wire[3], self))
        else:
            item = _unship(wire[1], self)
        Transport._deliver(self, key, item)

    # -- outbound ------------------------------------------------------------
    def _deliver(self, key: tuple[int, int, int], item: Any) -> None:
        src, dst, tag = key
        if dst == self.rank:
            Transport._deliver(self, key, item)
            return
        if isinstance(item, _Envelope):
            wire = ("env", item.seq, item.checksum,
                    _ship(item.payload, self))
        else:
            wire = ("raw", _ship(item, self))
        self.inboxes[dst].put(("msg", self.epoch, src, dst, tag, wire))

    # -- repair plumbing -----------------------------------------------------
    def wait_repaired(self, epoch: int,
                      timeout: float) -> tuple:
        """Block until the parent's repair notice for ``epoch`` lands."""
        deadline = time.monotonic() + timeout
        with self._notice_cond:
            while True:
                for notice in self._notices:
                    if notice[1] == epoch:
                        return notice
                if self._poisoned:
                    raise TransportPoisonedError(
                        f"transport poisoned during repair: "
                        f"{self._poison_reason or 'job aborted'}")
                if time.monotonic() > deadline:
                    raise OnlineRecoveryError(
                        f"rank {self.rank}: repair epoch {epoch} "
                        f"notice timed out")
                self._notice_cond.wait(0.2)

    def advance_epoch(self, epoch: int, record: RepairRecord) -> None:
        """Roll this rank's fabric view onto a repaired epoch."""
        with self._epoch_lock:
            self.epoch = epoch
            self.drain_boxes()
            ready = [it for it in self._future if it[1] == epoch]
            self._future = [it for it in self._future if it[1] > epoch]
            for it in ready:
                _, _, src, dst, tag, wire = it
                self._deliver_local((src, dst, tag), wire)
        for shard in self._shards:
            with shard.lock:
                shard.send_seq.clear()
                shard.recv_seq.clear()
        self.repairs.append(record)
        self.revive_all()


# -- per-process communicator -------------------------------------------------

class ProcComm(Comm):
    """Communicator whose sync primitives run over the message fabric.

    The thread backend synchronizes through one shared
    :class:`_Barrier` object and a shared collective buffer; neither
    exists across address spaces, so both are rebuilt as rank-0-rooted
    message exchanges over reserved control tags.  Contributions are
    assembled in rank order on rank 0 and the *same list object
    layout* is broadcast, which keeps every reduction bit-identical to
    the thread backend's rank-ordered combine.
    """

    def __init__(self, rank: int, shared: _Shared,
                 replay_info: ReplayInfo | None = None):
        super().__init__(rank, shared, replay_info=replay_info)
        self._sync_gen = 0

    # -- barrier -------------------------------------------------------------
    def _barrier_wait(self) -> None:
        n = self._shared.nprocs
        if n == 1:
            return
        tp = self.transport
        gen = self._sync_gen
        self._sync_gen += 1
        if self.rank != 0:
            tp.post(self.rank, 0, SYNC_TAG, ("bar", gen, self.rank), 0,
                    control=True)
            msg = tp.fetch(0, self.rank, SYNC_TAG, control=True,
                           sensitive=True)
            if msg[0] != "go" or msg[1] != gen:
                raise OnlineRecoveryError(
                    f"rank {self.rank}: barrier desync "
                    f"(got {msg!r}, expected generation {gen})")
            return
        for r in range(1, n):
            msg = tp.fetch(r, 0, SYNC_TAG, control=True, sensitive=True)
            if msg[0] != "bar" or msg[1] != gen:
                raise OnlineRecoveryError(
                    f"rank 0: barrier desync from rank {r} "
                    f"(got {msg!r}, expected generation {gen})")
        for r in range(1, n):
            tp.post(0, r, SYNC_TAG, ("go", gen), 0, control=True)

    # -- collectives ---------------------------------------------------------
    def _allgather_raw(self, value: Any) -> list:
        tp = self.transport
        if self._replay_active:
            index = self._coll_index
            self._coll_index += 1
            return tp.coll_get(0, self._step, index)
        index = None
        if tp.online and self._step is not None:
            index = self._coll_index
            self._coll_index += 1
        n = self._shared.nprocs
        if n == 1:
            result = [value]
            if index is not None:
                tp.coll_put(0, self._step, index, result)
            return result
        if self.rank != 0:
            tp.post(self.rank, 0, COLL_TAG,
                    ("coll", self._sync_gen, value), 0, control=True)
            msg = tp.fetch(0, self.rank, COLL_TAG, control=True,
                           sensitive=True)
            if msg[0] != "collr":
                raise OnlineRecoveryError(
                    f"rank {self.rank}: collective desync ({msg[0]!r})")
            self._sync_gen += 1
            return list(msg[2])
        vals: list = [None] * n
        vals[0] = value
        for r in range(1, n):
            msg = tp.fetch(r, 0, COLL_TAG, control=True, sensitive=True)
            if msg[0] != "coll" or msg[1] != self._sync_gen:
                raise OnlineRecoveryError(
                    f"rank 0: collective desync from rank {r} "
                    f"(got {msg[0]!r} gen {msg[1]})")
            vals[r] = msg[2]
        for r in range(1, n):
            tp.post(0, r, COLL_TAG, ("collr", self._sync_gen, vals), 0,
                    control=True)
        self._sync_gen += 1
        if index is not None:
            tp.coll_put(0, self._step, index, vals)
        return vals

    # -- unsupported shapes --------------------------------------------------
    def split(self, color: int, key: int | None = None) -> "Comm":
        raise BackendError(
            "comm.split is not supported by the process backend yet "
            "(sub-communicators share per-color state); run this job "
            "with backend='thread'")

    # -- repair --------------------------------------------------------------
    def repair(self, *, resume_step: int, rollback_step: int,
               mode: str | None = None,
               is_neighbor: bool = False) -> RepairRecord:
        tp: ProcTransport = self.transport
        sh = self._shared
        dead = tp.dead_ranks()
        if not dead:
            raise OnlineRecoveryError("repair called with no dead rank")
        if mode is None:
            mode = "respawn" if len(sh.spares) >= len(dead) else "shrink"
        if mode != "respawn":
            raise BackendError(
                f"process backend supports online repair mode "
                f"'respawn' only, not {mode!r} (shrink renumbering "
                f"requires shared survivor state)")
        epoch = sh.epoch + 1
        tp.parent_q.put(("join", tp.rank, epoch, resume_step,
                         rollback_step, is_neighbor))
        notice = tp.wait_repaired(epoch, sh.timeout)
        record: RepairRecord = notice[2]
        spares_left: int = notice[3]
        tp.advance_epoch(epoch, record)
        sh.epoch = epoch
        sh.spares = list(range(spares_left))
        self._coll_index = 0
        self._sync_gen = 0
        if tp.tracer.enabled:
            tp.tracer.instant(tp.rank, "comm-repair", CAT_HEALTH,
                              {"epoch": epoch, "mode": mode,
                               "dead": list(record.dead),
                               "resume_step": resume_step,
                               "rollback_step": rollback_step})
        return record


# -- worker process -----------------------------------------------------------

@dataclass
class _WorkerConfig:
    """What one rank process needs besides its function and arguments;
    pickled together with them into the rank's program segment."""

    nprocs: int
    timeout: float
    zero_copy: bool
    sanitize: bool
    online: bool
    log_limit: int
    spares_left: int
    shm_prefix: str
    epoch: int = 0
    injector: Any = None
    replay: ReplayInfo | None = None
    #: spool directory of a traced job; None when tracing is off
    trace_dir: str | None = None
    trace_epoch: float = 0.0
    clocks: Any = None
    advance_clocks: bool = False


def _collect_fn_state(fn: Callable) -> dict:
    """Mergeable side-state the rank function accumulated locally.

    Driver rank mains expose their resilience collaborators as
    attributes (``checkpoint``, ``policy``, ``health``); whatever of
    those exists is snapshotted into the exit report so the parent can
    fold per-process ledgers back into the caller's objects.
    """
    state: dict = {}
    ck = getattr(fn, "checkpoint", None)
    if ck is not None and hasattr(ck, "load_counts"):
        state["ckpt_loads"] = dict(ck.load_counts)
    pol = getattr(fn, "policy", None)
    if pol is not None and hasattr(pol, "events"):
        state["policy_events"] = list(pol.events)
    health = getattr(fn, "health", None)
    log = getattr(health, "log", None)
    if log is not None and hasattr(log, "records"):
        state["health_records"] = list(log.records)
    return state


def _build_report(tp: ProcTransport, fn: Callable,
                  tracer: Tracer | None) -> dict:
    report = {
        "messages": list(tp.messages),
        "collectives": list(tp.collectives),
        "buffers": tp.buffers,
        "pool": tp.pool.stats(),
        "borrow_log": dict(tp.borrow_log),
        "fn_state": _collect_fn_state(fn),
        "trace_path": None,
        "clocks_t": None,
        "body_seconds": None,
    }
    inj = tp.injector
    if inj is not None:
        report["injector"] = {
            "records": list(inj.records),
            "sdc_records": list(inj.sdc_records),
            "crash_fired": inj._crash_fired,
            "kill_fired": inj._kill_fired,
            "sdc_fired": set(inj._sdc_fired),
            "ckpt_fired": set(inj._ckpt_fired),
        }
    if tracer is not None:
        path = Path(tracer._spool_path)
        with open(path, "w", encoding="utf-8") as fh:
            for ev in tracer.events():
                fh.write(json.dumps(ev.to_jsonable()) + "\n")
        report["trace_path"] = str(path)
        if tracer.clocks is not None:
            report["clocks_t"] = [float(x) for x in tracer.clocks._t]
    return report


def _flush_and_exit(parent_q, code: int) -> None:
    """Push queued bytes to the pipe, then hard-exit (kill path)."""
    try:
        parent_q.close()
        parent_q.join_thread()
    except Exception:  # pragma: no cover - interpreter shutting down
        pass
    os._exit(code)


def _worker_main(rank: int, program: str, inboxes: list,
                 parent_q) -> None:
    """Entry point of one rank process (spawn start method)."""
    fn, extra, cfg = _read_program(program)
    tp = ProcTransport(rank, cfg.nprocs, inboxes, parent_q,
                       shm_prefix=cfg.shm_prefix, epoch=cfg.epoch,
                       timeout=cfg.timeout, injector=cfg.injector,
                       zero_copy=cfg.zero_copy, sanitize=cfg.sanitize)
    tp.log_limit = cfg.log_limit
    if cfg.online:
        tp.enable_online()
    tracer = None
    if cfg.trace_dir is not None:
        tracer = Tracer(cfg.nprocs, clocks=cfg.clocks,
                        advance_clocks=cfg.advance_clocks)
        # perf_counter is CLOCK_MONOTONIC on Linux — one timebase
        # across processes, so worker events merge onto the parent's
        # timeline without skew correction.
        tracer.epoch = cfg.trace_epoch
        # pid-qualified so a replacement's spool never clobbers the
        # spool its predecessor flushed while dying
        tracer._spool_path = os.path.join(
            cfg.trace_dir, f"rank{rank:05d}.{os.getpid()}.jsonl")
        tp.tracer = tracer
    if cfg.injector is not None:
        cfg.injector.tracer = tp.tracer
    ck = getattr(fn, "checkpoint", None)
    if ck is not None:
        ck.tracer = tp.tracer
        if getattr(ck, "injector", None) is None:
            ck.injector = cfg.injector
    tp.start_pump()
    shared = _Shared.create(cfg.nprocs, tp, cfg.timeout)
    shared.epoch = cfg.epoch
    shared.spares = list(range(cfg.spares_left))
    comm = ProcComm(rank, shared, replay_info=cfg.replay)
    try:
        t_body = time.perf_counter()
        result = fn(comm, *extra)
        t_body = time.perf_counter() - t_body
        report = _build_report(tp, fn, tracer)
        # Kernel-path wall time: the rank program, excluding this
        # rank's own spawn and imports (not waits on slower peers).
        report["body_seconds"] = t_body
        try:
            pickle.dumps(result)
        except Exception as exc:
            result = None
            parent_q.put(("error", rank, BackendError(
                f"rank {rank} returned an unpicklable result: "
                f"{exc!r}"), report))
            return
        parent_q.put(("exit", rank, result, report))
    except RankKilledError as exc:
        # Fail-stop: report, flush, and die like a real lost process —
        # no graceful teardown, the parent and survivors must recover.
        # The pump is stopped first so the inbox reader lock is released
        # before os._exit; the replacement reuses this inbox.
        report = _build_report(tp, fn, tracer)
        tp.stop_pump()
        parent_q.put(("dying", rank, exc.step, report))
        _flush_and_exit(parent_q, KILLED_EXIT)
    except BaseException as exc:  # noqa: BLE001 - shipped to parent
        report = _build_report(tp, fn, tracer)
        try:
            pickle.dumps(exc)
        except Exception:
            exc = RuntimeError(repr(exc))
        parent_q.put(("error", rank, exc, report))
    finally:
        tp.stop_pump()


# -- parent-side supervisor ---------------------------------------------------

def _merge_report(job, fn: Callable, report: dict) -> None:
    """Fold one rank's local ledgers into the parent-side objects."""
    tp = job.transport
    with tp._rec_lock:
        tp.messages.extend(report["messages"])
        tp.collectives.extend(report["collectives"])
    tp.buffers.borrows += report["buffers"].borrows
    tp.buffers.copies += report["buffers"].copies
    tp.buffers.copy_bytes += report["buffers"].copy_bytes
    pool = report.get("pool") or {}
    for key in ("hits", "misses", "returns", "drops"):
        setattr(tp.pool, key,
                getattr(tp.pool, key) + int(pool.get(key, 0)))
    tp.borrow_log.update(report.get("borrow_log") or {})
    inj_state = report.get("injector")
    if inj_state is not None and tp.injector is not None:
        inj = tp.injector
        inj.records.extend(inj_state["records"])
        inj.sdc_records.extend(inj_state["sdc_records"])
        inj._crash_fired = inj._crash_fired or inj_state["crash_fired"]
        inj._kill_fired = inj._kill_fired or inj_state["kill_fired"]
        inj._sdc_fired |= inj_state["sdc_fired"]
        inj._ckpt_fired |= inj_state["ckpt_fired"]
    fn_state = report.get("fn_state") or {}
    ck = getattr(fn, "checkpoint", None)
    if ck is not None and "ckpt_loads" in fn_state:
        for rank, count in fn_state["ckpt_loads"].items():
            ck.load_counts[rank] = ck.load_counts.get(rank, 0) + count
    pol = getattr(fn, "policy", None)
    if pol is not None and "policy_events" in fn_state:
        pol.events.extend(fn_state["policy_events"])
    health = getattr(fn, "health", None)
    log = getattr(health, "log", None)
    if log is not None and "health_records" in fn_state:
        for rec in fn_state["health_records"]:
            log.append(rec)
    if report.get("clocks_t") is not None:
        tracer = tp.tracer
        if tracer.enabled and tracer.clocks is not None:
            with tracer.clocks._lock:
                tracer.clocks._t = np.maximum(
                    tracer.clocks._t, np.asarray(report["clocks_t"]))


def _merge_trace(job, trace_paths: list[str]) -> None:
    """Replay per-process JSONL spools into the parent tracer.

    Events keep their worker-stamped wall/virtual times (one monotonic
    timebase across processes) and are re-sequenced per rank so the
    merged stream stays deterministically ordered.  Spools are merged
    in arrival order, so a killed rank's pre-death events precede its
    replacement's.
    """
    tracer = job.transport.tracer
    if not tracer.enabled:
        return
    for path in trace_paths:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError:  # pragma: no cover - dead rank never flushed
            continue
        for line in lines:
            if not line.strip():
                continue
            d = json.loads(line)
            r = d["rank"]
            with tracer._locks[r]:
                seq = tracer._seq[r]
                tracer._seq[r] = seq + 1
                tracer._buffers[r].append(TraceEvent(
                    d["name"], d["cat"], d["ph"], r, seq,
                    d["t_wall"], d.get("dur", 0.0),
                    d.get("t_virtual"), d.get("args", {})))


def _broadcast(inboxes, ranks, item) -> None:
    for r in ranks:
        try:
            inboxes[r].put(item)
        except (OSError, ValueError):  # pragma: no cover - closed queue
            pass


def run_process_job(job, fn: Callable, args: tuple,
                    rank_args: Sequence[tuple] | None) -> list:
    """Execute one SPMD program on OS-process ranks (parent side).

    Mirrors :meth:`ParallelJob.run`'s result/error contract exactly:
    per-rank results in rank order, repaired kills forgiven, root-cause
    errors preferred over collateral unwinds, sanitizer hints attached.
    """
    import multiprocessing as mp

    nprocs = job.nprocs
    tp = job.transport
    tp.clear_poison()
    tp.revive_all()

    ctx = mp.get_context("spawn")
    inboxes = [ctx.Queue() for _ in range(nprocs)]
    parent_q = ctx.Queue()
    shm_prefix = f"repro{uuid.uuid4().hex[:12]}"
    program_ids = itertools.count()
    trace_dir = None
    if tp.tracer.enabled:
        trace_dir = tempfile.mkdtemp(prefix="repro-trace-")

    # `python - <<EOF` and REPL parents carry a pseudo-path __main__
    # (`__file__ == '<stdin>'`, no spec); spawn's bootstrap would try
    # to re-run that path as a real file in the child and crash before
    # reaching _worker_main.  Such a main module can never contribute
    # picklable rank functions anyway, so hide it while workers can be
    # spawned (initial fan-out and any mid-run respawn).
    main_mod = sys.modules.get("__main__")
    main_file = getattr(main_mod, "__file__", None)
    hide_main = (main_file is not None
                 and getattr(main_mod, "__spec__", None) is None
                 and not os.path.exists(main_file))
    if hide_main:
        del main_mod.__file__

    def stage(rank: int, epoch: int, spares_left: int,
              replay: ReplayInfo | None) -> str:
        """Write one rank's program to a new segment; return its name.

        ``fn`` and the config share the injector and the checkpointer;
        one pickle keeps each of them one object in the rank.  A
        replacement is pickled when it is respawned, so it sees the
        parent's merged state (an injector whose kill already fired).
        """
        tracer = tp.tracer
        cfg = _WorkerConfig(
            nprocs=nprocs, timeout=tp.timeout, zero_copy=tp.zero_copy,
            sanitize=tp.sanitize, online=tp.online,
            log_limit=tp.log_limit, spares_left=spares_left,
            shm_prefix=shm_prefix, epoch=epoch, injector=tp.injector,
            replay=replay, trace_dir=trace_dir,
            trace_epoch=getattr(tracer, "epoch", 0.0),
            clocks=getattr(tracer, "clocks", None),
            advance_clocks=getattr(tracer, "advance_clocks", False))
        extra = rank_args[rank] if rank_args is not None else args
        name = f"{shm_prefix}p{next(program_ids)}"
        _write_program(name, (fn, extra, cfg))
        return name

    def launch(rank: int, program: str):
        p = ctx.Process(
            target=_worker_main,
            args=(rank, program, inboxes, parent_q),
            name=f"repro-rank{rank}", daemon=True)
        with _blas_threads(nprocs):
            p.start()
        return p

    spares_left = job.spares
    procs: dict = {}
    live = set(range(nprocs))
    results: list = [None] * nprocs
    errors: list = [None] * nprocs
    reported: set = set()
    dead_now: set = set()
    suspect_since: dict[int, float] = {}
    joins: dict[int, dict[int, tuple]] = {}
    trace_paths: list[str] = []

    def note_death(rank: int, step, reason: str) -> None:
        dead_now.add(rank)
        live.discard(rank)
        tp.mark_dead(rank, step=step, reason=reason)
        _broadcast(inboxes, live, ("dead", rank, step, reason))

    def take_report(rank: int, report: dict) -> None:
        reported.add(rank)
        _merge_report(job, fn, report)
        if report.get("body_seconds") is not None:
            tp.body_seconds[rank] = report["body_seconds"]
        if report.get("trace_path"):
            trace_paths.append(report["trace_path"])

    def fail_job(reason: str) -> None:
        tp.poison(reason)
        _broadcast(inboxes, live, ("poison", reason))

    def do_repair(repair_epoch: int) -> None:
        nonlocal spares_left
        pending = joins.get(repair_epoch, {})
        agreed = {(resume, rollback)
                  for (resume, rollback, _nb) in pending.values()}
        if len(agreed) != 1:
            fail_job(f"repair epoch {repair_epoch}: survivors disagree "
                     f"on the resume point: {sorted(agreed)}")
            return
        (resume, rollback), = agreed
        if resume != rollback:
            # The dead rank's receive cursors died with its process:
            # cross-address-space replay catch-up is impossible.
            fail_job(
                f"process backend requires checkpoint-aligned online "
                f"recovery (rollback step {rollback} != resume step "
                f"{resume}); checkpoint every step or use "
                f"backend='thread'")
            return
        lost = tuple(sorted(dead_now))
        if spares_left < len(lost):
            fail_job(f"repair epoch {repair_epoch}: {len(lost)} dead "
                     f"ranks but only {spares_left} spares")
            return
        t0 = time.perf_counter()
        survivors = tuple(sorted(live))
        neighbors = {r for r, (_, _, nb) in pending.items() if nb}
        detect = max((tp.detector.latency(d) for d in lost),
                     default=0.0)
        record = RepairRecord(
            epoch=repair_epoch, mode="respawn", dead=lost,
            survivors=survivors, replacements=lost,
            rolled_back=tuple(sorted(set(lost) | neighbors)),
            resume_step=resume, rollback_step=rollback,
            detect_latency=detect,
            repair_seconds=time.perf_counter() - t0)
        tp.repairs.append(record)
        spares_left -= len(lost)
        tp.revive_all()
        for d in lost:
            errors[d] = errors[d] or RankKilledError(d, resume)
            replay = ReplayInfo(d, rollback, resume, {})
            procs[d] = launch(d, stage(d, repair_epoch, spares_left,
                                       replay))
            live.add(d)
            reported.discard(d)
            suspect_since.pop(d, None)
        dead_now.clear()
        _broadcast(inboxes, survivors,
                   ("repaired", repair_epoch, record, spares_left))

    try:
        # Every initial pickle is made before the first start: a rank
        # program that cannot pickle fails here, before any process runs.
        programs = [stage(r, 0, spares_left, None) for r in range(nprocs)]
        for r, program in enumerate(programs):
            procs[r] = launch(r, program)
        deadline = time.monotonic() + job.join_timeout
        while live:
            try:
                item = parent_q.get(timeout=0.2)
            except queue_mod.Empty:
                now = time.monotonic()
                for rank in sorted(live):
                    p = procs[rank]
                    if p.is_alive() or rank in reported:
                        suspect_since.pop(rank, None)
                        continue
                    first = suspect_since.setdefault(rank, now)
                    if now - first >= _SENTINEL_GRACE:
                        # Died without a last word (SIGKILL, hard
                        # crash): treat as a fail-stop loss, same as an
                        # injected kill — survivors repair or the error
                        # surfaces.
                        suspect_since.pop(rank, None)
                        reported.add(rank)
                        errors[rank] = RankKilledError(rank, -1)
                        note_death(rank, None,
                                   f"process exited (code {p.exitcode})")
                if now >= deadline:
                    fail_job("job join timeout")
                    break
                continue
            kind = item[0]
            if kind == "exit":
                _, rank, result, report = item
                results[rank] = result
                take_report(rank, report)
                live.discard(rank)
            elif kind == "dying":
                _, rank, step, report = item
                errors[rank] = RankKilledError(rank, step)
                take_report(rank, report)
                note_death(rank, step, "injected kill")
            elif kind == "error":
                _, rank, exc, report = item
                errors[rank] = exc
                take_report(rank, report)
                live.discard(rank)
                fail_job(f"rank {rank} failed: {exc!r}")
            elif kind == "join":
                _, rank, repair_epoch, resume, rollback, nb = item
                joins.setdefault(repair_epoch, {})[rank] = \
                    (resume, rollback, nb)
                if set(joins[repair_epoch]) == live and dead_now:
                    do_repair(repair_epoch)
    except BaseException as exc:
        # The parent itself failed (a start that raised, an unpicklable
        # replacement, an interrupt): unwind every rank already running.
        if procs:
            fail_job(f"job aborted in the parent: {exc!r}")
        raise
    finally:
        if hide_main:
            main_mod.__file__ = main_file
        for p in procs.values():
            p.join(timeout=5.0)
        stragglers = [p for p in procs.values() if p.is_alive()]
        for p in stragglers:
            p.terminate()
            p.join(timeout=2.0)
        for q in [*inboxes, parent_q]:
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:  # pragma: no cover - already closed
                pass
        _merge_trace(job, trace_paths)
        _sweep_segments(shm_prefix)

    # -- error reporting (mirrors ParallelJob.run) ---------------------------
    from .sanitize import enrich_readonly_error
    repaired: set = set()
    for rec in tp.repairs:
        repaired.update(rec.dead)
    failed = [(r, e) for r, e in enumerate(errors)
              if e is not None
              and not (isinstance(e, RankKilledError) and r in repaired)]
    root = [(r, e) for r, e in failed
            if not isinstance(e, (TransportPoisonedError,
                                  RankFailedError,
                                  CommRevokedError,
                                  OnlineRecoveryError))]
    for rank, err in root or failed:
        if tp.sanitize:
            hint = enrich_readonly_error(err, tp.borrow_log.values())
            if hint is not None:
                raise RuntimeError(
                    f"rank {rank} failed: {hint}") from err
        raise RuntimeError(f"rank {rank} failed: {err!r}") from err
    if stragglers:
        raise TimeoutError(f"{len(stragglers)} ranks failed to finish")
    return results
