"""Per-layer ledger of one traced job.

The traced run attaches the program's own :class:`repro.obs.tracer.Tracer`
(phase, send/recv, barrier and collective spans, merged across rank
processes) and wraps the public entry points the tracer does not span.
A wrapper records ``(layer, start, end, thread)`` and counts work; it
never changes arguments or results.

Rank processes of the process backend re-import every module, so the
wrappers are installed again inside each rank by :func:`install_rank_hook`
(run when ``perfbench/run.py`` is imported as ``__mp_main__``) and each
rank leaves its tallies in a JSON file the parent reads after the job.
Timed runs install nothing but the exit report of each rank's peak RSS.

Closure: the traced job's wall interval is split among the spans of the
job's own thread and of the critical rank's thread (its program ends last), the
innermost span owning each instant (:func:`stats.exclusive_times`).
What no span covers is ``layers.unattributed_s``.
"""

from __future__ import annotations

import functools
import json
import os
import re
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from . import stats

#: directory where rank processes leave their exit reports
RANK_DIR_ENV = "PERFBENCH_RANK_DIR"
#: "1" while a traced job runs: rank processes install the wrappers
LEDGER_ENV = "PERFBENCH_LEDGER"

#: self-time buckets of the closure, in report order
TIME_LAYERS = (
    "apps.busy_s", "apps.other_s",
    "comm.collective_s", "comm.barrier_s", "comm.p2p_s",
    "transport.post_s", "transport.fetch_s",
    "buffers.busy_s",
    "process_backend.spawn_s", "process_backend.teardown_s",
    "process_backend.shm_s", "process_backend.queue_put_s",
    "checkpoint.save_s", "health.check_s",
    "analysis.load_s", "analysis.report_s", "analysis.races_s",
    "analysis.deadlocks_s", "analysis.commcheck_s",
)
UNATTRIBUTED = "layers.unattributed_s"

#: tracer phase/region names that are an app's compute work
COMPUTE_SPANS = frozenset({"collision", "stream",     # LBMHD
                           "evolve", "rhs"})           # Cactus
COLLECTIVE_SPANS = frozenset({"allreduce", "alltoall", "allgather",
                              "bcast", "gather"})

_RANK_NAME = re.compile(r"^repro-rank(\d+)$")


def tracer_layer(name: str, cat: str) -> str:
    """Closure bucket of one program tracer span."""
    if cat in ("phase", "region"):
        return "apps.busy_s" if name in COMPUTE_SPANS else "apps.other_s"
    if cat == "sync":
        return "comm.barrier_s"
    if name in COLLECTIVE_SPANS:
        return "comm.collective_s"
    return "comm.p2p_s"


def _array_bytes(obj: Any) -> int:
    """Bytes of the ndarray leaves of a payload (what a log copy copies)."""
    nbytes = getattr(obj, "nbytes", None)
    if isinstance(nbytes, int) and hasattr(obj, "dtype"):
        return nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(x) for x in obj)
    if isinstance(obj, dict):
        return sum(_array_bytes(v) for v in obj.values())
    return 0


def _owner(cls: type, name: str) -> type:
    for klass in cls.__mro__:
        if name in klass.__dict__:
            return klass
    raise AttributeError(f"{cls.__name__} has no {name}")


class Ledger:
    """Spans and counters recorded by the wrappers in one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = {}
        #: thread ident -> (rank, time its communicator was created)
        self.comms: dict[int, tuple[int, float]] = {}
        #: rank -> when the parent began starting its process
        self.starts: dict[int, float] = {}
        self._lock = threading.Lock()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------
    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + n

    def _span(self, layer: str, t0: float) -> None:
        self.spans.append((layer, t0, perf_counter(),
                           threading.get_ident()))

    def spanned(self, layer: str, counter: str | None = None
                ) -> Callable[[Callable], Callable]:
        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if counter is not None:
                    self.count(counter)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._span(layer, t0)
            return wrapper
        return make

    # -- installation ---------------------------------------------------------
    def _patch(self, owner: Any, name: str,
               make: Callable[[Callable], Callable]) -> None:
        if isinstance(owner, type):
            owner = _owner(owner, name)
            orig = owner.__dict__[name]
        else:
            orig = getattr(owner, name)
        self._undo.append((owner, name, orig))
        setattr(owner, name, make(orig))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    def install_rank_layers(self) -> None:
        """Wrap the layers a rank program runs through."""
        import multiprocessing.connection as mp_connection
        import multiprocessing.queues as mp_queues
        import multiprocessing.shared_memory as mp_shm

        from repro.apps.lbmhd import fused
        from repro.resilience import checkpoint, health
        from repro.runtime import buffers, comm, process_backend, transport

        led = self
        self._patch(fused.FusedStepper, "collide",
                    self.spanned("apps.busy_s"))
        self._patch(fused.FusedStepper, "stream_halo",
                    self.spanned("apps.busy_s"))
        # comm bound borrow at import time: wrap both names.
        for mod in (buffers, comm):
            self._patch(mod, "borrow", self.spanned("buffers.busy_s"))
        self._patch(buffers.BufferPool, "take",
                    self.spanned("buffers.busy_s"))
        self._patch(buffers.BufferPool, "give",
                    self.spanned("buffers.busy_s"))

        def wrap_post(fn):
            @functools.wraps(fn)
            def post(tp, src, dst, tag, payload, nbytes, *,
                     onesided=False, control=False):
                if control:     # sync traffic: part of the comm op
                    return fn(tp, src, dst, tag, payload, nbytes,
                              onesided=onesided, control=True)
                if tp.online:
                    led.count("transport.replay_log_bytes",
                              _array_bytes(payload))
                t0 = perf_counter()
                try:
                    return fn(tp, src, dst, tag, payload, nbytes,
                              onesided=onesided)
                finally:
                    led._span("transport.post_s", t0)
            return post

        def wrap_fetch(fn):
            @functools.wraps(fn)
            def fetch(tp, *args, **kwargs):
                if kwargs.get("control"):
                    return fn(tp, *args, **kwargs)
                t0 = perf_counter()
                try:
                    return fn(tp, *args, **kwargs)
                finally:
                    led._span("transport.fetch_s", t0)
            return fetch

        def wrap_coll_put(fn):
            @functools.wraps(fn)
            def coll_put(tp, rank, step, index, value):
                led.count("transport.replay_log_bytes", _array_bytes(value))
                return fn(tp, rank, step, index, value)
            return coll_put

        self._patch(transport.Transport, "post", wrap_post)
        self._patch(transport.Transport, "fetch", wrap_fetch)
        self._patch(process_backend.ProcTransport, "fetch", wrap_fetch)
        self._patch(transport.Transport, "coll_put", wrap_coll_put)

        def wrap_comm_init(fn):
            @functools.wraps(fn)
            def init(c, rank, *args, **kwargs):
                fn(c, rank, *args, **kwargs)
                led.comms[threading.get_ident()] = (rank, perf_counter())
            return init

        self._patch(comm.Comm, "__init__", wrap_comm_init)

        def wrap_shm_init(fn):
            @functools.wraps(fn)
            def init(seg, name=None, create=False, size=0):
                t0 = perf_counter()
                try:
                    fn(seg, name=name, create=create, size=size)
                finally:
                    led._span("process_backend.shm_s", t0)
                if create:
                    led.count("process_backend.shm_segments")
                    led.count("process_backend.shm_bytes", size)
            return init

        self._patch(mp_shm.SharedMemory, "__init__", wrap_shm_init)
        for name in ("close", "unlink"):
            self._patch(mp_shm.SharedMemory, name,
                        self.spanned("process_backend.shm_s"))
        self._patch(mp_queues.Queue, "put",
                    self.spanned("process_backend.queue_put_s",
                                 "process_backend.queue_items"))

        def wrap_send_bytes(fn):
            # Runs on the queue feeder thread: counted, not timed.
            @functools.wraps(fn)
            def send_bytes(conn, buf, offset=0, size=None):
                n = memoryview(buf).nbytes - offset if size is None else size
                led.count("process_backend.queue_bytes", n)
                return fn(conn, buf, offset, size)
            return send_bytes

        self._patch(mp_connection.Connection, "send_bytes", wrap_send_bytes)

        def wrap_save(fn):
            @functools.wraps(fn)
            def save(ck, *args, **kwargs):
                t0 = perf_counter()
                try:
                    path = fn(ck, *args, **kwargs)
                finally:
                    led._span("checkpoint.save_s", t0)
                led.count("checkpoint.saves")
                led.count("checkpoint.bytes", path.stat().st_size)
                return path
            return save

        self._patch(checkpoint.Checkpointer, "save", wrap_save)
        for name in ("check_conserved", "check_bounded", "check_monotone",
                     "check_absolute", "guard_finite"):
            self._patch(health.HealthMonitor, name,
                        self.spanned("health.check_s", "health.checks"))

    def install_parent_layers(self) -> None:
        """Wrap what the job's own thread runs: process start/join and
        the offline analyzers, plus every rank layer (thread backend)."""
        import multiprocessing.process as mp_process

        from repro.analysis import deadlock, racecheck, tracecheck
        from repro.obs import profile

        led = self
        self.install_rank_layers()

        def wrap_start(fn):
            @functools.wraps(fn)
            def start(proc):
                t0 = perf_counter()
                try:
                    return fn(proc)
                finally:
                    led._span("process_backend.spawn_s", t0)
                    m = _RANK_NAME.match(proc.name or "")
                    if m:
                        led.starts[int(m.group(1))] = t0
            return start

        self._patch(mp_process.BaseProcess, "start", wrap_start)
        self._patch(mp_process.BaseProcess, "join",
                    self.spanned("process_backend.teardown_s"))

        def loader(fn, *, is_parse: Callable[[Any], bool]):
            @functools.wraps(fn)
            def load(source, *args, **kwargs):
                if is_parse(source):
                    led.count("analysis.trace_loads")
                t0 = perf_counter()
                try:
                    return fn(source, *args, **kwargs)
                finally:
                    led._span("analysis.load_s", t0)
            return load

        def from_file(source: Any) -> bool:
            return isinstance(source, (str, Path))

        def not_a_doc(source: Any) -> bool:
            return not isinstance(source, dict)

        self._patch(profile, "load_activities",
                    functools.partial(loader, is_parse=from_file))
        for mod in (tracecheck, racecheck):   # racecheck imported it
            self._patch(mod, "load_trace",
                        functools.partial(loader, is_parse=not_a_doc))
        self._patch(profile, "build_report",
                    self.spanned("analysis.report_s"))
        self._patch(profile, "validate_report",
                    self.spanned("analysis.report_s"))
        self._patch(racecheck, "check_trace_races",
                    self.spanned("analysis.races_s"))
        self._patch(deadlock, "check_trace_deadlocks",
                    self.spanned("analysis.deadlocks_s"))
        self._patch(tracecheck, "check_trace",
                    self.spanned("analysis.commcheck_s"))

    # -- rank exit report -----------------------------------------------------
    def rank_export(self) -> dict[str, Any]:
        """This rank process's tallies: its own thread's spans in full,
        counters from every thread."""
        main = set(self.comms)
        rank, created = next(iter(self.comms.values()), (None, None))
        return {
            "rank": rank,
            "comm_created": created,
            "spans": [(layer, a, b) for layer, a, b, ident in self.spans
                      if ident in main],
            "counts": dict(self.counts),
        }


def install_rank_hook() -> None:
    """Arrange for this rank process to report at exit (spawned ranks).

    Always reports the process's own peak RSS; with :data:`LEDGER_ENV`
    set it also installs the wrappers and reports their tallies.
    """
    import multiprocessing.util as mp_util

    out_dir = os.environ.get(RANK_DIR_ENV)
    if not out_dir:
        return
    ledger = None
    if os.environ.get(LEDGER_ENV) == "1":
        ledger = Ledger()
        ledger.install_rank_layers()

    def report() -> None:
        doc: dict[str, Any] = {"pid": os.getpid(),
                               "vmhwm_kb": stats.vmhwm_kb()}
        if ledger is not None:
            doc.update(ledger.rank_export())
        path = Path(out_dir) / f"rank-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc))
        tmp.replace(path)

    mp_util.Finalize(None, report, exitpriority=1)


def collect_rank_reports(out_dir: Path) -> list[dict[str, Any]]:
    """Read and remove the exit reports rank processes left behind."""
    docs = []
    for path in sorted(out_dir.glob("rank-*.json")):
        docs.append(json.loads(path.read_text()))
        path.unlink()
    return docs


# -- one traced job's layer metrics -------------------------------------------

def closure(window: tuple[float, float], job_ident: int, ledger: Ledger,
            rank_reports: list[dict[str, Any]], tracer,
            body_seconds: dict[int, float]
            ) -> tuple[dict[str, float], float, float]:
    """Self time per layer on the job's closure timeline.

    The timeline is the job's own thread plus, while it waits, the
    thread of the critical rank — the one whose program ends last.  On
    the process backend, the interval from the first process start to
    the last rank having its communicator is spawn time on the job's
    level: every rank waits for it.  Returns ``(self_times,
    unattributed, closure_error)``.
    """
    t0, t1 = window
    spans = [stats.Span(UNATTRIBUTED, t0, t1, priority=0)]
    spans += [stats.Span(layer, a, b, priority=2)
              for layer, a, b, ident in ledger.spans if ident == job_ident]
    created = {rank: t for rank, t in ledger.comms.values()}
    by_rank = {rep["rank"]: rep for rep in rank_reports
               if rep.get("rank") is not None}
    created.update({r: rep["comm_created"] for r, rep in by_rank.items()})
    if ledger.starts and by_rank:
        spans.append(stats.Span("process_backend.spawn_s",
                                min(ledger.starts.values()),
                                max(created.values()), priority=2))
    ends = {r: created[r] + body_seconds[r]
            for r in body_seconds if r in created}
    if ends:
        crit = max(sorted(ends), key=lambda r: ends[r])
        if tracer is not None:
            for ev in tracer.events(crit):
                if ev.ph == "X":
                    a = tracer.epoch + ev.t_wall
                    spans.append(stats.Span(tracer_layer(ev.name, ev.cat),
                                            a, a + ev.dur, priority=1))
        threads = {ident for ident, (rank, _) in ledger.comms.items()
                   if rank == crit}
        spans += [stats.Span(layer, a, b, priority=1)
                  for layer, a, b, ident in ledger.spans if ident in threads]
        spans += [stats.Span(layer, a, b, priority=1)
                  for layer, a, b in by_rank.get(crit, {}).get("spans", [])]
    self_times, uncovered = stats.exclusive_times(spans, t0, t1)
    err = stats.closure_error(self_times, uncovered, t0, t1)
    unattributed = self_times.pop(UNATTRIBUTED, 0.0) + uncovered
    return self_times, unattributed, err


def merged_counts(ledger: Ledger, rank_reports: list[dict[str, Any]]
                  ) -> dict[str, float]:
    out = dict(ledger.counts)
    for rep in rank_reports:
        for key, n in rep.get("counts", {}).items():
            out[key] = out.get(key, 0) + n
    return out


def wait_seconds(tracer, body_seconds: dict[int, float]) -> float:
    """Time the critical rank spent inside recv and barrier spans."""
    if tracer is None or not body_seconds:
        return 0.0
    crit = max(sorted(body_seconds), key=lambda r: body_seconds[r])
    return sum(ev.dur for ev in tracer.events(crit)
               if ev.ph == "X" and ev.name in ("recv", "barrier"))
