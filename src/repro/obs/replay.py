"""Trace-replay core: one reader, one program order, one matcher.

The attribution profiler (:mod:`repro.obs.profile`) and the comm, race
and deadlock checkers (:mod:`repro.analysis`) replay recorded events
through this module.  :func:`load_trace` reads every trace file form;
:func:`spans` and :func:`events` turn any source into per-rank records
in ``seq`` (program) order, each classified once as a send, recv,
collective or buffer-epoch instant; :func:`match` pairs sends with
recvs per channel and groups collective rounds; :func:`replay` runs
those records through per-rank vector clocks to order them by
happens-before and to find the ranks left blocked.

:func:`load_trace` remembers the last file it parsed, keyed by resolved
path and a SHA-256 of the bytes, and that one entry also holds views of
its document, each built on first use: the records, the span-only view
over the same record objects, the matching and the replay.  So one
process parses, builds and replays an unchanged trace once however many
analyzers read it.  Records share the source's ``args``, no source is
ever mutated, and nothing a memoized trace hands out may be mutated:
every caller shares it.

It imports only the standard library and :mod:`.events`: every process
rank imports :mod:`repro.obs`, so this module rides along.
"""

from __future__ import annotations

import hashlib
import io
import json
import threading
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable

from .events import (CAT_BUFFER, CAT_COMM, CAT_SYNC, INSTANT, SPAN,
                     TRACE_US, TraceEvent)

#: collective span names emitted by Comm
COLLECTIVE_SPANS = ("barrier", "allreduce", "allgather", "alltoall",
                    "bcast", "gather")

#: event kinds, decided once per event at load
SEND = "send"
RECV = "recv"
COLLECTIVE = "collective"
EPOCH = "epoch"

#: a point-to-point channel: (src, dst, tag)
Channel = tuple[int, int, int]


class TraceError(RuntimeError):
    """A recorded trace could not be read or parsed.

    Raised instead of raw ``json``/``gzip`` exceptions so CLI and
    campaign layers can classify a bad trace input as a configuration
    error — and so a spool torn mid-record by a killed process rank
    produces a message naming the file and the failure mode instead of
    an anonymous ``JSONDecodeError``.
    """


def _decode(raw: bytes) -> str:
    """A file's bytes as text, read as ``open`` reads it (UTF-8,
    universal newlines), transparently gunzipping by magic number."""
    stream = io.BytesIO(raw)
    if raw[:2] == b"\x1f\x8b":
        import gzip
        import zlib
        try:
            with gzip.open(stream, "rt", encoding="utf-8") as fh:
                return fh.read()
        except zlib.error as exc:      # a corrupt deflate stream
            raise gzip.BadGzipFile(str(exc)) from exc
    return io.TextIOWrapper(stream, encoding="utf-8").read()


def _doc_from_jsonl(text: str, path: Path) -> dict[str, Any]:
    """Convert a flat ``events.jsonl`` log to a Chrome trace document.

    Each line is one :meth:`~repro.obs.events.TraceEvent.to_jsonable`
    record; ``rank`` becomes the Chrome ``tid`` and ``seq`` is folded
    into ``args`` exactly as :func:`repro.obs.export.chrome_trace`
    does, so both formats replay identically.
    """
    events: list[dict[str, Any]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(
                f"{path}: truncated or corrupt event log at line "
                f"{lineno} ({exc.msg}); a killed process rank tears its "
                f"spool mid-record — re-record the trace or drop the "
                f"torn tail") from exc
        rec: dict[str, Any] = {
            "name": d.get("name", ""), "cat": d.get("cat", ""),
            "ph": d.get("ph", "X"), "pid": 0, "tid": d.get("rank", 0),
            "ts": float(d.get("t_wall", 0.0)) * TRACE_US,
            "args": dict(d.get("args") or {}),
        }
        rec["args"].setdefault("seq", d.get("seq", 0))
        if d.get("t_virtual") is not None:
            rec["args"].setdefault("t_virtual", d["t_virtual"])
        if rec["ph"] == "X":
            rec["dur"] = float(d.get("dur", 0.0)) * TRACE_US
        events.append(rec)
    return {"traceEvents": events}


def _require_events(doc: Any, where: str) -> dict[str, Any]:
    """``doc`` itself, once it is a Chrome document with ``traceEvents``."""
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        raise TraceError(
            f"{where} has no 'traceEvents' key — expected a Chrome "
            f"trace_event document (repro trace writes one as "
            f"trace.json) or an events.jsonl log")
    return doc


class _Entry:
    """One parsed trace file: its document and the views built on it.

    A view is built on first use, under the entry's lock, at most once,
    and published only when complete, so a reader sees all of it or
    builds it.  The lock is re-entrant: the replay builds the records
    and the matching it needs on the same thread.
    """

    __slots__ = ("key", "doc", "_lock", "_views")

    def __init__(self, key: tuple[Path, bytes], doc: dict[str, Any]):
        self.key = key
        self.doc = doc
        self._lock = threading.RLock()
        self._views: dict[str, Any] = {}

    def _view(self, name: str, build: Callable[[], Any]) -> Any:
        view = self._views.get(name)
        if view is None:
            with self._lock:
                view = self._views.get(name)
                if view is None:
                    view = self._views[name] = build()
        return view

    def records(self) -> tuple[Trace, Trace]:
        """Every span and instant, and the span-only view of them."""
        return self._view("records", lambda: _record_views(self.doc))

    def matching(self) -> Matching:
        return self._view(
            "matching", lambda: match(self.records()[0].by_rank))

    def replay(self) -> ReplayResult:
        return self._view("replay", lambda: _replay(
            self.records()[0].by_rank, self.matching()))


#: the last trace file parsed, keyed by (resolved path, SHA-256 of bytes)
_memo: _Entry | None = None
_memo_lock = threading.Lock()


def load_trace(source: str | Path | dict[str, Any]) -> dict[str, Any]:
    """A Chrome trace document from a path or an already-loaded dict.

    Accepts plain and gzip-compressed files (detected by magic number,
    so any name works) in either the Chrome ``trace.json`` object
    format or the flat ``events.jsonl`` log format — the latter is
    converted to an equivalent Chrome document.  All read/parse
    failures, and a document without ``traceEvents``, surface as
    :class:`TraceError` naming the file.

    The file is hashed on every call, but parsed only when its resolved
    path or its bytes differ from the last file parsed: callers that
    load one unchanged trace share one document, which nothing may
    mutate.  A failed parse leaves the memo as it was.
    """
    if isinstance(source, dict):
        return _require_events(source, "trace object")
    return _load(Path(source)).doc


def _load(path: Path) -> _Entry:
    """The memo entry for the file at ``path``, parsed on a miss."""
    global _memo
    with _memo_lock:
        memo = _memo
    # Keyed by content, not mtime: a same-size rewrite within one
    # timestamp tick must not be served stale.
    try:
        with path.open("rb") as fh:
            resolved = path.resolve()
            if memo is not None and memo.key[0] == resolved:
                # Likely a hit: hash in chunks, holding no copy.
                sha = hashlib.sha256()
                for chunk in iter(lambda: fh.read(1 << 16), b""):
                    sha.update(chunk)
                if memo.key[1] == sha.digest():
                    return memo
                fh.seek(0)
            raw = fh.read()
    except FileNotFoundError as exc:
        raise TraceError(f"cannot read trace {path}: not found") from exc
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    # Key by the bytes parsed: the file may have changed since the hash.
    entry = _Entry((resolved, hashlib.sha256(raw).digest()),
                   _parse(raw, path))
    with _memo_lock:
        _memo = entry
    return entry


def _shared(source: Any) -> _Entry | None:
    """The memo entry of a path or of the memoized document, else None."""
    if isinstance(source, (str, Path)):
        return _load(Path(source))
    with _memo_lock:
        memo = _memo
    return memo if memo is not None and memo.doc is source else None


def _parse(raw: bytes, path: Path) -> dict[str, Any]:
    """The Chrome document in ``raw``, the bytes of the file ``path``."""
    try:
        text = _decode(raw)
    except (OSError, EOFError, UnicodeDecodeError) as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    name = path.name[:-3] if path.name.endswith(".gz") else path.name
    if name.endswith(".jsonl"):
        return _doc_from_jsonl(text, path)
    if not text.strip():
        raise TraceError(f"{path}: empty trace file")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) > 1 and all(ln.lstrip().startswith("{")
                                  for ln in lines[:8]):
            # A renamed JSONL log: every record is its own object.
            return _doc_from_jsonl(text, path)
        raise TraceError(
            f"{path}: truncated or corrupt trace (JSON parse failed at "
            f"line {exc.lineno}: {exc.msg}); spool files from killed "
            f"process ranks are often torn mid-record") from exc
    return _require_events(doc, str(path))


@dataclass(slots=True, eq=False)
class Event:
    """One span or instant in replay form, with its replayed clock."""

    rank: int
    seq: int                      # per-rank program order
    name: str
    cat: str
    ph: str
    kind: str | None              # SEND / RECV / COLLECTIVE / EPOCH / None
    args: dict[str, Any]          # shared with the source, never mutated
    start: float                  # seconds since the trace epoch
    dur: float                    # seconds (0 for instants)
    #: vector clock *after* this event executed; set by :func:`replay`,
    #: ``None`` until then or when the event never executed
    vc: list[int] | None = None
    #: collective round index (k-th occurrence of ``name`` on this rank)
    round_index: int = -1

    @property
    def site(self) -> str:
        return str(self.args.get("site", "<unknown site>"))


@dataclass
class Trace:
    """A source's events, grouped per rank in program order."""

    #: ranks named by ``thread_name`` metadata, else those with events
    ranks: list[int]
    by_rank: dict[int, list[Event]]


def _kind(ph: str, name: str, cat: str, args: dict[str, Any]) -> str | None:
    if ph == SPAN:
        if cat == CAT_COMM:
            if name == "send" and "dst" in args:
                return SEND
            if name == "recv" and "src" in args:
                return RECV
        if name in COLLECTIVE_SPANS and cat in (CAT_COMM, CAT_SYNC):
            return COLLECTIVE
    elif name == "buf-epoch" and cat == CAT_BUFFER:
        return EPOCH
    return None


def _records(source: Any, keep: tuple[str, ...]
             ) -> tuple[dict[int, list[Event]], set[int]]:
    """Per-rank records of the ``keep`` phases of ``source``, in
    ``seq`` order, and the ranks its ``thread_name`` metadata names."""
    by_rank: dict[int, list[Event]] = {}
    named: set[int] = set()
    if callable(getattr(source, "events", None)):       # a live Tracer
        source = source.events()
    if isinstance(source, (list, tuple)):
        for ev in source:
            if isinstance(ev, TraceEvent) and ev.ph in keep:
                by_rank.setdefault(ev.rank, []).append(Event(
                    ev.rank, ev.seq, ev.name, ev.cat, ev.ph,
                    _kind(ev.ph, ev.name, ev.cat, ev.args), ev.args,
                    ev.t_wall, ev.dur))
    elif isinstance(source, dict):
        fallback_seq: dict[int, int] = {}
        for e in load_trace(source)["traceEvents"]:
            ph = e.get("ph")
            if ph not in keep:
                if ph == "M" and e.get("name") == "thread_name":
                    named.add(int(e.get("tid", 0)))
                continue
            rank = int(e.get("tid", 0))
            args = e.get("args") or {}
            seq = args.get("seq")
            if seq is None:
                # Hand-written doc without seq: file order per rank.
                seq = fallback_seq.get(rank, 0)
                fallback_seq[rank] = seq + 1
            name, cat = e.get("name", ""), e.get("cat", "")
            by_rank.setdefault(rank, []).append(Event(
                rank, int(seq), name, cat, ph, _kind(ph, name, cat, args),
                args, float(e.get("ts", 0.0)) / TRACE_US,
                float(e.get("dur", 0.0)) / TRACE_US))
    else:
        raise TraceError(
            f"cannot replay a {type(source).__name__}; pass a Tracer, a "
            "Chrome trace dict, a trace.json/events.jsonl path, or a "
            "list of TraceEvents")
    for recs in by_rank.values():
        recs.sort(key=attrgetter("seq"))
    return by_rank, named


def _fresh(source: Any, keep: tuple[str, ...]) -> Trace:
    by_rank, named = _records(source, keep)
    return Trace(ranks=sorted(named or by_rank), by_rank=by_rank)


def _record_views(doc: dict[str, Any]) -> tuple[Trace, Trace]:
    """Every record of ``doc``, and its span-only view: the same record
    objects, so a span-only rank set and per-rank lists in ``seq``
    order, as :func:`spans` builds them."""
    by_rank, named = _records(doc, (SPAN, INSTANT))
    span_by_rank: dict[int, list[Event]] = {}
    for rank, recs in by_rank.items():
        kept = [rec for rec in recs if rec.ph == SPAN]
        if kept:
            span_by_rank[rank] = kept
    return (Trace(ranks=sorted(named or by_rank), by_rank=by_rank),
            Trace(ranks=sorted(named or span_by_rank),
                  by_rank=span_by_rank))


def spans(source: Any) -> Trace:
    """The span events of ``source``; instants are skipped unbuilt,
    except in the shared view of a memoized trace."""
    entry = _shared(source)
    if entry is not None:
        return entry.records()[1]
    return _fresh(source, (SPAN,))


def events(source: Any) -> Trace:
    """Every span and instant of ``source``.

    Instants carry the ``seq`` at emission and spans the ``seq`` at
    *exit*, so a ``publish`` instant precedes its ``send`` span and a
    ``read`` instant follows its ``recv`` span.
    """
    entry = _shared(source)
    if entry is not None:
        return entry.records()[0]
    return _fresh(source, (SPAN, INSTANT))


@dataclass
class Matching:
    """Cross-rank structure recovered from per-rank program order."""

    #: (channel, send, recv): FIFO pairs, channel by sorted channel
    pairs: list[tuple[Channel, Any, Any]]
    #: channel -> (sends, recvs) for every channel whose counts differ
    unmatched: dict[Channel, tuple[int, int]]
    #: (name, k) -> round k's participants, in rank order
    rounds: dict[tuple[str, int], list[Any]]
    #: name -> rank -> how many rounds of it that rank joined
    round_counts: dict[str, dict[int, int]]


def match(by_rank: dict[int, list[Any]]) -> Matching:
    """FIFO-match each channel and group collective rounds.

    ``by_rank`` holds each rank's records (anything with ``kind``,
    ``name`` and ``args``) in program order.  On each ``(src, dst,
    tag)`` channel the k-th send pairs with the k-th recv, the
    transport's delivery order.  Round k of a collective is its k-th
    occurrence on every rank (split sub-communicators would need ids).
    """
    sends: dict[Channel, list[Any]] = {}
    recvs: dict[Channel, list[Any]] = {}
    rounds: dict[tuple[str, int], list[Any]] = {}
    round_counts: dict[str, dict[int, int]] = {}
    for rank in sorted(by_rank):
        seen: dict[str, int] = {}
        for rec in by_rank[rank]:
            kind = rec.kind
            if kind == SEND:
                key = (rank, int(rec.args["dst"]), int(rec.args.get("tag", 0)))
                sends.setdefault(key, []).append(rec)
            elif kind == RECV:
                key = (int(rec.args["src"]), rank, int(rec.args.get("tag", 0)))
                recvs.setdefault(key, []).append(rec)
            elif kind == COLLECTIVE:
                k = seen.get(rec.name, 0)
                seen[rec.name] = k + 1
                rounds.setdefault((rec.name, k), []).append(rec)
        for name, n in seen.items():
            round_counts.setdefault(name, {})[rank] = n
    pairs: list[tuple[Channel, Any, Any]] = []
    unmatched: dict[Channel, tuple[int, int]] = {}
    for channel in sorted(sends.keys() | recvs.keys()):
        ss, rr = sends.get(channel, []), recvs.get(channel, [])
        pairs.extend((channel, s, r) for s, r in zip(ss, rr))
        if len(ss) != len(rr):
            unmatched[channel] = (len(ss), len(rr))
    return Matching(pairs=pairs, unmatched=unmatched, rounds=rounds,
                    round_counts=round_counts)


def _matched_spans(source: Any) -> tuple[Trace, Matching]:
    """The span view of ``source`` and its matching."""
    entry = _shared(source)
    if entry is not None:
        return entry.records()[1], entry.matching()
    trace = _fresh(source, (SPAN,))
    return trace, match(trace.by_rank)


# ---------------------------------------------------------------------------
# vector-clock replay
# ---------------------------------------------------------------------------

@dataclass
class ReplayResult:
    """Vector-clocked events plus end-of-trace progress state."""

    nranks: int
    by_rank: dict[int, list[Event]]
    #: rank -> the event it could not execute (empty for a complete trace)
    blocked: dict[int, Event] = field(default_factory=dict)
    #: rank -> (name, round) it is parked at, for blocked collectives
    parked: dict[int, tuple[str, int]] = field(default_factory=dict)
    #: (name, round) -> participating ranks
    rounds: dict[tuple[str, int], set[int]] = field(default_factory=dict)
    #: id(recv Event) -> matched send Event
    matched_send: dict[int, Event] = field(default_factory=dict)


def happens_before(a: Event, b: Event) -> bool:
    """True when ``a`` is ordered before ``b`` under the replayed VCs."""
    if a.vc is None or b.vc is None:
        return False
    return b.vc[a.rank] >= a.vc[a.rank]


def replay(source: Any) -> ReplayResult:
    """Replay a trace into vector clocks; detect end-of-trace blocking.

    The simulation advances each rank through its recorded events:
    local events and sends are always enabled; a recv is enabled once
    its FIFO-matched send has executed (and never, if no send matches);
    a collective round fires when every participating rank is parked at
    its k-th occurrence.  Ranks left holding an un-enabled event when
    no further progress is possible are *blocked* — on a complete trace
    of a finished run the set is empty, and on a deadlocked run it is
    exactly the ranks the deadlock caught.  A memoized trace is
    replayed once and its result shared.
    """
    entry = _shared(source)
    if entry is not None:
        return entry.replay()
    by_rank = _fresh(source, (SPAN, INSTANT)).by_rank
    return _replay(by_rank, match(by_rank))


def _replay(by_rank: dict[int, list[Event]],
            matching: Matching) -> ReplayResult:
    """Run ``by_rank``'s records, matched by ``matching``, through
    per-rank vector clocks, filling in their ``vc`` and ``round_index``."""
    ranks = sorted(by_rank)
    nranks = (max(ranks) + 1) if ranks else 0
    res = ReplayResult(nranks=nranks, by_rank=by_rank)
    res.matched_send = {id(recv): send for _, send, recv in matching.pairs}
    for (name, k), ops in matching.rounds.items():
        res.rounds[(name, k)] = {op.rank for op in ops}
        for op in ops:
            op.round_index = k

    vc = {r: [0] * nranks for r in ranks}
    idx = {r: 0 for r in ranks}
    progress = True
    while progress:
        progress = False
        for r in ranks:
            while idx[r] < len(by_rank[r]):
                op = by_rank[r][idx[r]]
                if op.kind == RECV:
                    send_op = res.matched_send.get(id(op))
                    if send_op is None or send_op.vc is None:
                        break                     # blocked on the wire
                    vc[r][r] += 1
                    vc[r] = [max(a, b) for a, b in zip(vc[r], send_op.vc)]
                    op.vc = list(vc[r])
                elif op.kind == COLLECTIVE:
                    round_key = (op.name, op.round_index)
                    res.parked[r] = round_key
                    waiting = {p for p, w in res.parked.items()
                               if w == round_key}
                    if waiting != res.rounds[round_key]:
                        break                     # parked at the round
                    members = sorted(waiting)
                    for p in members:
                        vc[p][p] += 1
                    joint = [max(vc[p][i] for p in members)
                             for i in range(nranks)]
                    for p in members:
                        vc[p] = list(joint)
                        by_rank[p][idx[p]].vc = list(joint)
                        idx[p] += 1
                        del res.parked[p]
                    progress = True
                    continue   # idx[r] already advanced with the round
                else:
                    vc[r][r] += 1
                    op.vc = list(vc[r])
                idx[r] += 1
                progress = True
    for r in ranks:
        if idx[r] < len(by_rank[r]):
            res.blocked[r] = by_rank[r][idx[r]]
    return res
