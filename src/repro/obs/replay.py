"""Trace-replay core: one reader, one program order, one matcher.

The attribution profiler (:mod:`repro.obs.profile`) and the comm, race
and deadlock checkers (:mod:`repro.analysis`) replay recorded events
through this module.  :func:`load_trace` reads every trace file form
and remembers the last file it parsed, keyed by resolved path and a
SHA-256 of the bytes, so one process parses an unchanged trace once
however many analyzers load it by path; :func:`spans` and
:func:`events` turn any source into per-rank records in ``seq``
(program) order, each classified once as a send, recv, collective or
buffer-epoch instant; :func:`match` pairs sends with recvs per channel
and groups collective rounds.  Records share the source's ``args``, and
no source is ever mutated: a memoized document is shared by every
caller.

It imports only the standard library and :mod:`.events`: every process
rank imports :mod:`repro.obs`, so this module rides along.
"""

from __future__ import annotations

import hashlib
import io
import json
import threading
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Any

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


#: the last trace file parsed: ((resolved path, SHA-256 of its bytes), doc)
_memo: tuple[tuple[Path, bytes], dict[str, Any]] | None = None
_memo_lock = threading.Lock()


def load_trace(source: str | Path | dict[str, Any]) -> dict[str, Any]:
    """A Chrome trace document from a path or an already-loaded dict.

    Accepts plain and gzip-compressed files (detected by magic number,
    so any name works) in either the Chrome ``trace.json`` object
    format or the flat ``events.jsonl`` log format — the latter is
    converted to an equivalent Chrome document.  All read/parse
    failures, and a document without ``traceEvents``, surface as
    :class:`TraceError` naming the file.

    The file is read on every call, but parsed only when its resolved
    path or its bytes differ from the last file parsed: callers that
    load one unchanged trace share one document, which nothing may
    mutate.  A failed parse leaves the memo as it was.
    """
    global _memo
    if isinstance(source, dict):
        return _require_events(source, "trace object")
    path = Path(source)
    try:
        raw = path.read_bytes()
    except FileNotFoundError as exc:
        raise TraceError(f"cannot read trace {path}: not found") from exc
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    # Keyed by content, not mtime: a same-size rewrite within one
    # timestamp tick must not be served stale.
    key = (path.resolve(), hashlib.sha256(raw).digest())
    with _memo_lock:
        memo = _memo
    if memo is not None and memo[0] == key:
        return memo[1]
    doc = _parse(raw, path)
    with _memo_lock:
        _memo = (key, doc)
    return doc


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
    """One span or instant in replay form."""

    rank: int
    seq: int                      # per-rank program order
    name: str
    cat: str
    ph: str
    kind: str | None              # SEND / RECV / COLLECTIVE / EPOCH / None
    args: dict[str, Any]          # shared with the source, never mutated
    start: float                  # seconds since the trace epoch
    dur: float                    # seconds (0 for instants)


@dataclass
class Trace:
    """A source's events, grouped per rank in program order."""

    #: ranks named by ``thread_name`` metadata, else those with events
    ranks: list[int]
    by_rank: dict[int, list[Any]]


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


def _records(source: Any, keep: tuple[str, ...],
             record: type[Event]) -> Trace:
    """Build ``record`` instances for the ``keep`` phases of ``source``."""
    by_rank: dict[int, list[Any]] = {}
    named: set[int] = set()
    if callable(getattr(source, "events", None)):       # a live Tracer
        source = source.events()
    if isinstance(source, (list, tuple)):
        for ev in source:
            if isinstance(ev, TraceEvent) and ev.ph in keep:
                by_rank.setdefault(ev.rank, []).append(record(
                    ev.rank, ev.seq, ev.name, ev.cat, ev.ph,
                    _kind(ev.ph, ev.name, ev.cat, ev.args), ev.args,
                    ev.t_wall, ev.dur))
    elif isinstance(source, (dict, str, Path)):
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
            by_rank.setdefault(rank, []).append(record(
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
    return Trace(ranks=sorted(named or by_rank), by_rank=by_rank)


def spans(source: Any) -> Trace:
    """The span events of ``source``; instants are skipped unbuilt."""
    return _records(source, (SPAN,), Event)


def events(source: Any, record: type[Event]) -> Trace:
    """Every span and instant of ``source``, as ``record`` instances.

    Instants carry the ``seq`` at emission and spans the ``seq`` at
    *exit*, so a ``publish`` instant precedes its ``send`` span and a
    ``read`` instant follows its ``recv`` span.  ``record`` is an
    :class:`Event` subclass that adds replay state.
    """
    return _records(source, (SPAN, INSTANT), record)


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
