"""Happens-before race analyzer for the zero-copy SPMD runtime.

The zero-copy buffer protocol (PR 6) makes message payloads *shared
storage*: a borrowed array travels by reference, every receiver observes
the sender's bytes, and :meth:`~repro.runtime.comm.Comm.reclaim` hands
the storage back to the owner for mutation.  The protocol is fast
precisely because nothing copies — which means nothing *isolates*
either, and an owner that reclaims too early overwrites halos its
neighbours are still reading.  This module proves the ordering instead:

**Dynamic half** — :func:`check_trace_races` reads the vector-clock
replay of a recorded trace (a live :class:`~repro.obs.tracer.Tracer`, a
Chrome ``trace.json``, or an ``events.jsonl`` log) from the trace-replay
core (:mod:`repro.obs.replay`), which matches message edges (k-th send
on ``(src, dst, tag)`` pairs with the k-th recv) and collective rounds
(the k-th occurrence of each collective name per rank, joined as a
barrier) and replays a memoized trace once for this checker and the
deadlock checker.  The runtime emits lightweight
``buf-epoch`` instants (``publish`` when a borrow freezes a buffer for
flight, ``read`` when a receiver observes it, ``reclaim`` when the
owner thaws it) — a write epoch is the interval from a ``reclaim`` to
the owner's next ``publish`` of the same buffer, and every read must be
ordered entirely before or entirely after every write epoch.  Unordered
pairs are races, reported with both witness access sites.

**Static half** — three lint rules over the AST catch the same bug
shape before a trace exists: mutating an array after ``send`` without
an intervening acknowledgement (``send-then-mutate``), mutating a
buffer lent to ``borrow`` without reclaiming it (``write-after-borrow``)
and stashing a received zero-copy view into long-lived state
(``escaped-zero-copy-view``).  All three are line-order heuristics
within one function — cross-function protocols are the dynamic half's
job.

Known false negatives (see DESIGN §13): arrays shared through
collectives (``allgather``/``bcast``/``alltoall``) are not
epoch-tracked, and an untraced run (NullTracer) records nothing.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Any, Iterator

from ..obs.replay import (EPOCH, Event, ReplayResult, events,
                          happens_before, load_trace, replay)
from .commcheck import _is_comm_receiver, _positional
from .engine import LintRule, register
from .findings import Finding, sort_findings

RULE_RACE = "trace-race"

#: the race checker's static rule subset
RACE_RULES = ("send-then-mutate", "write-after-borrow",
              "escaped-zero-copy-view")

#: one trace event in replay form (the core's record, with its clock)
Op = Event

def load_ops(source: Any) -> dict[int, list[Op]]:
    """Per-rank, program-ordered op lists from any trace source.

    The lists of a trace file are the memoized trace's shared records:
    read them, never mutate them.
    """
    return events(source).by_rank


def _replayed(source: Any) -> ReplayResult:
    """:func:`replay` of ``source``.  The race and deadlock entry
    points both load a path here, through this module's ``load_trace``
    (the name perfbench's traced ledger wraps)."""
    if isinstance(source, (str, Path)):
        source = load_trace(source)
    return replay(source)


# ---------------------------------------------------------------------------
# dynamic race check
# ---------------------------------------------------------------------------

def _trace_label(source: Any, label: str | None) -> str:
    if label is not None:
        return label
    if isinstance(source, (str, Path)):
        return str(source)
    return "<trace>"


def check_trace_races(source: Any,
                      label: str | None = None) -> list[Finding]:
    """Replay a trace; report unordered buffer-epoch conflicts.

    A *write epoch* on a buffer runs from a ``reclaim`` event to the
    owner's next ``publish`` of the same buffer (or to the end of the
    trace).  Every ``read`` of that buffer on another rank must be
    happens-before the reclaim or happens-after the closing publish —
    anything else means the owner's overwrite raced the reader's view
    of the shared storage.  Two reclaims of one buffer on different
    ranks must themselves be ordered (write-write).
    """
    rep = _replayed(source)
    label = _trace_label(source, label)
    # Epoch events per reclaimed buffer, replay-reachable ones only
    # (events after a blocked op never executed; the deadlock checker
    # owns those).  A buffer nobody reclaims opens no write epoch, so it
    # cannot race and is not grouped.
    epochs = [op for r in sorted(rep.by_rank) for op in rep.by_rank[r]
              if op.kind == EPOCH and op.vc is not None]
    reclaimed = {str(op.args.get("buf", "?")) for op in epochs
                 if op.args.get("op") == "reclaim"}
    by_buf: dict[str, dict[str, list[Op]]] = {}
    for op in epochs:
        buf = str(op.args.get("buf", "?"))
        if buf in reclaimed:
            kind = str(op.args.get("op", "?"))
            by_buf.setdefault(buf, {}).setdefault(kind, []).append(op)
    findings: dict[tuple, Finding] = {}

    def add(message: str) -> None:
        f = Finding(RULE_RACE, "error", label, 0, message,
                    "order the reclaim after an acknowledgement (a "
                    "reverse message or a collective) from every "
                    "reader, or send a copy instead of a borrow")
        findings.setdefault(f.fingerprint, f)

    for buf in sorted(by_buf):
        groups = by_buf[buf]
        reads = groups.get("read", [])
        reclaims = groups.get("reclaim", [])
        publishes = groups.get("publish", [])
        for w in reclaims:
            # The owner's next publish of this buffer closes the epoch.
            closing = min((p for p in publishes
                           if p.rank == w.rank and p.seq > w.seq),
                          key=lambda p: p.seq, default=None)
            for rd in reads:
                if rd.rank == w.rank:
                    continue               # program order on one rank
                if happens_before(rd, w):
                    continue               # read done before the thaw
                if closing is not None and happens_before(closing, rd):
                    continue               # read of the re-published gen
                add(f"race on buffer {buf}: rank {w.rank} reclaims it "
                    f"for writing at {w.site} with no happens-before "
                    f"edge from rank {rd.rank}'s read at {rd.site}")
            for w2 in reclaims:
                if (w2.rank <= w.rank
                        or happens_before(w, w2)
                        or happens_before(w2, w)):
                    continue
                add(f"race on buffer {buf}: unordered write epochs — "
                    f"rank {w.rank} reclaim at {w.site} and rank "
                    f"{w2.rank} reclaim at {w2.site}")
    return sort_findings(list(findings.values()))


# ---------------------------------------------------------------------------
# static lifetime rules
# ---------------------------------------------------------------------------

#: ndarray methods that mutate in place
_MUTATING_METHODS = frozenset({"fill", "sort", "put", "itemset",
                               "resize", "setfield"})

#: calls that block until peers have progressed — an acknowledgement
#: point after which a previously sent buffer may be touched again
_ACK_ATTRS = frozenset({"recv", "sendrecv", "exchange", "barrier",
                        "allreduce", "allgather", "alltoall", "bcast",
                        "gather", "sync"})


def _call_name(node: ast.Call) -> str:
    """Trailing name of the called function (``np.copyto`` -> copyto)."""
    fn = node.func
    if isinstance(fn, ast.Attribute):
        return fn.attr
    if isinstance(fn, ast.Name):
        return fn.id
    return ""


def _first_arg_name(node: ast.Call) -> str | None:
    arg = _positional(node, 0)
    if isinstance(arg, ast.Name):
        return arg.id
    return None


def _functions_with_body(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _scan_events(fn: ast.AST) -> list[tuple[int, str, str, ast.AST]]:
    """Line-ordered lifetime events: (line, event, name, node).

    Events: ``send <name>`` (first arg of a ``.send`` call), ``borrow
    <name>``, ``reclaim <name>``, ``writable <name>`` (rebinding from a
    copy-on-write claim), ``ack ''`` (any blocking comm call), ``rebind
    <name>`` (plain reassignment), ``mutate <name>`` (in-place store,
    augmented assignment, mutating method, ``np.copyto`` target).
    """
    events: list[tuple[int, str, str, ast.AST]] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if isinstance(node.func, ast.Attribute):
                if name == "send" and _is_comm_receiver(node.func.value):
                    arg = _first_arg_name(node)
                    if arg:
                        events.append((node.lineno, "send", arg, node))
                elif (name in _ACK_ATTRS
                      and (name in ("barrier", "sync")
                           or _is_comm_receiver(node.func.value))):
                    events.append((node.lineno, "ack", "", node))
                elif (name in _MUTATING_METHODS
                      and isinstance(node.func.value, ast.Name)):
                    events.append((node.lineno, "mutate",
                                   node.func.value.id, node))
                elif name == "reclaim":
                    arg = _first_arg_name(node)
                    if arg:
                        events.append((node.lineno, "reclaim", arg,
                                       node))
                elif name == "copyto":
                    arg = _first_arg_name(node)
                    if arg:
                        events.append((node.lineno, "mutate", arg,
                                       node))
            elif name == "borrow":
                arg = _first_arg_name(node)
                if arg:
                    events.append((node.lineno, "borrow", arg, node))
            elif name == "reclaim":
                arg = _first_arg_name(node)
                if arg:
                    events.append((node.lineno, "reclaim", arg, node))
        elif isinstance(node, ast.Assign):
            for tgt in node.targets:
                if (isinstance(tgt, ast.Subscript)
                        and isinstance(tgt.value, ast.Name)):
                    events.append((node.lineno, "mutate", tgt.value.id,
                                   node))
                elif isinstance(tgt, ast.Name):
                    kind = "rebind"
                    if (isinstance(node.value, ast.Call)
                            and _call_name(node.value) == "writable"):
                        kind = "writable"
                    events.append((node.lineno, kind, tgt.id, node))
        elif isinstance(node, ast.AugAssign):
            tgt = node.target
            if isinstance(tgt, ast.Subscript) \
                    and isinstance(tgt.value, ast.Name):
                events.append((node.lineno, "mutate", tgt.value.id,
                               node))
            elif isinstance(tgt, ast.Name):
                events.append((node.lineno, "mutate", tgt.id, node))
    events.sort(key=lambda e: e[0])
    return events


@register
class SendThenMutateRule(LintRule):
    name = "send-then-mutate"
    severity = "warning"
    description = ("array mutated after being handed to `send` with no "
                   "intervening acknowledgement")
    hint = ("a zero-copy send lends the array to its receivers; wait "
            "for an ack (a recv or a collective) before writing to it "
            "again — or send an explicit copy")

    def check(self, tree: ast.AST, path: str,
              source: str) -> Iterator[Finding]:
        for fn in _functions_with_body(tree):
            pending: dict[str, int] = {}
            for line, event, name, node in _scan_events(fn):
                if event == "ack":
                    pending.clear()
                elif event == "send":
                    pending[name] = line
                elif event in ("rebind", "writable"):
                    pending.pop(name, None)
                elif event == "mutate" and name in pending:
                    yield self.finding(
                        node, f"`{name}` sent at line {pending[name]} "
                              f"is mutated at line {line} with no "
                              f"acknowledgement in between")
                    pending.pop(name)


@register
class WriteAfterBorrowRule(LintRule):
    name = "write-after-borrow"
    severity = "warning"
    description = ("buffer mutated after being lent to `borrow` and "
                   "before being reclaimed")
    hint = ("`borrow` freezes the array in place while receivers share "
            "its storage; take it back with `comm.reclaim(...)` (after "
            "an ack) or mutate a private `writable(...)` copy")

    def check(self, tree: ast.AST, path: str,
              source: str) -> Iterator[Finding]:
        for fn in _functions_with_body(tree):
            lent: dict[str, int] = {}
            for line, event, name, node in _scan_events(fn):
                if event == "borrow":
                    lent[name] = line
                elif event in ("reclaim", "rebind", "writable"):
                    lent.pop(name, None)
                elif event == "mutate" and name in lent:
                    yield self.finding(
                        node, f"`{name}` lent to borrow() at line "
                              f"{lent[name]} is mutated at line {line} "
                              f"while still frozen")
                    lent.pop(name)


@register
class EscapedZeroCopyViewRule(LintRule):
    name = "escaped-zero-copy-view"
    severity = "info"
    description = ("received zero-copy view stored into long-lived "
                   "object state without a copy")
    hint = ("a recv under zero-copy returns a frozen view of the "
            "sender's storage, which goes stale once the sender "
            "reclaims it; keep `writable(...)` / `np.array(x)` copies "
            "in long-lived state")

    @staticmethod
    def _recv_bound_names(fn: ast.AST) -> dict[str, int]:
        out: dict[str, int] = {}
        for node in ast.walk(fn):
            if (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Attribute)
                    and node.value.func.attr == "recv"
                    and _is_comm_receiver(node.value.func.value)):
                out[node.targets[0].id] = node.lineno
        return out

    def check(self, tree: ast.AST, path: str,
              source: str) -> Iterator[Finding]:
        for fn in _functions_with_body(tree):
            received = self._recv_bound_names(fn)
            if not received:
                continue
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Assign)
                        and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Attribute)
                        and isinstance(node.targets[0].value, ast.Name)
                        and node.targets[0].value.id == "self"):
                    continue
                value = node.value
                if (isinstance(value, ast.Name)
                        and value.id in received
                        and node.lineno > received[value.id]):
                    yield self.finding(
                        node, f"`self.{node.targets[0].attr}` stores "
                              f"`{value.id}` received at line "
                              f"{received[value.id]} without copying "
                              f"it out of the sender's storage")
