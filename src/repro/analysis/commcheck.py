"""Communication-matching checker: deadlock-shaped patterns from ASTs.

SPMD deadlocks in this codebase come in three shapes, each of which is
visible statically in a driver's call structure:

* **rank-divergent collectives** — a collective (or barrier)
  reachable under an ``if`` whose test depends on the rank.  Some
  ranks enter the collective, some don't; the job hangs until the
  recv/barrier timeout.
* **unmatched tags** — a literal tag used by ``send`` with no ``recv``
  anywhere in the module (or vice versa): the payload queues forever
  and the would-be receiver blocks on a channel nobody posts to.
* **direction-mismatched halo pairs** — in a multi-neighbour exchange,
  a ``recv`` naming the *same* (peer, tag) channel as a ``send``.  In
  a shift pattern every rank sends left, so the matching message
  arrives *from the right*; receiving from the peer you sent to waits
  on a message that rank addressed elsewhere.

All three register as ordinary lint rules (:data:`COMM_RULES`), so
``repro lint`` covers them and ``repro analyze`` is simply the engine
restricted to this subset.  The checks are heuristics over a single
module's AST: cross-module protocols and dynamically computed tags are
out of scope and deliberately not guessed at.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator

from .engine import LintRule, register
from .findings import Finding
from .rules import dotted_name

#: collective operations (``comm.phase`` only labels a rank's traffic)
COLLECTIVE_ATTRS = frozenset({
    "barrier", "allreduce", "allgather", "alltoall", "bcast", "gather",
    "split", "sync",
})

#: collectives recognised on any receiver (barrier semantics are
#: unambiguous); the rest additionally require a comm-like receiver so
#: `str.split` / list `gather`-alikes don't false-positive
_ANY_RECEIVER = frozenset({"barrier", "sync"})

_P2P = frozenset({"send", "recv", "sendrecv"})


def _is_comm_receiver(node: ast.AST) -> bool:
    text = ast.unparse(node)
    return "comm" in text.lower()


@dataclass(frozen=True)
class CommOp:
    """One extracted communication call."""

    kind: str                  # "send" | "recv" | "sendrecv" | collective
    peer: str | None           # unparsed dest/source expression
    tag: object | None         # literal tag value, or None if dynamic
    tag_text: str              # unparsed tag expression ("0" for default)
    line: int


def _keyword(call: ast.Call, name: str) -> ast.AST | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _positional(call: ast.Call, index: int) -> ast.AST | None:
    if len(call.args) > index:
        return call.args[index]
    return None


def _tag_info(node: ast.AST | None) -> tuple[object | None, str]:
    if node is None:
        return 0, "0"          # the runtime's default tag
    if isinstance(node, ast.Constant):
        return node.value, ast.unparse(node)
    return None, ast.unparse(node)


def extract_comm_ops(fn: ast.AST) -> list[CommOp]:
    """Every p2p call in one function, with peer and tag structure."""
    ops: list[CommOp] = []
    for node in ast.walk(fn):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _P2P):
            continue
        attr = node.func.attr
        if attr == "send":
            peer = _keyword(node, "dest") or _positional(node, 1)
            tag = _keyword(node, "tag") or _positional(node, 2)
        elif attr == "recv":
            peer = _keyword(node, "source") or _positional(node, 0)
            tag = _keyword(node, "tag") or _positional(node, 1)
        else:                  # sendrecv(obj, dest, source, tag)
            peer = None        # buffered both ways: deadlock-free
            tag = _keyword(node, "tag") or _positional(node, 3)
        tag_val, tag_text = _tag_info(tag)
        ops.append(CommOp(attr,
                          ast.unparse(peer) if peer is not None else None,
                          tag_val, tag_text, node.lineno))
    return ops


def _rank_tainted_names(fn: ast.AST) -> set[str]:
    """Names assigned from expressions that mention a rank."""
    tainted: set[str] = set()
    for node in ast.walk(fn):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            text = ast.unparse(node.value)
            if ".rank" in text or _mentions_word(text, "rank"):
                tainted.add(node.targets[0].id)
    return tainted


def _mentions_word(text: str, word: str) -> bool:
    return re.search(rf"\b{word}\b", text) is not None


def _rank_dependent(test: ast.AST, tainted: set[str]) -> bool:
    text = ast.unparse(test)
    if ".rank" in text:
        return True
    return any(_mentions_word(text, name) for name in tainted)


def _functions(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _collectives_in(nodes: list[ast.stmt]) -> list[ast.Call]:
    out = []
    for stmt in nodes:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in COLLECTIVE_ATTRS):
                if (node.func.attr in _ANY_RECEIVER
                        or _is_comm_receiver(node.func.value)):
                    out.append(node)
    return out


@register
class RankDivergentCollectiveRule(LintRule):
    name = "rank-divergent-collective"
    severity = "error"
    description = ("collective or barrier reachable under a "
                   "rank-dependent branch")
    hint = ("collectives must be called by every rank; hoist the call "
            "out of the rank-dependent branch (compute rank-dependent "
            "*arguments* inline, e.g. "
            "`comm.bcast(x if comm.rank == 0 else None)`)")

    def check(self, tree: ast.AST, path: str,
              source: str) -> Iterator[Finding]:
        for fn in _functions(tree):
            tainted = _rank_tainted_names(fn)
            for node in ast.walk(fn):
                if not isinstance(node, ast.If):
                    continue
                if not _rank_dependent(node.test, tainted):
                    continue
                body_calls = _collectives_in(node.body)
                else_calls = _collectives_in(node.orelse)
                body_attrs = {c.func.attr for c in body_calls}
                else_attrs = {c.func.attr for c in else_calls}
                # A collective appearing in *both* branches is SPMD-safe
                # (every rank still calls it); flag one-sided ones.
                for call in body_calls + else_calls:
                    attr = call.func.attr
                    if attr in body_attrs and attr in else_attrs:
                        continue
                    yield self.finding(
                        call, f"collective `{ast.unparse(call.func)}` "
                              f"under rank-dependent branch "
                              f"`if {ast.unparse(node.test)}`")


@register
class UnmatchedTagRule(LintRule):
    name = "unmatched-tag"
    severity = "warning"
    description = ("literal message tag with a send but no recv in the "
                   "module (or vice versa)")
    hint = ("every tag constant needs both sides of the channel; if "
            "the peer lives in another module, name the tag in a "
            "shared constant so the pairing is checkable")

    def check(self, tree: ast.AST, path: str,
              source: str) -> Iterator[Finding]:
        send_tags: dict[object, int] = {}
        recv_tags: dict[object, int] = {}
        for fn in _functions(tree):
            for op in extract_comm_ops(fn):
                if op.tag is None:
                    continue   # dynamic tag: out of scope
                if op.kind in ("send", "sendrecv"):
                    send_tags.setdefault(op.tag, op.line)
                if op.kind in ("recv", "sendrecv"):
                    recv_tags.setdefault(op.tag, op.line)
        # Only modules participating on both sides are judged: a
        # send-only helper may legitimately pair with a recv elsewhere.
        if send_tags and recv_tags:
            for tag, line in sorted(send_tags.items(),
                                    key=lambda kv: kv[1]):
                if tag not in recv_tags:
                    yield self.finding(
                        line, f"send with tag {tag!r} has no matching "
                              f"recv in this module")
            for tag, line in sorted(recv_tags.items(),
                                    key=lambda kv: kv[1]):
                if tag not in send_tags:
                    yield self.finding(
                        line, f"recv on tag {tag!r} has no matching "
                              f"send in this module")


@register
class DirectionMismatchRule(LintRule):
    name = "comm-direction-mismatch"
    severity = "error"
    description = ("multi-neighbour exchange where a recv names the "
                   "same (peer, tag) channel as a send")
    hint = ("in a shift exchange, recv from the *opposite* direction "
            "of each send (send left / recv right on the same tag), "
            "or remap the tag through the opposite direction index")

    def check(self, tree: ast.AST, path: str,
              source: str) -> Iterator[Finding]:
        for fn in _functions(tree):
            ops = extract_comm_ops(fn)
            sends = [op for op in ops if op.kind == "send"
                     and op.peer is not None]
            recvs = [op for op in ops if op.kind == "recv"
                     and op.peer is not None]
            if len({op.peer for op in sends}) < 2:
                continue       # pairwise partner exchange: legitimate
            send_channels = {(op.peer, op.tag_text) for op in sends}
            for op in recvs:
                if (op.peer, op.tag_text) in send_channels:
                    yield self.finding(
                        op.line, f"recv from `{op.peer}` tag "
                                 f"{op.tag_text} shares its channel "
                                 f"with a send in the same "
                                 f"multi-neighbour exchange")


@register
class BlockingTimeoutRule(LintRule):
    name = "blocking-recv-timeout"
    severity = "warning"
    description = ("recv/fetch with a hard-coded or disabled timeout "
                   "bypasses the configurable failure-detection window")
    hint = ("leave `timeout` unset so the transport's configured "
            "timeout — the bound the heartbeat detector wakes blocked "
            "waiters within — applies; `timeout=None` blocks forever "
            "on a dead peer and a numeric literal can't be tuned per "
            "job")

    _CALLS = frozenset({"recv", "fetch"})

    @staticmethod
    def _transport_like(node: ast.AST) -> bool:
        text = ast.unparse(node).lower()
        return ("comm" in text or "transport" in text
                or text in ("tp", "self.tp") or text.endswith(".tp"))

    def check(self, tree: ast.AST, path: str,
              source: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._CALLS
                    and self._transport_like(node.func.value)):
                continue
            kw = _keyword(node, "timeout")
            if not isinstance(kw, ast.Constant):
                continue       # unset or computed: configurable
            op = node.func.attr
            if kw.value is None:
                yield self.finding(
                    node, f"blocking `{op}` with timeout=None never "
                          f"observes a dead peer")
            elif (isinstance(kw.value, (int, float))
                    and not isinstance(kw.value, bool)):
                yield self.finding(
                    node, f"blocking `{op}` hard-codes "
                          f"timeout={kw.value!r}, bypassing the "
                          f"transport's configured window")


#: the comm checker's rule subset (what `repro analyze` runs)
COMM_RULES = ("rank-divergent-collective", "unmatched-tag",
              "comm-direction-mismatch", "blocking-recv-timeout")
