"""Wait-for-graph deadlock detector: trace replay + static ordering.

**Dynamic half** — :func:`check_trace_deadlocks` reads the same
vector-clock replay as :mod:`~repro.analysis.racecheck` (for a
memoized trace, the very same result): a trace from a hung run (the
recv timeout fires, so the blocked spans *are* recorded) leaves ranks
holding un-enabled ops at end of replay.  Each blocked rank contributes
wait-for edges — a recv waiter points at its source rank, a collective
waiter at every participant that never arrived — and a cycle in that
graph is a deadlock, reported with every member's rank, tag, and source
site.  Blocked ranks outside any cycle (their peer crashed or simply
exited) get their own finding.

**Static half** — the ``blocking-recv-cycle`` rule flags the SPMD shape
that *produces* those cycles: a function where every rank
unconditionally posts a blocking ``recv`` from a rank-parametric peer
*before* the ``send`` that would satisfy the mirrored recv.  Run under
SPMD, all ranks block in the recv and the send line is never reached.
Rank-guarded recvs (``if rank == 0:``) and constant peers (a server
rank fed by clients elsewhere) are out of scope by design — the rule
hunts the symmetric crossed-recv, not every ordering.
"""

from __future__ import annotations

import ast
from typing import Any, Iterator

from ..obs.replay import COLLECTIVE, RECV
from .commcheck import (_mentions_word, _rank_dependent,
                        _rank_tainted_names, extract_comm_ops)
from .engine import LintRule, register
from .findings import Finding, sort_findings
from .racecheck import Op, ReplayResult, _replayed, _trace_label

RULE_CYCLE = "trace-deadlock-cycle"
RULE_BLOCKED = "trace-blocked-rank"

#: the deadlock checker's static rule subset
DEADLOCK_RULES = ("blocking-recv-cycle",)


def _describe_block(rank: int, op: Op, rep: ReplayResult) -> str:
    if op.kind == RECV:
        src = int(op.args["src"])
        tag = op.args.get("tag", 0)
        return (f"rank {rank} blocked in recv from rank {src} "
                f"(tag {tag}) at {op.site}")
    if op.kind == COLLECTIVE:
        round_key = (op.name, op.round_index)
        waiting = {p for p, w in rep.parked.items() if w == round_key}
        missing = sorted(rep.rounds.get(round_key, set()) - waiting)
        return (f"rank {rank} waiting in {op.name} round "
                f"{op.round_index} for rank(s) "
                f"{', '.join(map(str, missing)) or '?'}")
    return f"rank {rank} blocked at {op.name}"


def _wait_edges(rank: int, op: Op, rep: ReplayResult) -> set[int]:
    if op.kind == RECV:
        return {int(op.args["src"])}
    if op.kind == COLLECTIVE:
        round_key = (op.name, op.round_index)
        waiting = {p for p, w in rep.parked.items() if w == round_key}
        return rep.rounds.get(round_key, set()) - waiting
    return set()


def _cycle_members(edges: dict[int, set[int]]) -> set[int]:
    """Ranks on at least one cycle of the wait-for graph.

    Iteratively strip nodes with no outgoing edge into the remaining
    set; whatever survives can keep waiting forever — every survivor
    waits only on other survivors.
    """
    alive = set(edges)
    changed = True
    while changed:
        changed = False
        for r in sorted(alive):
            if not (edges[r] & alive):
                alive.discard(r)
                changed = True
    return alive


def check_trace_deadlocks(source: Any,
                          label: str | None = None) -> list[Finding]:
    """Replay a trace; report wait-for cycles among blocked ranks."""
    rep = _replayed(source)
    label = _trace_label(source, label)
    if not rep.blocked:
        return []
    edges = {r: _wait_edges(r, op, rep)
             for r, op in rep.blocked.items()}
    # Only edges to ranks that are themselves blocked can sustain a
    # cycle; an edge to a finished rank is a crashed/exited peer.
    edges = {r: {d for d in dsts if d in rep.blocked}
             for r, dsts in edges.items()}
    cyclic = _cycle_members(edges)
    findings: list[Finding] = []
    if cyclic:
        detail = "; ".join(
            _describe_block(r, rep.blocked[r], rep)
            for r in sorted(cyclic))
        findings.append(Finding(
            RULE_CYCLE, "error", label, 0,
            f"deadlock cycle among rank(s) "
            f"{', '.join(map(str, sorted(cyclic)))}: {detail}",
            "break the cycle by reordering one side (send before "
            "recv), using sendrecv, or splitting the tag space"))
    for r in sorted(rep.blocked):
        if r in cyclic:
            continue
        findings.append(Finding(
            RULE_BLOCKED, "warning", label, 0,
            _describe_block(r, rep.blocked[r], rep)
            + " — its peer made no matching progress (crashed or "
              "exited early)",
            "check the peer rank's log; a missing send here usually "
            "means the peer died before posting it"))
    return sort_findings(findings)


@register
class BlockingRecvCycleRule(LintRule):
    name = "blocking-recv-cycle"
    severity = "error"
    description = ("unconditional blocking recv from a rank-parametric "
                   "peer posted before the matching send — all SPMD "
                   "ranks block in the recv")
    hint = ("post the send first (buffered sends return immediately), "
            "use `sendrecv`, or guard one direction by rank parity")

    def check(self, tree: ast.AST, path: str,
              source: str) -> Iterator[Finding]:
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)):
                continue
            tainted = _rank_tainted_names(fn)
            guarded = self._guarded_lines(fn, tainted)
            ops = [op for op in extract_comm_ops(fn)
                   if op.line not in guarded]
            for recv in ops:
                if recv.kind != "recv" or recv.peer is None:
                    continue
                if not (".rank" in recv.peer
                        or _mentions_word(recv.peer, "rank")
                        or any(_mentions_word(recv.peer, n)
                               for n in tainted)):
                    continue   # constant peer: client/server, not SPMD
                sends = [op for op in ops if op.kind == "send"
                         and op.tag_text == recv.tag_text]
                if not sends:
                    continue
                if any(s.line < recv.line for s in sends):
                    continue   # a send is already in flight
                first = min(s.line for s in sends)
                yield self.finding(
                    recv.line,
                    f"blocking recv from `{recv.peer}` tag "
                    f"{recv.tag_text} precedes the matching send at "
                    f"line {first}; every rank blocks here before any "
                    f"send posts")

    @staticmethod
    def _guarded_lines(fn: ast.AST, tainted: set[str]) -> set[int]:
        """Lines under a rank-dependent ``if`` (excluded from the rule:
        a guarded recv runs on a subset of ranks, so 'everyone blocks'
        no longer follows)."""
        lines: set[int] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.If) \
                    and _rank_dependent(node.test, tainted):
                for part in node.body + node.orelse:
                    for sub in ast.walk(part):
                        lineno = getattr(sub, "lineno", None)
                        if lineno is not None:
                            lines.add(lineno)
        return lines
