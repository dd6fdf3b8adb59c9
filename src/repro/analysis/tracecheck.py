"""Trace-replay checker: confirm SPMD matching from a Chrome trace.

The static comm checker proves structure; this module proves a *run*.
Given a PR-2 trace (``python -m repro trace <app>`` writes one), it
replays the recorded comm spans and verifies:

* every posted ``send`` was consumed by a matching ``recv`` on the
  (src, dst, tag) channel — and no recv consumed a phantom message;
* every collective round had all ranks: per-rank span counts for
  ``barrier``/``allreduce``/... must agree across the job (a rank that
  skipped a barrier is the runtime signature of a rank-divergent
  branch that happened not to deadlock *this* time).

The trace-replay core (:mod:`repro.obs.replay`) reads and matches the
trace.  Findings use the trace file as their path, so they flow through
the same report/baseline machinery as static lint findings.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from ..obs.replay import _matched_spans, load_trace
from .findings import Finding, sort_findings

_RULE_SEND = "trace-unconsumed-send"
_RULE_RECV = "trace-unmatched-recv"
_RULE_COLL = "trace-collective-ranks"


def check_trace(source: Any, label: str | None = None) -> list[Finding]:
    """Replay a trace; returns matching-violation findings."""
    if label is None:
        label = (str(source) if isinstance(source, (str, Path))
                 else "<trace>")
    if isinstance(source, (str, Path)):
        source = load_trace(source)
    trace, matching = _matched_spans(source)

    findings: list[Finding] = []
    for (src, dst, tag), (posted, consumed) in matching.unmatched.items():
        if posted > consumed:
            findings.append(Finding(
                _RULE_SEND, "error", label, 0,
                f"{posted - consumed} of {posted} send(s) on channel "
                f"{src}->{dst} tag {tag} never consumed by a recv"))
        else:
            findings.append(Finding(
                _RULE_RECV, "error", label, 0,
                f"{consumed - posted} recv(s) on channel {src}->{dst} "
                f"tag {tag} with no posted send"))

    for name, counts in matching.round_counts.items():
        observed = {r: counts.get(r, 0) for r in trace.ranks}
        if len(set(observed.values())) > 1:
            detail = ", ".join(f"rank {r}: {n}"
                               for r, n in sorted(observed.items()))
            findings.append(Finding(
                _RULE_COLL, "error", label, 0,
                f"collective `{name}` rank participation differs "
                f"({detail}) — some round was missing ranks"))
    return sort_findings(findings)
