"""Trace and metrics exporters.

Three output formats, one source of truth (a :class:`~repro.obs.tracer.
Tracer` and/or a :class:`~repro.obs.metrics.MetricsRegistry`):

* :func:`chrome_trace` — the Chrome ``trace_event`` JSON object format.
  One process, one *thread track per rank* (named ``rank 0`` ...), spans
  as ``ph="X"`` complete events, instants as ``ph="i"`` thread-scoped
  marks.  Timestamps are microseconds, as the format requires.  The
  file loads directly in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``.
* :func:`events_jsonl` — one flat JSON object per line in deterministic
  ``(rank, seq)`` order; the grep-able event log.
* :func:`phase_table` — a fixed-width text table of per-phase wall
  time, call counts and share of total, styled after the paper's
  per-application tables.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .events import CAT_PHASE, SPAN, TRACE_US, TraceEvent
from .metrics import MetricsRegistry
from .tracer import Tracer


def chrome_trace(tracer: Tracer, *, process_name: str = "repro"
                 ) -> dict[str, Any]:
    """Build a Chrome ``trace_event`` JSON object (one track per rank)."""
    events: list[dict[str, Any]] = [{
        "ph": "M", "pid": 0, "tid": 0, "name": "process_name",
        "args": {"name": process_name},
    }]
    for rank in range(tracer.nranks):
        events.append({
            "ph": "M", "pid": 0, "tid": rank, "name": "thread_name",
            "args": {"name": f"rank {rank}"},
        })
        events.append({
            "ph": "M", "pid": 0, "tid": rank, "name": "thread_sort_index",
            "args": {"sort_index": rank},
        })
    for ev in tracer.events():
        rec: dict[str, Any] = {
            "name": ev.name, "cat": ev.cat, "ph": ev.ph,
            "pid": 0, "tid": ev.rank,
            "ts": ev.t_wall * TRACE_US,
            "args": dict(ev.args),
        }
        rec["args"]["seq"] = ev.seq
        if ev.t_virtual is not None:
            rec["args"]["t_virtual"] = ev.t_virtual
        if ev.ph == SPAN:
            rec["dur"] = ev.dur * TRACE_US
        else:
            rec["s"] = "t"          # thread-scoped instant
        events.append(rec)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str | Path, tracer: Tracer, *,
                       process_name: str = "repro") -> Path:
    path = Path(path)
    path.write_text(json.dumps(
        chrome_trace(tracer, process_name=process_name)))
    return path


def events_jsonl(tracer: Tracer) -> str:
    """Flat JSONL event log in deterministic ``(rank, seq)`` order."""
    lines = [json.dumps(ev.to_jsonable(), sort_keys=True)
             for ev in sorted(tracer.events(), key=lambda e: e.key)]
    return "\n".join(lines) + ("\n" if lines else "")


def write_events_jsonl(path: str | Path, tracer: Tracer) -> Path:
    path = Path(path)
    path.write_text(events_jsonl(tracer))
    return path


def _span_rollup(events: list[TraceEvent],
                 cats: tuple[str, ...] | None) -> dict[str, list[float]]:
    """name -> [count, total seconds] over span events (insertion order)."""
    out: dict[str, list[float]] = {}
    for ev in sorted(events, key=lambda e: e.key):
        if ev.ph != SPAN:
            continue
        if cats is not None and ev.cat not in cats:
            continue
        row = out.setdefault(f"{ev.cat}:{ev.name}", [0.0, 0.0])
        row[0] += 1
        row[1] += ev.dur
    return out


def phase_table(tracer: Tracer, *, cats: tuple[str, ...] | None =
                (CAT_PHASE, "comm")) -> str:
    """Per-phase wall-time table in the style of the paper's tables."""
    rollup = _span_rollup(tracer.events(), cats)
    total = sum(row[1] for row in rollup.values())
    lines = [
        f"{'phase':28} {'calls':>8} {'seconds':>12} {'%time':>7}",
        "-" * 58,
    ]
    for name, (count, secs) in sorted(rollup.items(),
                                      key=lambda kv: -kv[1][1]):
        pct = 100.0 * secs / total if total > 0 else 0.0
        lines.append(f"{name:28} {int(count):8d} {secs:12.6f} {pct:6.1f}%")
    lines.append("-" * 58)
    lines.append(f"{'total':28} {'':8} {total:12.6f} {100.0 if total else 0.0:6.1f}%")
    return "\n".join(lines)


def write_metrics_json(path: str | Path,
                       report: dict[str, Any] | MetricsRegistry) -> Path:
    """Write an aggregated report (or one registry) as ``metrics.json``."""
    if isinstance(report, MetricsRegistry):
        report = report.to_dict()
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True))
    return path
