"""Unified observability layer: tracing, metrics, exporters.

``repro.obs`` is the telemetry substrate the rest of the system reports
through: a per-rank :class:`Tracer` of structured span/instant events
(stamped with wall *and* virtual time), a :class:`MetricsRegistry` of
counters/gauges/histograms aggregatable across ranks, and exporters to
Chrome ``trace_event`` JSON (Perfetto), a flat JSONL event log, and a
paper-style phase table.  Tracing is zero-cost when disabled: every
transport carries :data:`NULL_TRACER` until a real tracer is attached.

The tracer and its event records load with the package, because the
runtime reports through them.  The exporters, the metrics registry and
the offline profiler load on first use, so a process rank never pays
for them.
"""

from .. import _compat
from .events import (
    CAT_CKPT,
    CAT_COMM,
    CAT_FAULT,
    CAT_PHASE,
    CAT_REGION,
    CAT_SYNC,
    INSTANT,
    SPAN,
    TraceEvent,
)
from .tracer import NULL_SPAN, NULL_TRACER, NullTracer, Tracer

__all__ = [
    "Attribution", "CAT_CKPT", "CAT_COMM", "CAT_FAULT", "CAT_PHASE",
    "CAT_REGION", "CAT_SYNC", "CausalGraph", "Counter", "CriticalPath",
    "Gauge", "Histogram", "INSTANT", "MetricsRegistry", "NULL_SPAN",
    "NULL_TRACER", "NullTracer", "ProfileError", "SPAN", "TraceEvent",
    "Tracer", "analyze", "build_report", "chrome_trace", "events_jsonl",
    "phase_table", "render_report", "validate_report",
    "write_chrome_trace", "write_events_jsonl", "write_metrics_json",
]

__getattr__, __dir__ = _compat.lazy_exports(__name__, {
    "export": ("chrome_trace", "events_jsonl", "phase_table",
               "write_chrome_trace", "write_events_jsonl",
               "write_metrics_json"),
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "profile": ("Attribution", "CausalGraph", "CriticalPath",
                "ProfileError", "analyze", "build_report", "render_report",
                "validate_report"),
})
