"""``python -m repro trace <app>``: run one application, emit telemetry.

Runs one of the four applications at a small configuration on the
simulated runtime with a real :class:`~repro.obs.tracer.Tracer`
attached, then writes

* ``trace.json`` — Chrome ``trace_event`` JSON, one track per rank
  (open in Perfetto or ``chrome://tracing``);
* ``events.jsonl`` — the flat event log in deterministic order;
* ``metrics.json`` — per-rank metric registries plus the cross-rank
  aggregate, the run-level traffic breakdown (per-pair, per-tag), the
  virtual-time critical path, and the app's model-side work profile
  for comparison.

The tracer drives a :class:`~repro.runtime.virtual_time.VirtualClocks`
(``advance_clocks=True``), so every event carries both timelines and
the report can state measured load imbalance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from ..apps import APPS
from ..apps.catalogue import get_app
from ..runtime.transport import Transport
from ..runtime.virtual_time import VirtualClocks
from .events import SPAN
from .export import (
    phase_table,
    write_chrome_trace,
    write_events_jsonl,
    write_metrics_json,
)
from .metrics import MetricsRegistry
from .tracer import Tracer

@dataclass
class TraceRun:
    """Everything one traced run produced."""

    app: str
    nprocs: int
    steps: int
    tracer: Tracer
    transport: Transport
    clocks: VirtualClocks
    report: dict[str, Any]
    trace_path: Path | None = None
    events_path: Path | None = None
    metrics_path: Path | None = None

    def table(self) -> str:
        return phase_table(self.tracer)


def _make_outdir(outdir: str | Path) -> Path:
    """Create the output directory before any work is done; a path that
    is (or lies under) a file is a usage error, :class:`NotADirectoryError`."""
    out = Path(outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise NotADirectoryError(
            f"output directory {out} is a file, or lies under one"
        ) from None
    return out


def _per_rank_registries(tracer: Tracer, transport: Transport
                         ) -> list[MetricsRegistry]:
    """One measured registry per rank: traffic totals + span rollups."""
    traffic = transport.per_rank_traffic()
    regs = []
    for rank in range(tracer.nranks):
        reg = MetricsRegistry(rank=rank)
        ts = traffic.get(rank)
        if ts is not None:
            reg.counter("comm.messages").inc(ts.messages)
            reg.counter("comm.bytes").inc(ts.nbytes)
            reg.counter("comm.onesided_messages").inc(ts.onesided_messages)
            reg.counter("comm.onesided_bytes").inc(ts.onesided_nbytes)
            reg.counter("comm.resends").inc(ts.resends)
        for ev in tracer.events(rank):
            if ev.ph != SPAN:
                continue
            reg.histogram(f"span.{ev.cat}.{ev.name}.seconds").observe(
                ev.dur)
            if ev.name == "recv":
                reg.counter("comm.recv_wait_seconds").inc(ev.dur)
            elif ev.name == "barrier":
                reg.counter("sync.barrier_wait_seconds").inc(ev.dur)
        regs.append(reg)
    return regs


def build_report(app: str, nprocs: int, steps: int, tracer: Tracer,
                 transport: Transport, clocks: VirtualClocks,
                 model: MetricsRegistry) -> dict[str, Any]:
    """Assemble the ``metrics.json`` document for one traced run."""
    regs = _per_rank_registries(tracer, transport)
    summary = transport.traffic_summary()
    hottest = summary.hottest_pair()
    coll_by_kind: dict[str, dict[str, float]] = {}
    for rec in transport.collectives:
        slot = coll_by_kind.setdefault(rec.kind, {"calls": 0, "bytes": 0.0})
        slot["calls"] += 1
        slot["bytes"] += rec.nbytes_per_rank * rec.nprocs
    return {
        "app": app,
        "nprocs": nprocs,
        "steps": steps,
        "events": len(tracer),
        "aggregate": MetricsRegistry.aggregate(regs),
        "per_rank": [reg.to_dict() for reg in regs],
        "traffic": {
            "messages": summary.messages,
            "bytes": summary.nbytes,
            "onesided_messages": summary.onesided_messages,
            "onesided_bytes": summary.onesided_nbytes,
            "resends": summary.resends,
            "by_pair": {f"{s}->{d}": n
                        for (s, d), n in sorted(summary.by_pair.items())},
            "by_tag": {str(t): n
                       for t, n in sorted(summary.by_tag.items())},
            "hottest_pair": (f"{hottest[0][0]}->{hottest[0][1]}"
                             if hottest else None),
            "collectives": coll_by_kind,
        },
        "virtual_time": {
            "makespan": clocks.makespan,
            "imbalance": clocks.imbalance,
            "per_rank": [clocks.time(r) for r in range(nprocs)],
        },
        "model": model.to_dict(),
    }


def trace_app(app: str, *, steps: int | None = None,
              nprocs: int | None = None,
              outdir: str | Path | None = ".",
              backend: str = "thread") -> TraceRun:
    """Run ``app`` with tracing on; write trace/events/metrics files.

    ``outdir=None`` skips the file writes (in-memory result only).
    ``backend="process"`` runs the ranks as OS processes; each worker
    spools its events to JSONL and the merged trace lands in the same
    files (wall-clock timestamps share one monotonic timebase).
    """
    entry = get_app(app)
    nprocs = entry.nprocs if nprocs is None else nprocs
    steps = entry.steps if steps is None else steps
    if nprocs < 1 or steps < 1:
        raise ValueError("nprocs and steps must be >= 1")
    out = None if outdir is None else _make_outdir(outdir)

    clocks = VirtualClocks(nprocs)
    tracer = Tracer(nprocs, clocks=clocks, advance_clocks=True)
    transport = Transport(nprocs)
    transport.tracer = tracer
    entry.case(nprocs=nprocs).run(steps, transport=transport,
                                  backend=backend)
    model = MetricsRegistry()
    entry.profile.feed_metrics(model, entry.model_config(nprocs))

    report = build_report(app, nprocs, steps, tracer, transport, clocks,
                          model)
    run = TraceRun(app, nprocs, steps, tracer, transport, clocks, report)
    if out is not None:
        run.trace_path = write_chrome_trace(
            out / "trace.json", tracer, process_name=f"repro {app}")
        run.events_path = write_events_jsonl(out / "events.jsonl", tracer)
        run.metrics_path = write_metrics_json(out / "metrics.json", report)
    return run


def model_profile(app: str, nprocs: int):
    """The :class:`~repro.perf.work.AppProfile` for the configuration
    :func:`trace_app` runs — the model-side half of the measured-vs-
    modeled join, from the same catalogue entry as the run itself.
    """
    entry = get_app(app)
    return entry.profile.build_profile(entry.model_config(nprocs))


def report_app(app: str, *, steps: int | None = None,
               nprocs: int | None = None, machine: str = "ES",
               threshold: float | None = None,
               outdir: str | Path | None = ".",
               backend: str = "thread",
               ) -> tuple[TraceRun, dict[str, Any]]:
    """Run ``app`` traced, then profile it: the ``repro report`` path.

    Writes the usual trace/events/metrics files plus ``report.json``
    when ``outdir`` is given; returns the run and the report document.
    """
    from .profile import DEFAULT_THRESHOLD, build_report

    run = trace_app(app, steps=steps, nprocs=nprocs, outdir=outdir,
                    backend=backend)
    doc = build_report(
        run.tracer, app=app, nprocs=run.nprocs,
        profile=model_profile(app, run.nprocs), machine=machine,
        threshold=DEFAULT_THRESHOLD if threshold is None else threshold)
    # Publish the attribution as run-level metrics so metrics.json
    # answers "where did the time go" without re-parsing the trace.
    prof = MetricsRegistry()
    prof.ingest_attribution(doc)
    agg = run.report["aggregate"]
    agg["counters"] = dict(sorted(
        {**agg["counters"], **prof.to_dict()["counters"]}.items()))
    if outdir is not None:
        run.metrics_path = write_metrics_json(
            Path(outdir) / "metrics.json", run.report)
        path = Path(outdir) / "report.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return run, doc


def report_from_files(trace: str | Path, *,
                      metrics: str | Path | None = None,
                      app: str | None = None, nprocs: int | None = None,
                      machine: str = "ES",
                      threshold: float | None = None,
                      outdir: str | Path | None = None) -> dict[str, Any]:
    """Profile a previously recorded trace: the offline report path.

    The (app, nprocs) context for the model join comes from ``app``/
    ``nprocs`` or from a ``metrics.json`` written by :func:`trace_app`;
    without either the report still carries attribution, wait states
    and the critical path, just no model comparison.
    """
    from .profile import DEFAULT_THRESHOLD, ProfileError, build_report

    if metrics is not None:
        mpath = Path(metrics)
        if not mpath.exists():
            raise ProfileError(f"metrics file not found: {mpath}")
        try:
            mdoc = json.loads(mpath.read_text())
        except json.JSONDecodeError as err:
            raise ProfileError(
                f"{mpath} is not valid JSON: {err}") from err
        if not isinstance(mdoc, dict):
            raise ProfileError(f"{mpath} is not a metrics.json document")
        app = app if app is not None else mdoc.get("app")
        nprocs = nprocs if nprocs is not None else mdoc.get("nprocs")
    out = None if outdir is None else _make_outdir(outdir)
    profile = None
    if app is not None:
        if app not in APPS:
            raise ProfileError(
                f"unknown app {app!r}; choose from {', '.join(APPS)}")
        if nprocs is not None:
            profile = model_profile(app, int(nprocs))
    doc = build_report(
        trace, app=app, nprocs=int(nprocs) if nprocs is not None else None,
        profile=profile, machine=machine,
        threshold=DEFAULT_THRESHOLD if threshold is None else threshold)
    if out is not None:
        (out / "report.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True))
    return doc
