"""One benchmark run: set-up, the closed loop, checks, and the result.

Timed runs (``--trace 0``) attach no tracer and install no wrapper; they
report the end-to-end metrics.  Traced runs (``--trace 1``) alternate an
untraced job with a traced one and report the per-layer ledger; the
difference of their median job times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import os
import statistics
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

from . import harness, ledger, stats
from .workloads import RANKS, JobResult, Workload

#: end-to-end metrics (trace 0) and their units
END_TO_END = (("setup_s", "s"), ("job_s", "s"), ("step_s", "s"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB"))

#: per-layer metrics (trace 1) and their units
PER_LAYER = (
    ("apps.busy_s", "s"), ("apps.other_s", "s"), ("apps.flops", "flop"),
    ("apps.flops_per_word", "flop/word"), ("apps.gflops", "Gflop/s"),
    ("comm.collectives", "count"),
    ("comm.collectives.allreduce", "count"),
    ("comm.collectives.alltoall", "count"),
    ("comm.collectives.allgather", "count"),
    ("comm.collectives.bcast", "count"),
    ("comm.collectives.gather", "count"),
    ("comm.collective_s", "s"), ("comm.barrier_s", "s"),
    ("comm.p2p_s", "s"), ("comm.wait_s", "s"),
    ("transport.messages", "count"), ("transport.bytes", "B"),
    ("transport.post_s", "s"), ("transport.fetch_s", "s"),
    ("transport.resends", "count"), ("transport.discards", "count"),
    ("transport.delivery_ratio", "ratio"),
    ("transport.replay_log_bytes", "B"),
    ("buffers.borrows", "count"), ("buffers.copy_bytes", "B"),
    ("buffers.pool_hit_ratio", "ratio"), ("buffers.pool_drops", "count"),
    ("buffers.busy_s", "s"),
    ("process_backend.spawn_s", "s"), ("process_backend.teardown_s", "s"),
    ("process_backend.shm_segments", "count"),
    ("process_backend.shm_bytes", "B"), ("process_backend.shm_s", "s"),
    ("process_backend.queue_items", "count"),
    ("process_backend.queue_bytes", "B"),
    ("process_backend.queue_put_s", "s"),
    ("checkpoint.saves", "count"), ("checkpoint.bytes", "B"),
    ("checkpoint.save_s", "s"),
    ("health.checks", "count"), ("health.check_s", "s"),
    ("tracer.events", "count"), ("tracer.overhead_s", "s"),
    ("analysis.trace_loads", "count"), ("analysis.load_s", "s"),
    ("analysis.report_s", "s"), ("analysis.races_s", "s"),
    ("analysis.deadlocks_s", "s"), ("analysis.commcheck_s", "s"),
    ("analysis.events", "count"), ("analysis.p2p_edges", "count"),
    ("analysis.collective_rounds", "count"),
    ("layers.unattributed_s", "s"), ("layers.traced_job_s", "s"),
)

#: counts that must repeat exactly from job to job, traced or not (the
#: process workload's also equal its thread reference's)
EXACT_COUNTS = ("transport.messages", "transport.bytes",
                "transport.resends", "comm.collectives",
                "checkpoint.saves", "analysis.events",
                "analysis.p2p_edges", "analysis.collective_rounds")

#: tolerated closure error, relative to the traced job time
CLOSURE_TOLERANCE = 1e-6


@dataclass
class Sample:
    """One completed job as the loop saw it."""

    job_s: float
    cpu_s: float
    result: JobResult
    rank_kb: int = 0              # largest rank process's peak RSS
    error: str | None = None      # failed check (raise/deadline: no Sample)
    window: tuple[float, float] = (0.0, 0.0)
    thread: int = 0


def _one_job(wl: Workload, tracer=None):
    def job() -> Sample:
        c0 = stats.CpuClock.now()
        t0 = perf_counter()
        res = wl.job(tracer=tracer)
        t1 = perf_counter()
        cpu = stats.CpuClock.now().since(c0)
        return Sample(t1 - t0, cpu, res, window=(t0, t1),
                      thread=threading.get_ident())
    return job


def _attempt(wl: Workload, tally: harness.Tally, rank_dir: Path,
             tracer=None) -> tuple[Sample | None, list[dict]]:
    out = harness.run_with_deadline(_one_job(wl, tracer), wl.deadline_s,
                                    wl.abort)
    reports = ledger.collect_rank_reports(rank_dir)
    if out.failed:
        tally.add(out.error)
        return None, reports
    sample: Sample = out.value
    sample.rank_kb = max((r["vmhwm_kb"] for r in reports), default=0)
    sample.error = wl.check(sample.result)
    tally.add(sample.error)
    if tracer is None:
        # Only traced jobs need their transport (and its replay logs).
        sample.result.transport = None
    return sample, reports


def _reference_errors(wl: Workload, samples: list[Sample],
                      tally: harness.Tally) -> None:
    """Compare every passing job with the reference run (after the loop).

    A job that passed its own checks but differs from the reference is
    re-counted as failed.
    """
    ref = wl.reference()
    for s in samples:
        if s.error is not None:
            continue
        if ref is not None and s.result.digest != ref.digest:
            s.error = "output differs from the reference bit for bit"
        elif ref is not None and _exact(s.result) != _exact(ref):
            s.error = (f"counts {_exact(s.result)} differ from the "
                       f"reference's {_exact(ref)}")
        if s.error is not None:
            tally.failed += 1
            if len(tally.reasons) < 5:
                tally.reasons.append(s.error)


def _exact(res: JobResult) -> dict[str, Any]:
    """The logical counts a job is compared on (no fault tallies)."""
    c = res.counts
    return {k: c[k] for k in ("messages", "bytes", "collectives",
                              "p2p_edges", "collective_rounds", "events")
            if k in c}


def _step_s(s: Sample) -> float:
    if s.result.body_s is None:
        return max(s.result.stages.values())   # slowest analyzer stage
    return s.result.body_s / s.result.steps


def run_session(wl: Workload, args: argparse.Namespace, root: Path,
                work: Path) -> dict[str, Any] | None:
    setup_times = wl.setup(args.seed, work)
    harness.emit({"provenance": harness.provenance(
        root, seed=args.seed, workload=wl.name, params=wl.params(),
        backend=wl.backend, ranks=RANKS)})
    rank_dir = work / "ranks"
    rank_dir.mkdir()
    os.environ[ledger.RANK_DIR_ENV] = str(rank_dir)
    if args.trace:
        return _traced(wl, args, rank_dir)
    return _timed(wl, args, rank_dir, setup_times)


def _timed(wl: Workload, args, rank_dir: Path,
           setup_times: list[float]) -> dict[str, Any] | None:
    tally = harness.Tally()
    _attempt(wl, tally, rank_dir)          # warm-up, not timed
    samples: list[Sample] = []
    t_end = perf_counter() + args.seconds
    while True:
        sample, _ = _attempt(wl, tally, rank_dir)
        if sample is not None:
            samples.append(sample)
        if perf_counter() >= t_end:
            break
    parent_kb = stats.vmhwm_kb()     # before the reference runs here
    _reference_errors(wl, samples, tally)
    if not samples:
        harness.emit(f"{wl.name}: no job completed: {tally.reasons}")
        return None
    # Time what passed; a run with failures is reported incorrect anyway.
    samples = [s for s in samples if s.error is None] or samples
    series = {
        "setup_s": (setup_times if setup_times else
                    [s.job_s - s.result.body_s for s in samples]),
        "job_s": [s.job_s for s in samples],
        "step_s": [_step_s(s) for s in samples],
        "cpu_s": [s.cpu_s for s in samples],
    }
    rank_kb = max(s.rank_kb for s in samples)
    peak_mb = (parent_kb + rank_kb) / 1024.0
    harness.emit(f"{wl.name} seed {args.seed}: {tally.attempted} jobs "
                 f"attempted, {tally.failed} failed, fail_ratio "
                 f"{tally.fail_ratio:.4g} (warm-up included)")
    for name, unit in END_TO_END[:-1]:
        harness.emit(f"  {name:<12} "
                     f"{stats.summarize(series[name]).render(unit)}  "
                     f"[{' '.join(f'{v:.4g}' for v in series[name])}]")
    harness.emit(f"  {'peak_rss_mb':<12} {peak_mb:.1f} MB (this process "
                 f"{parent_kb / 1024:.1f} + largest rank process "
                 f"{rank_kb / 1024:.1f})")
    for reason in tally.reasons:
        harness.emit(f"  failure: {reason}")
    metrics = {name: statistics.median(series[name])
               for name, _ in END_TO_END[:-1]}
    metrics["peak_rss_mb"] = peak_mb
    return _result(tally, metrics, END_TO_END)


def _traced(wl: Workload, args, rank_dir: Path) -> dict[str, Any] | None:
    from repro.obs.tracer import Tracer

    tally = harness.Tally()
    _attempt(wl, tally, rank_dir)          # warm-up, not timed
    plain: list[Sample] = []
    traced: list[Sample] = []
    rows: list[dict[str, float]] = []
    problems: list[str] = []
    t_end = perf_counter() + args.seconds
    while perf_counter() < t_end or not rows:
        sample, _ = _attempt(wl, tally, rank_dir)
        if sample is not None:
            plain.append(sample)
        led = ledger.Ledger()
        led.install_parent_layers()
        os.environ[ledger.LEDGER_ENV] = "1"
        tracer = Tracer(RANKS) if wl.uses_tracer else None
        try:
            sample, reports = _attempt(wl, tally, rank_dir, tracer)
        finally:
            del os.environ[ledger.LEDGER_ENV]
            led.uninstall()
        if sample is None:
            if tally.attempted > 50 and not rows:
                break
            continue
        traced.append(sample)
        rows.append(_layer_row(wl, sample, led, reports, tracer, problems))
        sample.result.transport = None
    # Tracing must change neither the results nor the logical traffic.
    _reference_errors(wl, plain + traced, tally)
    if not rows or not plain:
        harness.emit(f"{wl.name}: no traced job completed: "
                     f"{tally.reasons}")
        return None
    metrics = {name: statistics.median(r[name] for r in rows)
               for name, _ in PER_LAYER if name != "tracer.overhead_s"}
    metrics["tracer.overhead_s"] = (
        statistics.median(s.job_s for s in traced)
        - statistics.median(s.job_s for s in plain))
    for name in EXACT_COUNTS:
        seen = {r[name] for r in rows}
        if len(seen) != 1:
            problems.append(f"{name} varies between traced jobs: {seen}")
    seen_counts = {repr(_exact(s.result)) for s in plain + traced}
    if len(seen_counts) != 1:
        problems.append(f"logical counts vary between jobs: "
                        f"{seen_counts}")
    harness.emit(f"{wl.name} seed {args.seed}: {len(traced)} traced and "
                 f"{len(plain)} untraced jobs, {tally.failed} of "
                 f"{tally.attempted} failed")
    for name, unit in PER_LAYER:
        harness.emit(f"  {name:<32} {metrics[name]:.6g} {unit}")
    for reason in tally.reasons + problems:
        harness.emit(f"  failure: {reason}")
    return _result(tally, metrics, PER_LAYER, extra_ok=not problems)


def _layer_row(wl: Workload, s: Sample, led: ledger.Ledger,
               reports: list[dict], tracer, problems: list[str]
               ) -> dict[str, float]:
    """Per-layer metrics of one traced job."""
    res = s.result
    tp = res.transport
    body = dict(tp.body_seconds) if tp is not None else {}
    self_times, unattributed, err = ledger.closure(
        s.window, s.thread, led, reports, tracer, body)
    job_s = s.window[1] - s.window[0]
    if err > CLOSURE_TOLERANCE * job_s:
        problems.append(f"layer self times miss the traced job time by "
                        f"{err:.3g} s")
    counts = ledger.merged_counts(led, reports)
    row: dict[str, float] = {name: self_times.get(name, 0.0)
                             for name in ledger.TIME_LAYERS}
    row["layers.unattributed_s"] = unattributed
    row["layers.traced_job_s"] = job_s
    flops, words = wl.flops()
    busy = row["apps.busy_s"]
    row["apps.flops"] = flops
    row["apps.flops_per_word"] = flops / words if words else 0.0
    row["apps.gflops"] = flops / busy / 1e9 if busy else 0.0
    row["comm.wait_s"] = ledger.wait_seconds(tracer, body)
    kinds = res.counts.get("collectives", {})
    row["comm.collectives"] = sum(kinds.values())
    for kind in ("allreduce", "alltoall", "allgather", "bcast", "gather"):
        row[f"comm.collectives.{kind}"] = kinds.get(kind, 0)
    if tp is not None:
        wire = tp.message_count()
        faults = res.counts.get("faults", {})
        pool = tp.pool.stats()
        takes = pool["hits"] + pool["misses"]
        row.update({
            "transport.messages": res.counts["messages"],
            "transport.bytes": res.counts["bytes"],
            "transport.resends": res.counts["resends"],
            "transport.discards": sum(n for k, n in faults.items()
                                      if k.endswith("-discard")),
            # 0/0 reads 1.0: no wire attempt was wasted
            "transport.delivery_ratio": (res.counts["messages"] / wire
                                         if wire else 1.0),
            "buffers.borrows": tp.buffers.borrows,
            "buffers.copy_bytes": tp.buffers.copy_bytes,
            # 0/0 reads 0.0: no take was served from the pool
            "buffers.pool_hit_ratio": pool["hits"] / takes if takes else 0.0,
            "buffers.pool_drops": pool["drops"],
        })
    else:
        row.update({k: 0.0 for k in (
            "transport.messages", "transport.bytes", "transport.resends",
            "transport.discards", "buffers.borrows", "buffers.copy_bytes",
            "buffers.pool_hit_ratio", "buffers.pool_drops")})
        row["transport.delivery_ratio"] = 1.0
    for name in ("transport.replay_log_bytes",
                 "process_backend.shm_segments", "process_backend.shm_bytes",
                 "process_backend.queue_items", "process_backend.queue_bytes",
                 "checkpoint.saves", "checkpoint.bytes", "health.checks",
                 "analysis.trace_loads"):
        row[name] = counts.get(name, 0)
    an = res.counts
    row["tracer.events"] = (len(tracer) if tracer is not None
                            else an.get("events", 0))
    row["analysis.events"] = an.get("events", 0)
    row["analysis.p2p_edges"] = an.get("p2p_edges", 0)
    row["analysis.collective_rounds"] = an.get("collective_rounds", 0)
    return row


def _result(tally: harness.Tally, metrics: dict[str, float],
            spec, extra_ok: bool = True) -> dict[str, Any]:
    return {
        "correct": tally.failed == 0 and extra_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in spec},
    }
