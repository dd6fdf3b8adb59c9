"""Step executors: what each campaign step kind actually runs.

An executor receives a :class:`StepContext` and returns a
:class:`StepOutcome` — a **deterministic** result payload (safe to
embed in the canonical campaign report and the content-addressed
store) plus named artifact files (trace/metrics/report/bench JSON,
free to be timing-dependent; they are stored but never hashed into the
report).  Executors raise the typed errors from
:mod:`repro.resilience.failures` so the pool can classify without
string matching; any untyped exception classifies via
:func:`~repro.resilience.failures.classify_failure`.

Kinds
-----
``probe``     synthetic step for tests/smoke: deterministic payload
              derived from the config hash, optional simulated work
              (cancellable between slices)
``trace``     run one app traced (:func:`repro.obs.runner.trace_app`);
              artifacts: trace.json, events.jsonl, metrics.json
``report``    run + profile one app (:func:`repro.obs.runner.
              report_app`); artifacts additionally include report.json
``validate``  short physics validation of one app: its serial gate in
              :mod:`repro.apps.catalogue`, as ``repro apps`` runs it
``bench``     quick kernel benchmark subset (artifact bench.json)
``cli``       run ``python -m repro <argv>`` in a child process and
              classify its *typed exit code* (see README) — the
              string-matching-free contract with the CLI
``summary``   aggregate the dependency results already in the store

``trace``, ``report`` and ``bench`` steps accept a ``backend`` config
key (``thread`` | ``process``), making the execution backend a natural
campaign matrix axis (``matrix: {backend: [thread, process]}``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..resilience.failures import (
    FatalStepError,
    PersistentStepError,
    StepTimeoutError,
    TransientStepError,
    classify_exit,
)
from .spec import StepSpec
from .store import ResultStore

#: seconds per cancellation-check slice of simulated probe work
_SLICE_S = 0.01


@dataclass
class StepContext:
    """Everything an executor may touch."""

    step: StepSpec
    attempt: int
    workdir: Path
    store: ResultStore
    seed: int
    cancel: threading.Event
    #: dependency id -> deterministic result payload (None for a
    #: dependency that did not produce one — failed/skipped deps never
    #: reach an executor, so None only appears for foreign kinds)
    dep_results: dict[str, dict | None] = field(default_factory=dict)

    def check_cancelled(self) -> None:
        if self.cancel.is_set():
            raise StepTimeoutError(
                f"step {self.step.id} cancelled (wall-clock budget "
                f"{self.step.timeout_s}s exceeded)")


@dataclass
class StepOutcome:
    """What a successful executor hands back."""

    result: dict
    artifacts: dict[str, Path] = field(default_factory=dict)


Executor = Callable[[StepContext], StepOutcome]


def apply_injection(ctx: StepContext) -> None:
    """Deterministic failure injection for tests and chaos smoke runs.

    Runs before the executor; the injected failure classes drive the
    pool's retry/skip/abort machinery exactly like organic ones.
    """
    inject = ctx.step.inject
    if not inject:
        return
    if inject.get("fatal"):
        raise FatalStepError(
            f"injected fatal failure in step {ctx.step.id}")
    if inject.get("persistent"):
        raise PersistentStepError(
            f"injected persistent failure in step {ctx.step.id}")
    transient = int(inject.get("transient", 0))
    if ctx.attempt < transient:
        raise TransientStepError(
            f"injected transient failure in step {ctx.step.id} "
            f"(attempt {ctx.attempt} of {transient})")
    if inject.get("hang"):
        # Block until the pool's timeout cancels us; honoring the
        # cancel keeps the worker slot reclaimable.
        while not ctx.cancel.wait(_SLICE_S):
            pass
        ctx.check_cancelled()


def _simulate_work(ctx: StepContext, seconds: float) -> None:
    """Sleep in small cancellable slices (probe steps only)."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        ctx.check_cancelled()
        time.sleep(min(_SLICE_S,
                       max(deadline - time.perf_counter(), 0.0)))
    ctx.check_cancelled()


def run_probe(ctx: StepContext) -> StepOutcome:
    cfg = ctx.step.config
    _simulate_work(ctx, float(cfg.get("work_s", 0.0)))
    result = {
        "value": ctx.step.key[:16],
        "payload": cfg.get("payload"),
        "deps": sorted(ctx.dep_results),
    }
    return StepOutcome(result=result)


def run_trace(ctx: StepContext) -> StepOutcome:
    from ..obs.runner import trace_app

    cfg = ctx.step.config
    app = cfg.get("app")
    if app is None:
        raise FatalStepError(f"trace step {ctx.step.id}: missing `app`")
    backend = _cfg_backend(cfg, ctx.step.id)
    run = trace_app(str(app),
                    steps=_opt_int(cfg, "steps"),
                    nprocs=_opt_int(cfg, "nprocs"),
                    outdir=ctx.workdir, backend=backend)
    # Deterministic structure only: counts agree bit-for-bit across
    # runs (and across backends — that parity is part of the process
    # backend's contract), while the virtual makespan is
    # wall-time-derived and lives in the metrics.json artifact instead.
    result = {
        "app": run.app,
        "nprocs": run.nprocs,
        "steps": run.steps,
        "backend": backend,
        "events": run.report["events"],
        "comm_messages": run.report["traffic"]["messages"],
        "comm_bytes": run.report["traffic"]["bytes"],
    }
    return StepOutcome(result=result, artifacts={
        "trace.json": run.trace_path,
        "events.jsonl": run.events_path,
        "metrics.json": run.metrics_path,
    })


def run_report(ctx: StepContext) -> StepOutcome:
    from ..obs.profile import ProfileError, validate_report
    from ..obs.runner import report_app

    cfg = ctx.step.config
    app = cfg.get("app")
    if app is None:
        raise FatalStepError(f"report step {ctx.step.id}: missing `app`")
    backend = _cfg_backend(cfg, ctx.step.id)
    try:
        run, doc = report_app(str(app),
                              steps=_opt_int(cfg, "steps"),
                              nprocs=_opt_int(cfg, "nprocs"),
                              machine=str(cfg.get("machine", "ES")),
                              outdir=ctx.workdir, backend=backend)
        validate_report(doc)
    except ProfileError as exc:
        raise FatalStepError(f"report step {ctx.step.id}: {exc}") from exc
    result = {
        "app": run.app,
        "nprocs": run.nprocs,
        "steps": run.steps,
        "backend": backend,
        "machine": str(cfg.get("machine", "ES")),
        "phases": sorted(p["name"] for p in doc["attribution"]["phases"]),
        "validated": True,
    }
    return StepOutcome(result=result, artifacts={
        "trace.json": run.trace_path,
        "metrics.json": run.metrics_path,
        "report.json": ctx.workdir / "report.json",
    })


def run_validate(ctx: StepContext) -> StepOutcome:
    from ..apps.catalogue import CATALOGUE, ValidationError

    app = ctx.step.config.get("app")
    entry = CATALOGUE.get(str(app))
    if entry is None:
        raise FatalStepError(
            f"validate step {ctx.step.id}: unknown app {app!r} "
            f"(choose from {sorted(CATALOGUE)})")
    try:
        payload, _ = entry.validate()
    except ValidationError as exc:
        raise PersistentStepError(str(exc)) from exc
    return StepOutcome(result={"app": entry.name, **payload})


def run_bench(ctx: StepContext) -> StepOutcome:
    from ..perf.bench import run_bench as perf_run_bench

    cfg = ctx.step.config
    only = cfg.get("only")
    if isinstance(only, str):
        only = [s for s in only.split(",") if s]
    backend = _cfg_backend(cfg, ctx.step.id)
    doc = perf_run_bench(quick=bool(cfg.get("quick", True)), only=only,
                         backend=backend)
    out = ctx.workdir / "bench.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    result = {"benchmarks": sorted(doc["benchmarks"]),
              "quick": bool(cfg.get("quick", True)),
              "backend": backend}
    return StepOutcome(result=result, artifacts={"bench.json": out})


def run_cli(ctx: StepContext) -> StepOutcome:
    cfg = ctx.step.config
    argv = cfg.get("argv")
    if not isinstance(argv, list) or not argv:
        raise FatalStepError(
            f"cli step {ctx.step.id}: `argv` must be a non-empty list")
    argv = [str(a) for a in argv]
    src_root = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    stdout_path = ctx.workdir / "stdout.txt"
    with open(stdout_path, "wb") as out:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=out, stderr=subprocess.STDOUT,
            cwd=ctx.workdir, env=env)
        while True:
            try:
                code = proc.wait(timeout=_SLICE_S * 10)
                break
            except subprocess.TimeoutExpired:
                if ctx.cancel.is_set():
                    proc.kill()
                    proc.wait()
                    raise StepTimeoutError(
                        f"cli step {ctx.step.id} killed after "
                        f"exceeding its {ctx.step.timeout_s}s budget"
                    ) from None
    cls = classify_exit(code)
    if cls is not None:
        err = {
            "transient": TransientStepError,
            "persistent": PersistentStepError,
            "fatal": FatalStepError,
        }[cls]
        raise err(f"cli step {ctx.step.id}: `repro "
                  f"{' '.join(argv)}` exited {code} ({cls})")
    return StepOutcome(result={"argv": argv, "exit_code": 0},
                       artifacts={"stdout.txt": stdout_path})


def run_summary(ctx: StepContext) -> StepOutcome:
    lines = [f"campaign summary: {len(ctx.dep_results)} upstream "
             f"step(s)"]
    deps = {}
    for dep_id in sorted(ctx.dep_results):
        payload = ctx.dep_results[dep_id]
        deps[dep_id] = payload if isinstance(payload, dict) else None
        lines.append(f"  {dep_id}: "
                     f"{json.dumps(payload, sort_keys=True)}")
    out = ctx.workdir / "summary.txt"
    out.write_text("\n".join(lines) + "\n")
    return StepOutcome(result={"steps": sorted(deps), "n": len(deps)},
                       artifacts={"summary.txt": out})


EXECUTORS: dict[str, Executor] = {
    "probe": run_probe,
    "trace": run_trace,
    "report": run_report,
    "validate": run_validate,
    "bench": run_bench,
    "cli": run_cli,
    "summary": run_summary,
}


def execute(ctx: StepContext) -> StepOutcome:
    """Injection, then the kind's executor.  Unknown kinds are fatal."""
    executor = EXECUTORS.get(ctx.step.kind)
    if executor is None:
        raise FatalStepError(
            f"step {ctx.step.id}: unknown kind {ctx.step.kind!r} "
            f"(choose from {sorted(EXECUTORS)})")
    apply_injection(ctx)
    return executor(ctx)


def _opt_int(cfg: dict, key: str) -> int | None:
    value = cfg.get(key)
    return None if value is None else int(value)


def _cfg_backend(cfg: dict, step_id: str) -> str:
    """Validate the step's `backend` config key (matrix-axis friendly)."""
    backend = str(cfg.get("backend", "thread"))
    if backend not in ("thread", "process"):
        raise FatalStepError(
            f"step {step_id}: unknown backend {backend!r} "
            f"(choose thread or process)")
    return backend
