"""Silent-data-corruption detection: invariant watchdogs per application.

The wire protocol (PR 1) protects bytes *in flight* — checksummed
envelopes, retry, restart-on-crash.  None of that sees a bit flip in a
rank's live memory or in a checkpoint on disk: the run keeps stepping
and the physics is silently wrong.  This module closes that gap with
*algorithm-based* fault tolerance: every application has conserved or
monotone quantities whose violation is the corruption detector.

* **LBMHD** — total mass and momentum are collision invariants; drift
  beyond float rounding means the distributions were tampered with.
* **Cactus** — the Hamiltonian-constraint norm of a valid ADM evolution
  stays bounded; corruption of the metric or extrinsic curvature makes
  it explode.
* **GTC** — the particle count is exactly conserved across shifts, and
  the delta-f weighted energy drifts only slowly.
* **PARATEC** — band coefficient vectors are orthonormal after every
  subspace rotation, and the all-band CG total band energy is
  variational (non-increasing over outer iterations).

plus a generic NaN/Inf field guard for every app.  Checks are
SPMD-collective: the monitored value is an ``allreduce`` result, so all
ranks agree and raise :class:`SDCDetectedError` together — the
supervisor sees one root cause, classifies it (transient vs.
persistent) and rolls the job back to the last *verified* checkpoint.

Determinism: monitors compare against references captured on their
first check of a (re)started run, thresholds are configuration, and the
injected corruption they catch is itself a keyed-hash schedule
(:meth:`~repro.runtime.faults.FaultPlan.sdc_site`) — a seeded SDC run
detects at the same step, rolls back to the same checkpoint and
finishes with the same answer every time.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..apps import APPS  # noqa: F401 - re-exported for harnesses
from ..obs.events import CAT_HEALTH


class SDCDetectedError(RuntimeError):
    """An invariant monitor flagged silent data corruption.

    The supervisor's rollback trigger, as :class:`~repro.runtime.faults.
    RankCrashError` is its restart trigger.  Carries the full diagnosis:
    which monitor tripped, on which rank, at which step, and how far the
    value drifted from its reference.
    """

    def __init__(self, rank: int, step: int, monitor: str, value: float,
                 reference: float, drift: float, threshold: float):
        super().__init__(
            f"invariant {monitor!r} violated on rank {rank} at step "
            f"{step}: value {value:.6g}, reference {reference:.6g}, "
            f"drift {drift:.3g} > threshold {threshold:.3g}")
        self.rank = rank
        self.step = step
        self.monitor = monitor
        self.value = value
        self.reference = reference
        self.drift = drift
        self.threshold = threshold

    def __reduce__(self):
        return (type(self),
                (self.rank, self.step, self.monitor, self.value,
                 self.reference, self.drift, self.threshold))


@dataclass(frozen=True)
class CheckRecord:
    """One invariant evaluation (passing or violating)."""

    rank: int
    step: int
    monitor: str
    value: float
    reference: float
    drift: float
    threshold: float
    ok: bool


class HealthLog:
    """Thread-safe sink for :class:`CheckRecord` across ranks and runs."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[CheckRecord] = []

    def __getstate__(self) -> dict:
        """Lock-free snapshot so a log can ship to worker processes."""
        return {"_records": list(self._records)}

    def __setstate__(self, state: dict) -> None:
        self._records = list(state["_records"])
        self._lock = threading.Lock()

    def append(self, rec: CheckRecord) -> None:
        with self._lock:
            self._records.append(rec)

    @property
    def records(self) -> list[CheckRecord]:
        with self._lock:
            return list(self._records)

    def violations(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.ok]

    def summary(self) -> list[dict[str, Any]]:
        """Per-monitor rollup: checks, final value, worst drift, status."""
        by_mon: dict[str, list[CheckRecord]] = {}
        for rec in self.records:
            by_mon.setdefault(rec.monitor, []).append(rec)
        out = []
        for name in sorted(by_mon):
            recs = by_mon[name]
            worst = max(recs, key=lambda r: r.drift)
            out.append({
                "monitor": name,
                "checks": len(recs),
                "reference": recs[0].reference,
                "last_value": recs[-1].value,
                "max_drift": worst.drift,
                "threshold": worst.threshold,
                "ok": all(r.ok for r in recs),
            })
        return out


@dataclass
class HealthConfig:
    """Invariant-monitor configuration for one monitored run.

    ``check_every`` sets the check cadence in steps (1 = every step —
    detection latency 0; larger values trade latency for overhead).
    ``thresholds`` overrides per-monitor drift thresholds by name.
    ``log`` collects every check for reporting (``None`` = detect only).
    """

    check_every: int = 1
    thresholds: dict[str, float] = field(default_factory=dict)
    log: HealthLog | None = None

    def __post_init__(self) -> None:
        if self.check_every < 1:
            raise ValueError("check_every must be >= 1")


class HealthMonitor:
    """Per-rank invariant watchdog bound to one communicator.

    Check methods are **collective**: every rank must call them at the
    same program point with its local contribution already reduced (or
    with the same global value).  References are captured on the first
    check of each monitor, so a rollback re-anchors to the restored —
    verified — state.
    """

    def __init__(self, comm, config: HealthConfig | None = None):
        self.comm = comm
        self.config = config if config is not None else HealthConfig()
        self._refs: dict[str, float] = {}
        self._prev: dict[str, float] = {}

    def due(self, step: int) -> bool:
        """True when ``step`` is a check step under the configured cadence."""
        return (step + 1) % self.config.check_every == 0

    def threshold(self, name: str, default: float) -> float:
        return self.config.thresholds.get(name, default)

    # -- recording / raising ------------------------------------------------
    def _report(self, step: int, name: str, value: float, ref: float,
                drift: float, thr: float, ok: bool) -> None:
        log = self.config.log
        if log is not None and (not ok or self.comm.rank == 0):
            log.append(CheckRecord(self.comm.rank, step, name, value,
                                   ref, drift, thr, ok))
        if not ok:
            tracer = self.comm.transport.tracer
            if tracer.enabled:
                tracer.instant(self.comm.rank, "invariant-violation",
                               CAT_HEALTH,
                               {"monitor": name, "step": step,
                                "value": value, "reference": ref,
                                "drift": drift})
            raise SDCDetectedError(self.comm.rank, step, name, value,
                                   ref, drift, thr)

    # -- invariant checks ---------------------------------------------------
    def check_conserved(self, step: int, name: str, value: float, *,
                        default_threshold: float,
                        scale: float | None = None) -> None:
        """``value`` must stay within relative drift of its first reading.

        ``scale`` sets the drift denominator floor for quantities whose
        reference is legitimately near zero (e.g. net momentum — pass
        the total mass as the scale).
        """
        value = float(value)
        ref = self._refs.setdefault(name, value)
        denom = max(abs(ref), abs(scale) if scale is not None else 0.0,
                    1e-300)
        drift = abs(value - ref) / denom
        thr = self.threshold(name, default_threshold)
        self._report(step, name, value, ref, drift, thr,
                     math.isfinite(value) and drift <= thr)

    def check_bounded(self, step: int, name: str, value: float, *,
                      default_growth: float,
                      floor: float = 1e-12) -> None:
        """``value`` must not exceed ``growth x`` its first reading.

        For residual-like quantities (constraint norms) that are nonzero
        by discretization and may grow slowly but not explosively;
        ``floor`` keeps the bound meaningful when the reference is at
        rounding level.
        """
        value = float(value)
        ref = self._refs.setdefault(name, value)
        growth = self.threshold(name, default_growth)
        bound = growth * max(abs(ref), floor)
        drift = value / max(abs(ref), floor)
        self._report(step, name, value, ref, drift, growth,
                     math.isfinite(value) and value <= bound)

    def check_monotone(self, step: int, name: str, value: float, *,
                       default_slack: float) -> None:
        """``value`` must not increase beyond relative ``slack`` per check.

        For variational quantities (total band energy in all-band CG,
        SCF residuals): corruption shows up as an energy *increase* that
        a correct minimizer cannot produce.
        """
        value = float(value)
        prev = self._prev.get(name)
        self._prev[name] = value
        if prev is None:
            self._refs.setdefault(name, value)
            return
        slack = self.threshold(name, default_slack)
        rise = (value - prev) / max(abs(prev), 1e-300)
        self._report(step, name, value, prev, max(rise, 0.0), slack,
                     math.isfinite(value) and rise <= slack)

    def check_absolute(self, step: int, name: str, value: float, *,
                       default_threshold: float) -> None:
        """``|value|`` must stay below an absolute threshold.

        For deviation-from-exact quantities with a known zero reference
        (e.g. max wavefunction-normalization error after a subspace
        rotation leaves the bands orthonormal by construction).
        """
        value = float(value)
        thr = self.threshold(name, default_threshold)
        self._report(step, name, value, 0.0, abs(value), thr,
                     math.isfinite(value) and abs(value) <= thr)

    def guard_finite(self, step: int, name: str,
                     *arrays: np.ndarray) -> None:
        """Collective NaN/Inf guard over the named state arrays.

        The finiteness verdict is allreduced so every rank raises (or
        passes) together even though the corruption is rank-local.
        """
        bad_local = sum(int(not np.all(np.isfinite(
            a.view(np.float64) if np.iscomplexobj(a) else a)))
            for a in arrays)
        bad = self.comm.allreduce(bad_local)
        self._report(step, name, float(bad), 0.0, float(bad), 0.0,
                     bad == 0)


# ---------------------------------------------------------------------------
# Monitored-run harness: one entry point the chaos --sdc pass and the
# `python -m repro health <app>` report share.
# ---------------------------------------------------------------------------

#: steps of each app's monitored run (PARATEC: outer CG iterations)
_STEPS = {"lbmhd": 6, "cactus": 4, "gtc": 4, "paratec": 4}


@dataclass
class MonitoredRun:
    """Outcome of one app run under invariant monitoring."""

    app: str
    rel_err: float                 # monitored vs. fault-free result
    bitwise: bool                  # exact match to the fault-free run
    log: HealthLog
    policy: Any                    # RecoveryPolicy (history populated)
    injector: Any                  # FaultInjector or None
    detail: str


def sdc_plan(app: str, seed: int) -> "Any":
    """The demonstration SDC schedule for ``app``: one deterministic
    bit flip in a named state array mid-run, plus one checkpoint-file
    corruption, no wire faults.

    Bit 62 rescales a float64 by ``2**+-512`` — physically loud, so the
    invariant monitors must catch it the same step.  PARATEC uses bit 56
    (``x 65536``): large enough to break variational monotonicity, small
    enough that the Gram matrix stays finite (overflowing to ``inf``
    would fail in ``cholesky`` before any monitor runs, which would test
    the wrong path).
    """
    from ..runtime.faults import FaultPlan

    site = {
        "lbmhd": dict(sdc_arrays=("f",), sdc_rank=1, sdc_step=3,
                      sdc_bit=62),
        "cactus": dict(sdc_arrays=("K",), sdc_rank=1, sdc_step=2,
                       sdc_bit=62),
        "gtc": dict(sdc_arrays=("v_par",), sdc_rank=0, sdc_step=2,
                    sdc_bit=62),
        "paratec": dict(sdc_arrays=("coeff",), sdc_rank=1, sdc_step=2,
                        sdc_bit=56),
    }[app]
    # Also damage the checkpoint written at the flip step on rank 0:
    # the rollback must *skip* it (CRC mismatch) and restore the next
    # older verified step, exercising both detection layers at once.
    return FaultPlan(seed=seed, sdc_rate=1.0, ckpt_corrupt=1.0,
                     ckpt_corrupt_rank=0,
                     ckpt_corrupt_step=site["sdc_step"], **site)


def run_monitored(app: str, *, ckdir: str, sdc: bool = False,
                  seed: int = 2004, persistent: bool = False,
                  check_every: int = 1,
                  backend: str = "thread") -> MonitoredRun:
    """Run ``app`` twice — fault-free, then monitored (optionally under
    the demonstration SDC plan) — and compare the results.

    With ``sdc=True`` the monitored pass gets the app's
    :func:`sdc_plan`, checkpointing, and rollback supervision; the
    returned :class:`MonitoredRun` carries the health log, the recovery
    history and the final deviation from the fault-free answer.
    ``persistent=True`` switches the corruption to stuck-at
    (``sdc_once=False``) so the recovery policy's persistent-fault abort
    path can be exercised.
    """
    from dataclasses import replace

    from ..apps.catalogue import get_app
    from ..runtime.faults import FaultInjector
    from .checkpoint import Checkpointer
    from .supervisor import RecoveryPolicy

    entry = get_app(app)
    log = HealthLog()
    health = HealthConfig(check_every=check_every, log=log)
    policy = RecoveryPolicy(max_restarts=3)
    injector = None
    checkpoint = None
    if sdc:
        plan = sdc_plan(app, seed)
        if persistent:
            plan = replace(plan, sdc_once=False)
        injector = FaultInjector(plan)
        checkpoint = Checkpointer(ckdir, injector=injector)
    case = entry.case()
    steps = _STEPS[app]
    clean = case.run(steps)
    try:
        monitored = case.run(steps, backend=backend, injector=injector,
                             checkpoint=checkpoint,
                             checkpoint_every=1 if sdc else 0,
                             health=health, policy=policy)
    except RuntimeError as exc:
        # Unrecovered (e.g. persistent corruption aborted by policy):
        # surface the diagnosis instead of a result.
        final = policy.final_failure
        detail = (f"aborted: {final.describe()}" if final is not None
                  else f"aborted: {exc}")
        return MonitoredRun(app, math.inf, False, log, policy, injector,
                            detail)
    match = entry.compare(clean, monitored)
    try:
        fact = entry.physics(case, monitored)
    except AssertionError as exc:
        return MonitoredRun(app, math.inf, False, log, policy, injector,
                            str(exc))
    how = "bitwise" if match.bitwise else f"rel {match.rel_err:.1e}"
    return MonitoredRun(app, match.rel_err, match.bitwise, log, policy,
                        injector, f"{fact}, {how} vs clean")


def render_report(run: MonitoredRun) -> str:
    """Human-readable invariant report for ``python -m repro health``."""
    lines = [f"{run.app}: {run.detail}"]
    rows = run.log.summary()
    if rows:
        w = max(len(r["monitor"]) for r in rows)
        lines.append(f"  {'monitor':<{w}}  {'checks':>6}  "
                     f"{'reference':>12}  {'last':>12}  "
                     f"{'max drift':>10}  {'threshold':>10}  status")
        for r in rows:
            lines.append(
                f"  {r['monitor']:<{w}}  {r['checks']:>6}  "
                f"{r['reference']:>12.5g}  {r['last_value']:>12.5g}  "
                f"{r['max_drift']:>10.3g}  {r['threshold']:>10.3g}  "
                f"{'ok' if r['ok'] else 'VIOLATED'}")
    hist = getattr(run.policy, "events", [])
    for ev in hist:
        lines.append(f"  recovery: {ev.describe()}")
    if run.injector is not None:
        for rec in run.injector.sdc_records:
            lines.append(
                f"  injected: bit {rec.bit} of {rec.array}[{rec.index}] "
                f"on rank {rec.rank} at step {rec.step} "
                f"({rec.old:.4g} -> {rec.new:.4g})")
    return "\n".join(lines)
