"""Job-level supervision: restart on crash, roll back on corruption.

:class:`ResilientJob` wraps a :class:`~repro.runtime.comm.ParallelJob`
and consults a :class:`RecoveryPolicy` whenever a run fails:

* a rank crash (:class:`~repro.runtime.faults.RankCrashError` root
  cause) is the *fail-stop* class — restart the job; drivers resume from
  the last verified checkpoint;
* an invariant violation (:class:`~repro.resilience.health.
  SDCDetectedError` root cause) is the *silent-corruption* class — the
  same restart **is** a rollback: the supervisor first quarantines
  every checkpoint labeled at or after the detection step (a quiet
  flip below threshold can be checkpointed, CRC-clean, before a later
  check catches it), then drivers resume from
  :meth:`~repro.resilience.checkpoint.Checkpointer.latest_verified`,
  which now strictly predates the detection;
* anything else (a genuine bug, a timeout, an unreadable checkpoint on
  a resume path) is *fatal* — re-raised unchanged.  Restarts recover
  injected/operational faults; they must not mask application errors.

Classification: the policy remembers each failure's signature (fault
kind + monitor/exception + step).  The first occurrence is *transient*
— retry, after exponential backoff.  A repeat of the same signature is
*persistent* (a stuck-at fault re-fires identically on replay) — abort
with the full diagnosis rather than loop.  Every decision is recorded
as a :class:`RecoveryEvent` (kind, classification, action, rank, step,
detection latency), mirrored to the tracer (``CAT_HEALTH`` instants)
and readable by :meth:`~repro.obs.metrics.MetricsRegistry.
ingest_recovery`.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..obs.events import CAT_HEALTH
from ..runtime.comm import ParallelJob
from ..runtime.faults import RankCrashError, RankKilledError
from .failures import SDCDetectedError

#: failure classes the policy can retry
KIND_CRASH = "crash"
KIND_KILL = "kill"
KIND_SDC = "sdc"
KIND_FATAL = "fatal"


@dataclass(frozen=True)
class RecoveryEvent:
    """One supervision decision: what failed and what was done about it."""

    kind: str                      # KIND_CRASH | KIND_SDC | KIND_FATAL
    classification: str            # "transient" | "persistent" | "fatal"
    action: str                    # "restart" | "rollback" | "abort"
    exception: str                 # root-cause exception type name
    message: str
    rank: int | None
    step: int | None
    monitor: str | None            # invariant name (SDC only)
    attempt: int                   # restarts already performed
    backoff: float = 0.0           # seconds slept before the retry
    latency_steps: int | None = None   # detection step - injection step

    def describe(self) -> str:
        where = []
        if self.rank is not None:
            where.append(f"rank {self.rank}")
        if self.step is not None:
            where.append(f"step {self.step}")
        loc = " at ".join(where) if where else "unknown site"
        extra = f" [{self.monitor}]" if self.monitor else ""
        lat = (f", detected after {self.latency_steps} step(s)"
               if self.latency_steps is not None else "")
        return (f"{self.classification} {self.kind}{extra} on {loc} "
                f"-> {self.action}{lat} ({self.exception})")


@dataclass
class RecoveryPolicy:
    """Decides restart vs. abort and keeps the recovery history.

    ``max_restarts`` bounds the total restart budget per :meth:`
    ResilientJob.run`.  ``backoff_base`` seeds the retry backoff —
    *decorrelated jitter* (AWS architecture-blog flavor): each pause is
    drawn uniformly from ``[base, 3 * previous]``, capped at
    ``backoff_max``, so simultaneous per-rank retries spread out
    instead of synchronizing into a retry storm the way a bare
    ``base * 2**attempt`` schedule does.  The draw is seeded
    (``seed``) and therefore reproducible; ``jitter=False`` restores
    the deterministic exponential schedule.  Pointless for an
    in-process simulation's own sake, but it is the shape a real job
    supervisor needs and the slept duration is recorded
    (``RecoveryEvent.backoff``) so tests can assert the schedule.
    ``retry_crash`` / ``retry_sdc`` gate the recoverable fault classes
    (rank kills ride the ``retry_crash`` gate).
    """

    max_restarts: int = 2
    backoff_base: float = 0.02
    backoff_max: float = 1.0
    retry_crash: bool = True
    retry_sdc: bool = True
    #: decorrelated jitter on retry pauses (seeded, reproducible)
    jitter: bool = True
    seed: int = 0
    #: decisions made by the most recent supervised run
    events: list[RecoveryEvent] = field(default_factory=list)
    _seen: set = field(default_factory=set, repr=False)
    _rng: random.Random = field(default=None, repr=False)  # type: ignore
    _prev_backoff: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff must be >= 0")
        self._rng = random.Random(self.seed)
        self._prev_backoff = self.backoff_base

    def reset(self) -> None:
        self.events.clear()
        self._seen.clear()
        self._rng = random.Random(self.seed)
        self._prev_backoff = self.backoff_base

    # -- classification -----------------------------------------------------
    @staticmethod
    def describe_cause(cause: BaseException
                       ) -> tuple[str, int | None, int | None, str | None]:
        """(kind, rank, step, monitor) of a root-cause exception."""
        if isinstance(cause, SDCDetectedError):
            return KIND_SDC, cause.rank, cause.step, cause.monitor
        if isinstance(cause, RankKilledError):
            # A fail-stop loss that online recovery did *not* absorb
            # (no spares, no shrink hook, or repair itself failed):
            # degrade gracefully to the whole-job restart path.
            return (KIND_KILL, getattr(cause, "rank", None),
                    getattr(cause, "step", None), None)
        if isinstance(cause, RankCrashError):
            return (KIND_CRASH, getattr(cause, "rank", None),
                    getattr(cause, "step", None), None)
        return KIND_FATAL, None, None, None

    def _signature(self, kind: str, step: int | None,
                   monitor: str | None, exc: str) -> tuple:
        return (kind, step, monitor, exc)

    def decide(self, cause: BaseException, attempt: int
               ) -> RecoveryEvent:
        """Classify ``cause`` and choose restart/rollback vs. abort.

        ``attempt`` is the number of restarts already performed.  The
        returned event is *not* yet recorded — the supervisor appends it
        after acting on it (so the backoff actually slept can be filled
        in).
        """
        kind, rank, step, monitor = self.describe_cause(cause)
        exc = type(cause).__name__
        retryable = ((kind in (KIND_CRASH, KIND_KILL)
                      and self.retry_crash)
                     or (kind == KIND_SDC and self.retry_sdc))
        if kind == KIND_FATAL or not retryable:
            classification = "fatal"
        else:
            sig = self._signature(kind, step, monitor, exc)
            classification = ("persistent" if sig in self._seen
                              else "transient")
            self._seen.add(sig)
        if (classification == "transient"
                and attempt < self.max_restarts):
            action = "rollback" if kind == KIND_SDC else "restart"
        else:
            action = "abort"
        return RecoveryEvent(
            kind=kind, classification=classification, action=action,
            exception=exc, message=str(cause), rank=rank, step=step,
            monitor=monitor, attempt=attempt)

    def backoff(self, attempt: int) -> float:
        """Backoff before restart number ``attempt + 1`` (seconds).

        With ``jitter`` (default): decorrelated jitter — uniform in
        ``[base, 3 * previous pause]``, capped at ``backoff_max``; the
        drawn value feeds the next draw.  Without: deterministic
        ``min(base * 2**attempt, max)``.
        """
        if not self.jitter:
            return min(self.backoff_base * (2.0 ** attempt),
                       self.backoff_max)
        if self.backoff_base == 0.0:
            return 0.0
        pause = min(self.backoff_max,
                    self._rng.uniform(self.backoff_base,
                                      self._prev_backoff * 3.0))
        self._prev_backoff = pause
        return pause

    # -- reporting ----------------------------------------------------------
    @property
    def final_failure(self) -> RecoveryEvent | None:
        """The abort decision of the last run, if it failed for good."""
        for ev in reversed(self.events):
            if ev.action == "abort":
                return ev
        return None

    def detections(self) -> list[RecoveryEvent]:
        return [ev for ev in self.events if ev.kind == KIND_SDC]

    def rollbacks(self) -> int:
        return sum(1 for ev in self.events if ev.action == "rollback")


class ResilientJob:
    """Run a :class:`ParallelJob` under restart/rollback supervision.

    On a recoverable failure the transport is reset — draining in-flight
    envelopes, sequence counters and the poison flag while keeping the
    traffic records — and the same SPMD function re-runs; drivers make
    the re-run resume from the newest *verified* checkpoint.  The
    ``max_restarts``/``on_restart`` keywords are the original fail-stop
    interface and still work; pass a :class:`RecoveryPolicy` to control
    classification, backoff and the recovery record.
    """

    def __init__(self, job: ParallelJob, *, max_restarts: int = 2,
                 on_restart: Callable[[int, BaseException], None]
                 | None = None,
                 policy: RecoveryPolicy | None = None,
                 checkpoint=None,
                 sleep: Callable[[float], None] = time.sleep):
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        self.job = job
        #: optional Checkpointer quarantined on SDC rollback so the
        #: re-run cannot restore state saved after an undetected flip
        self.checkpoint = checkpoint
        self.policy = (policy if policy is not None
                       else RecoveryPolicy(max_restarts=max_restarts))
        self.on_restart = on_restart
        self._sleep = sleep
        #: restarts performed by the most recent :meth:`run` (all kinds)
        self.restarts = 0
        #: backoff seconds actually slept, per restart
        self.backoffs: list[float] = []

    @property
    def max_restarts(self) -> int:
        return self.policy.max_restarts

    def _detection_latency(self, step: int | None) -> int | None:
        """Steps from the newest injected flip at/before ``step`` to
        its detection — the window during which corrupt state was live."""
        injector = self.job.transport.injector
        if injector is None or step is None:
            return None
        prior = [r.step for r in injector.sdc_records if r.step <= step]
        return (step - max(prior)) if prior else None

    def _note(self, ev: RecoveryEvent) -> None:
        self.policy.events.append(ev)
        tracer = self.job.transport.tracer
        if tracer.enabled:
            tracer.instant(ev.rank if ev.rank is not None else 0,
                           f"recovery-{ev.action}", CAT_HEALTH,
                           {"kind": ev.kind,
                            "classification": ev.classification,
                            "monitor": ev.monitor, "step": ev.step,
                            "attempt": ev.attempt,
                            "latency_steps": ev.latency_steps})

    def run(self, fn: Callable[..., Any], *args: Any,
            rank_args: Sequence[tuple] | None = None) -> list:
        self.restarts = 0
        self.backoffs = []
        self.policy.reset()
        while True:
            try:
                return self.job.run(fn, *args, rank_args=rank_args)
            except RuntimeError as exc:
                cause = exc.__cause__ if exc.__cause__ is not None else exc
                ev = self.policy.decide(cause, self.restarts)
                if ev.kind == KIND_SDC:
                    ev = dataclasses.replace(
                        ev, latency_steps=self._detection_latency(ev.step))
                if ev.action == "abort":
                    self._note(ev)
                    raise
                if (ev.kind == KIND_SDC and ev.step is not None
                        and self.checkpoint is not None):
                    self.checkpoint.quarantine(ev.step)
                pause = self.policy.backoff(self.restarts)
                if pause > 0:
                    self._sleep(pause)
                self.backoffs.append(pause)
                self._note(dataclasses.replace(ev, backoff=pause))
                self.restarts += 1
                self.job.transport.reset()
                if self.on_restart is not None:
                    self.on_restart(self.restarts, cause)
