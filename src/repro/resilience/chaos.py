"""Chaos harness: run all four applications under a fault plan.

``python -m repro chaos`` drives this module.  Each application runs
twice at a small configuration — once clean, once under a seeded
:class:`~repro.runtime.faults.FaultPlan` that drops/duplicates/corrupts/
delays point-to-point messages and crashes one rank mid-run — with
checkpoint/restart supervision enabled for the faulted pass.  The
harness then checks that

* the faulted-and-restarted results match the clean run (bitwise for
  LBMHD distributions and GTC fields; ≤1e-12 relative for Cactus and
  PARATEC observables),
* the application's physics invariants hold (mass conservation,
  constraint boundedness, particle conservation, eigenvalue agreement),
* the recovery machinery actually fired where faults apply (retries in
  the comm profile; the planned crash in the injector log).

PARATEC's communication is entirely collective (allreduce/alltoall), so
its pass exercises crash/restart but not the message-fault path.

``python -m repro chaos --sdc`` runs the *silent-data-corruption* pass
instead: each application runs under its demonstration SDC plan
(:func:`repro.resilience.health.sdc_plan` — one deterministic bit flip
in live state plus one damaged checkpoint file), and the harness checks
that the app's invariant monitor detected the corruption, the policy
rolled back to a verified checkpoint, and the final answer matches the
fault-free run (bitwise for LBMHD/GTC; ≤1e-10 relative for Cactus and
PARATEC).

``python -m repro chaos --kill-rank R --at-step S`` runs the *online
rank-failure* pass: one rank is killed mid-run and the job recovers
*without restarting* — a spare rank is respawned in the dead rank's
place and catches up by replaying the message/collective logs
(``--shrink`` re-decomposes over the survivors instead).  The harness
checks the final answer against the unfaulted same-seed run
(bit-identical for respawn), that the rollback was *localized* (the
checkpoint-load ledger shows only the replacement reloading shards),
and that exactly the replacement + its neighbours were rolled back.

Every pass loops over :mod:`repro.apps.catalogue` for the cases, the
equality rules and the physics gates; the fault plans, step counts,
checkpoint cadences and tolerances below are this harness's policy.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from typing import Callable

from ..apps import APPS
from ..apps.catalogue import CATALOGUE, App, Match
from ..runtime.faults import FaultInjector, FaultPlan
from ..runtime.transport import Transport
from .checkpoint import Checkpointer


@dataclass
class ChaosOutcome:
    """Result of one application's chaos pass."""

    app: str
    ok: bool
    detail: str


def default_plan(seed: int, *, crash_rank: int, crash_step: int,
                 nprocs: int) -> FaultPlan:
    """The standard chaos mix: 5% drops plus light dup/corrupt/delay."""
    if not 0 <= crash_rank < nprocs:
        raise ValueError("crash_rank outside the job")
    return FaultPlan(seed=seed, drop=0.05, duplicate=0.02, corrupt=0.02,
                     delay=0.02, delay_seconds=0.001,
                     crash_rank=crash_rank, crash_step=crash_step,
                     backoff_base=0.0005)


def _traffic_detail(transport: Transport) -> str:
    """Compact per-pair/per-tag view of the faulted run's traffic."""
    summary = transport.traffic_summary()
    hot = summary.hottest_pair()
    if hot is None:
        return "no p2p traffic"
    (src, dst), nbytes = hot
    ntags = len(summary.by_tag)
    return (f"hottest pair {src}->{dst} ({nbytes} B of "
            f"{summary.nbytes} B over {len(summary.by_pair)} pairs, "
            f"{ntags} tags)")


def _held(match: Match, bound: tuple[str, float] | None) -> str:
    """Hold ``match`` to ``bound`` and say how the result matched.

    ``None`` demands a bitwise match; otherwise ``bound`` is
    ``("rel_err" | "abs_err", limit)``.
    """
    if bound is None:
        if not match.bitwise:
            raise AssertionError("result differs from the unfaulted run")
        return "bitwise"
    kind, limit = bound
    err = getattr(match, kind)
    label = kind.replace("_", " ")
    if not err <= limit:
        raise AssertionError(f"result deviates: {label} {err:.2e} > "
                             f"{limit:g}")
    return f"{label} {err:.1e}"


#: wire pass per app: steps, crash rank, crash step, checkpoint cadence,
#: and whether the 5% drop rate is sure to hit its point-to-point
#: traffic (GTC's few shift messages may all get through; PARATEC's
#: traffic is all collective)
_WIRE_RUN = {"lbmhd": (5, 2, 2, 2, True), "cactus": (4, 1, 2, 1, True),
             "gtc": (3, 0, 1, 1, False), "paratec": (3, 1, 1, 1, False)}
#: restart result vs clean: bitwise for LBMHD and GTC, else relative
_WIRE_MATCH = {"lbmhd": None, "cactus": ("rel_err", 1e-12), "gtc": None,
               "paratec": ("rel_err", 1e-12)}


def _wire_pass(app: App, seed: int, ckdir: str, backend: str) -> str:
    """One application's wire-fault + crash/restart pass."""
    steps, crash_rank, crash_step, every, retries = _WIRE_RUN[app.name]
    case = app.case()
    clean = case.run(steps, backend=backend)
    # each app draws its own fault schedule from the pass seed
    plan = default_plan(seed + APPS.index(app.name), crash_rank=crash_rank,
                        crash_step=crash_step, nprocs=case.nprocs)
    injector = FaultInjector(plan)
    transport = Transport(case.nprocs)
    faulted = case.run(steps, backend=backend, transport=transport,
                       injector=injector, checkpoint=Checkpointer(ckdir),
                       checkpoint_every=every)
    fact = app.physics(case, faulted)
    match = _held(app.compare(clean, faulted), _WIRE_MATCH[app.name])
    if not injector.crash_fired:
        raise AssertionError("planned crash did not fire")
    resends = transport.resend_count()
    if retries and resends == 0:
        raise AssertionError("no retries recorded under a 5% drop plan")
    return (f"restart {match}, {fact}, {resends} retried messages, "
            f"faults {injector.counts()}, {_traffic_detail(transport)}")


#: bitwise apps match exactly; iterative/constraint apps to tolerance
_SDC_TOLERANCE = {"lbmhd": 0.0, "gtc": 0.0, "cactus": 1e-12,
                  "paratec": 1e-10}


def _sdc_pass(app: str, seed: int, ckdir: str,
              backend: str = "thread") -> str:
    """One application's SDC chaos pass; raises on any recovery gap."""
    from .health import run_monitored

    run = run_monitored(app, ckdir=ckdir, sdc=True, seed=seed,
                        backend=backend)
    if not run.injector.sdc_records:
        raise AssertionError("planned bit flip did not fire")
    detections = run.policy.detections()
    if not detections:
        raise AssertionError(
            f"corruption was not detected: {run.detail}")
    if run.policy.rollbacks() == 0:
        raise AssertionError("detection did not trigger a rollback")
    if "ckpt-corrupt" not in run.injector.counts():
        raise AssertionError("planned checkpoint corruption did not fire")
    tol = _SDC_TOLERANCE[app]
    if run.rel_err > tol:
        raise AssertionError(
            f"recovered result deviates: rel err {run.rel_err:.2e} "
            f"> {tol:.0e} ({run.detail})")
    det = detections[0]
    flip = run.injector.sdc_records[0]
    match = "bitwise" if run.bitwise else f"rel err {run.rel_err:.1e}"
    return (f"bit {flip.bit} flip in {flip.array} on rank {flip.rank} "
            f"at step {flip.step} caught by {det.monitor} after "
            f"{det.latency_steps} step(s); rolled back past the "
            f"corrupted checkpoint; final result {match} vs clean")


# -- online rank-failure (kill) pass ---------------------------------------

def kill_plan(*, kill_rank: int, kill_step: int, nprocs: int) -> FaultPlan:
    """A clean wire with one planned kill: isolates the online-repair
    path from the retry/ack machinery the default plan also exercises."""
    if not 0 <= kill_rank < nprocs:
        raise ValueError("kill_rank outside the job")
    if kill_step < 0:
        raise ValueError("kill_step must be >= 0")
    return FaultPlan(kill_rank=kill_rank, kill_step=kill_step)


def _kill_ckpt_every(backend: str) -> int:
    """Checkpoint cadence for the kill pass.

    The process backend cannot replay a dead rank's missed messages
    (its log cursors died with it), so online recovery must resume
    exactly at the rollback checkpoint: checkpoint every step.  The
    thread backend keeps the sparser cadence and replays the gap.
    """
    return 1 if backend == "process" else 2


def _traced_transport(nprocs: int) -> Transport:
    """A kill-pass transport with a tracer attached, so the repair
    window is observable and :func:`_kill_verify` can attribute it."""
    from ..obs.tracer import Tracer

    transport = Transport(nprocs)
    transport.tracer = Tracer(nprocs)
    return transport


def _kill_verify(transport: Transport, ckpt: Checkpointer,
                 injector: FaultInjector, *, kill_rank: int,
                 shrink: bool) -> dict:
    """Shared post-run checks; returns the pass's metrics dump."""
    from ..obs.metrics import MetricsRegistry

    if not injector.kill_fired:
        raise AssertionError("planned kill did not fire")
    if not transport.repairs:
        raise AssertionError("kill fired but no communicator repair ran")
    rec = transport.repairs[-1]
    want = "shrink" if shrink else "respawn"
    if rec.mode != want:
        raise AssertionError(f"repair mode {rec.mode!r}, wanted {want!r}")
    if kill_rank not in rec.dead:
        raise AssertionError(f"rank {kill_rank} not in dead set {rec.dead}")
    if not shrink:
        # Localized rollback: only the replacement (+ declared
        # neighbours) refreshed state, and only the replacement
        # touched the checkpoint store.
        extra = set(ckpt.load_counts) - set(rec.dead)
        if extra:
            raise AssertionError(
                f"survivors reloaded checkpoints: {sorted(extra)}")
        if not set(rec.replacements) <= set(rec.rolled_back):
            raise AssertionError(
                f"replacements {rec.replacements} missing from "
                f"rolled-back set {rec.rolled_back}")
    reg = MetricsRegistry()
    reg.ingest_repairs(transport, ckpt)
    # With the tracer attached (every kill pass does), fold in the
    # cross-rank attribution so the metrics dump states where the
    # faulted run's time went — repair shows up as wait/(between-
    # phases) time next to the repair_seconds histogram above.
    if transport.tracer.enabled and len(transport.tracer):
        from ..obs.profile import ProfileError, analyze

        try:
            _, attribution, _ = analyze(transport.tracer)
        except ProfileError:
            pass                  # span-free trace: nothing to attribute
        else:
            reg.ingest_attribution(attribution)
    return reg.to_dict()


#: ranks of every kill-pass job (a shrink leaves 3)
_KILL_NPROCS = 4
#: shrunk result vs unfaulted: relative for the grid fields, absolute
#: for GTC's φ and PARATEC's eigenvalues (respawn is always bitwise)
_SHRINK_MATCH = {"lbmhd": ("rel_err", 1e-11), "cactus": ("rel_err", 1e-11),
                 "gtc": ("abs_err", 1e-10), "paratec": ("abs_err", 1e-8)}


def _kill_pass(app: App, ckdir: str, kill_rank: int, kill_step: int,
               shrink: bool, backend: str) -> tuple[str, dict]:
    """One application's online rank-failure pass; returns the detail
    sentence and the metrics dump."""
    case = app.case("medium", _KILL_NPROCS)
    steps = max(6, kill_step + 3)
    clean = case.run(steps, backend=backend)
    injector = FaultInjector(kill_plan(kill_rank=kill_rank,
                                       kill_step=kill_step,
                                       nprocs=case.nprocs))
    transport = _traced_transport(case.nprocs)
    ckpt = Checkpointer(ckdir)
    faulted = case.run(steps, backend=backend, transport=transport,
                       injector=injector, checkpoint=ckpt,
                       checkpoint_every=_kill_ckpt_every(backend),
                       spares=0 if shrink else 1, on_shrink=shrink)
    fact = app.physics(case, faulted)
    match = _held(app.compare(clean, faulted),
                  _SHRINK_MATCH[app.name] if shrink else None)
    metrics = _kill_verify(transport, ckpt, injector, kill_rank=kill_rank,
                           shrink=shrink)
    how = f"shrunk to {case.nprocs - 1}" if shrink else "respawned"
    return (f"rank {kill_rank} killed at step {kill_step}, {how}, {fact}, "
            f"result {match} vs the unfaulted run"), metrics


def run_kill_chaos(kill_rank: int = 1, kill_step: int = 3, *,
                   shrink: bool = False, apps: list[str] | None = None,
                   echo: Callable[[str], None] | None = None,
                   backend: str = "thread"
                   ) -> tuple[list[ChaosOutcome], dict]:
    """Run the online rank-failure pass; returns outcomes + summary.

    The summary dict (the CLI's ``--json`` payload) reports
    ``recovered: "online"`` only when every selected application
    repaired the kill in place and reproduced the unfaulted answer.
    ``backend="process"`` kills a real OS process mid-run (respawn
    only — shrinking re-decomposes in place, which needs the thread
    backend's shared address space).
    """
    if shrink and backend == "process":
        from ..runtime.transport import BackendError

        raise BackendError(
            "shrink recovery is not supported on the process backend; "
            "use respawn (spares) or backend='thread'")
    selected = [app for app in CATALOGUE.values()
                if apps is None or app.name in apps]
    if not selected:
        raise ValueError(f"no applications match {apps!r}")
    outcomes = []
    per_app: dict[str, dict] = {}
    mode = "shrink" if shrink else "respawn"
    with tempfile.TemporaryDirectory(prefix="repro-kill-") as root:
        for app in selected:
            if echo is not None:
                echo(f"{app.title}: kill rank {kill_rank} at step "
                     f"{kill_step} ({mode}) ...")
            try:
                detail, metrics = _kill_pass(app, f"{root}/{app.name}",
                                             kill_rank, kill_step, shrink,
                                             backend)
                outcomes.append(ChaosOutcome(app.title, True, detail))
                per_app[app.name] = {"ok": True, "detail": detail,
                                     "metrics": metrics}
            except Exception as exc:  # noqa: BLE001 - reported per app
                outcomes.append(ChaosOutcome(app.title, False, repr(exc)))
                per_app[app.name] = {"ok": False, "detail": repr(exc)}
            if echo is not None:
                last = outcomes[-1]
                echo(f"  {'ok' if last.ok else 'FAIL'}: {last.detail}")
    summary = {
        "pass": "kill",
        "kill_rank": kill_rank,
        "kill_step": kill_step,
        "mode": mode,
        "recovered": "online" if all(o.ok for o in outcomes) else "failed",
        "apps": per_app,
    }
    return outcomes, summary


def run_chaos(seed: int = 2004,
              echo: Callable[[str], None] | None = None,
              *, sdc: bool = False,
              backend: str = "thread") -> list[ChaosOutcome]:
    """Run the chaos pass for all four applications.

    ``sdc=False`` (default) is the wire-fault + crash/restart pass;
    ``sdc=True`` is the silent-data-corruption + rollback pass.  Each
    app gets its own checkpoint directory inside a temporary root;
    failures are captured per app so one broken recovery path does not
    hide the others.  ``backend`` selects the execution backend for
    every pass (faults are injected inside the worker processes when
    ``"process"``).
    """
    outcomes = []
    kind = "SDC plan" if sdc else "fault plan"
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as root:
        for app in CATALOGUE.values():
            if echo is not None:
                echo(f"{app.title}: {kind} seed {seed} ...")
            ckdir = f"{root}/{app.name}"
            try:
                detail = (_sdc_pass(app.name, seed, ckdir, backend) if sdc
                          else _wire_pass(app, seed, ckdir, backend))
                outcomes.append(ChaosOutcome(app.title, True, detail))
            except Exception as exc:  # noqa: BLE001 - reported per app
                outcomes.append(ChaosOutcome(app.title, False, repr(exc)))
            if echo is not None:
                last = outcomes[-1]
                echo(f"  {'ok' if last.ok else 'FAIL'}: {last.detail}")
    return outcomes
