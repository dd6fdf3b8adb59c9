"""Invariant watchdogs: SDC detection, classification, rollback."""

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.resilience.health import (
    APPS,
    HealthConfig,
    HealthLog,
    HealthMonitor,
    SDCDetectedError,
    render_report,
    run_monitored,
    sdc_plan,
)


class _Transport:
    tracer = NULL_TRACER


class _SoloComm:
    """Single-rank stand-in: allreduce is the identity."""

    rank = 0
    size = 1
    transport = _Transport()

    def allreduce(self, value, op="sum"):
        return value


def _monitor(**cfg):
    return HealthMonitor(_SoloComm(), HealthConfig(**cfg))


class TestChecks:
    def test_conserved_within_threshold_passes(self):
        m = _monitor()
        m.check_conserved(0, "mass", 100.0, default_threshold=1e-8)
        m.check_conserved(1, "mass", 100.0 + 1e-7, default_threshold=1e-8)

    def test_conserved_drift_raises_with_diagnosis(self):
        m = _monitor()
        m.check_conserved(0, "mass", 100.0, default_threshold=1e-8)
        with pytest.raises(SDCDetectedError,
                           match="invariant 'mass' violated") as info:
            m.check_conserved(3, "mass", 150.0, default_threshold=1e-8)
        err = info.value
        assert (err.rank, err.step, err.monitor) == (0, 3, "mass")
        assert err.reference == 100.0
        assert err.drift == pytest.approx(0.5)

    def test_conserved_nan_is_a_violation(self):
        m = _monitor()
        m.check_conserved(0, "mass", 1.0, default_threshold=1e-8)
        with pytest.raises(SDCDetectedError):
            m.check_conserved(1, "mass", float("nan"),
                              default_threshold=1e-8)

    def test_conserved_scale_floors_near_zero_reference(self):
        m = _monitor()
        m.check_conserved(0, "mom", 1e-16, default_threshold=1e-8,
                          scale=256.0)
        # Absolute wiggle tiny vs. the scale: not a violation even
        # though it is enormous relative to the near-zero reference.
        m.check_conserved(1, "mom", 3e-16, default_threshold=1e-8,
                          scale=256.0)

    def test_bounded_allows_growth_within_factor(self):
        m = _monitor()
        m.check_bounded(0, "ham", 0.01, default_growth=50.0)
        m.check_bounded(1, "ham", 0.4, default_growth=50.0)
        with pytest.raises(SDCDetectedError):
            m.check_bounded(2, "ham", 0.6, default_growth=50.0)

    def test_monotone_tolerates_slack_but_not_rise(self):
        m = _monitor()
        m.check_monotone(0, "energy", -1.0, default_slack=1e-9)
        m.check_monotone(1, "energy", -1.5, default_slack=1e-9)
        with pytest.raises(SDCDetectedError):
            m.check_monotone(2, "energy", -1.2, default_slack=1e-9)

    def test_absolute_threshold_on_zero_reference(self):
        m = _monitor()
        m.check_absolute(0, "norm", 1e-12, default_threshold=1e-6)
        with pytest.raises(SDCDetectedError):
            m.check_absolute(1, "norm", 1e-3, default_threshold=1e-6)

    def test_guard_finite_passes_and_trips(self):
        m = _monitor()
        m.guard_finite(0, "finite", np.ones(4), np.zeros((2, 2)))
        bad = np.ones(4)
        bad[2] = np.nan
        with pytest.raises(SDCDetectedError, match="'finite'"):
            m.guard_finite(1, "finite", bad)

    def test_guard_finite_sees_complex_components(self):
        m = _monitor()
        c = np.ones(3, dtype=np.complex128)
        c[1] = 1.0 + 1j * np.inf
        with pytest.raises(SDCDetectedError):
            m.guard_finite(0, "finite", c)

    def test_threshold_override_by_name(self):
        m = _monitor(thresholds={"mass": 1.0})
        m.check_conserved(0, "mass", 100.0, default_threshold=1e-8)
        m.check_conserved(1, "mass", 150.0, default_threshold=1e-8)

    def test_due_cadence(self):
        m = _monitor(check_every=3)
        assert [m.due(s) for s in range(6)] == [
            False, False, True, False, False, True]

    def test_check_every_validated(self):
        with pytest.raises(ValueError):
            HealthConfig(check_every=0)


class TestHealthLog:
    def test_records_and_summary(self):
        log = HealthLog()
        m = HealthMonitor(_SoloComm(), HealthConfig(log=log))
        m.check_conserved(0, "mass", 100.0, default_threshold=1e-8)
        m.check_conserved(1, "mass", 100.0, default_threshold=1e-8)
        with pytest.raises(SDCDetectedError):
            m.check_conserved(2, "mass", 101.0, default_threshold=1e-8)
        assert len(log.records) == 3
        assert len(log.violations()) == 1
        (row,) = log.summary()
        assert row["monitor"] == "mass"
        assert row["checks"] == 3
        assert row["max_drift"] == pytest.approx(0.01)
        assert not row["ok"]

    def test_detection_without_log_still_raises(self):
        m = HealthMonitor(_SoloComm(), HealthConfig(log=None))
        m.check_conserved(0, "mass", 1.0, default_threshold=1e-8)
        with pytest.raises(SDCDetectedError):
            m.check_conserved(1, "mass", 2.0, default_threshold=1e-8)


class TestSDCRecovery:
    """End-to-end: inject, detect, roll back, finish clean (per app)."""

    #: bitwise apps match exactly; iterative apps to tolerance
    TOL = {"lbmhd": 0.0, "gtc": 0.0, "cactus": 1e-12, "paratec": 1e-10}

    @pytest.mark.parametrize("app", APPS)
    def test_detects_rolls_back_and_matches_clean(self, app, tmp_path):
        run = run_monitored(app, ckdir=str(tmp_path), sdc=True, seed=2004)
        # The planned flip and checkpoint damage both fired ...
        assert len(run.injector.sdc_records) == 1
        assert run.injector.counts()["ckpt-corrupt"] == 1
        # ... an invariant monitor saw the flip and the policy rolled
        # back (not merely restarted) ...
        (det,) = run.policy.detections()
        assert det.kind == "sdc"
        assert det.classification == "transient"
        assert det.action == "rollback"
        assert det.monitor is not None
        assert det.latency_steps == 0
        assert run.policy.rollbacks() == 1
        # ... and the replayed run matches the fault-free answer.
        assert run.rel_err <= self.TOL[app]
        assert run.log.violations()

    def test_rollback_skips_corrupted_checkpoint(self, tmp_path):
        run = run_monitored("lbmhd", ckdir=str(tmp_path), sdc=True,
                            seed=2004)
        assert run.bitwise
        # The flip-step checkpoint was damaged on rank 0, so the
        # rollback restored an older verified step — both fault layers
        # (memory flip + storage damage) were exercised together.
        counts = run.injector.counts()
        assert counts["sdc"] == 1
        assert counts["ckpt-corrupt"] == 1

    def test_late_detection_quarantines_tainted_checkpoint(self, tmp_path):
        # Seed 31337's PARATEC flip shrinks one coefficient quietly:
        # the normalization deviation stays below threshold for one
        # whole outer iteration, so the corrupt state is checkpointed
        # (CRC-clean) before the next entry check catches it.  The
        # rollback must quarantine that snapshot and resume from one
        # that predates the detection, or the replay re-detects the
        # identical violation and is misclassified as persistent.
        run = run_monitored("paratec", ckdir=str(tmp_path), sdc=True,
                            seed=31337)
        (det,) = run.policy.detections()
        assert det.latency_steps == 1
        assert det.action == "rollback"
        assert run.policy.rollbacks() == 1
        assert run.policy.final_failure is None
        assert run.rel_err <= self.TOL["paratec"]

    def test_persistent_corruption_aborts_with_diagnosis(self, tmp_path):
        run = run_monitored("lbmhd", ckdir=str(tmp_path), sdc=True,
                            seed=2004, persistent=True)
        assert run.rel_err == float("inf")
        final = run.policy.final_failure
        assert final is not None
        assert final.action == "abort"
        assert final.classification == "persistent"
        assert run.detail.startswith("aborted:")
        assert "persistent" in run.detail

    def test_clean_run_has_no_violations(self, tmp_path):
        run = run_monitored("lbmhd", ckdir=str(tmp_path), sdc=False)
        assert run.bitwise
        assert run.log.violations() == []
        assert run.policy.events == []

    def test_unknown_app_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown app"):
            run_monitored("spark", ckdir=str(tmp_path))

    def test_render_report_lists_monitors_and_recovery(self, tmp_path):
        run = run_monitored("gtc", ckdir=str(tmp_path), sdc=True,
                            seed=2004)
        text = render_report(run)
        assert "gtc.finite" in text
        assert "recovery:" in text
        assert "injected: bit" in text


class TestPlanAndMetrics:
    def test_sdc_plan_targets_one_site(self):
        plan = sdc_plan("lbmhd", 7)
        assert plan.sdc_rate == 1.0
        assert plan.sdc_arrays == ("f",)
        assert plan.ckpt_corrupt_step == plan.sdc_step
        with pytest.raises(KeyError):
            sdc_plan("nope", 7)

    def test_ingest_recovery_counts_events(self, tmp_path):
        run = run_monitored("lbmhd", ckdir=str(tmp_path), sdc=True,
                            seed=2004)
        reg = MetricsRegistry()
        reg.ingest_recovery(run.policy)
        out = reg.to_dict()
        assert out["counters"]["health.detections"] == 1
        assert out["counters"]["health.rollbacks"] == 1
        assert out["counters"]["health.failures.sdc"] == 1
        assert out["counters"]["health.actions.rollback"] == 1
        lat = out["histograms"]["health.detection_latency_steps"]
        assert lat["count"] == 1
        assert lat["max"] == 0


class TestProcessLedgers:
    """Process ranks ship back only what they added to the parent's
    ledgers, not what a re-launch pickled into their program."""

    def test_sdc_rollback_counts_match_thread_backend(self, tmp_path):
        thread, proc = (run_monitored("cactus", ckdir=str(tmp_path / b),
                                      sdc=True, backend=b)
                        for b in ("thread", "process"))
        assert len(proc.injector.sdc_records) == 1
        assert len(thread.injector.sdc_records) == 1
        assert proc.policy.rollbacks() == thread.policy.rollbacks() == 1
        assert proc.log.summary() == thread.log.summary()

    def test_restarted_job_counts_the_crash_once(self, tmp_path):
        from repro.apps.gtc import (
            AnnulusGrid,
            TorusGeometry,
            load_ring_perturbation,
        )
        from repro.apps.gtc.parallel import run_parallel
        from repro.resilience.checkpoint import Checkpointer
        from repro.runtime.faults import FaultInjector, FaultPlan

        geom = TorusGeometry(AnnulusGrid(0.2, 1.0, 8, 8), 2)
        injector = FaultInjector(FaultPlan(crash_rank=0, crash_step=1))
        run_parallel(geom, load_ring_perturbation(geom, 4.0), nprocs=2,
                     nsteps=3, injector=injector,
                     checkpoint=Checkpointer(str(tmp_path)),
                     checkpoint_every=1, backend="process")
        assert injector.crash_fired
        assert injector.counts() == {"crash": 1}
