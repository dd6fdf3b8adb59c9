"""Cactus under faults: crash/restart matches, ghost drops survived."""

import numpy as np
import pytest

from repro.apps.cactus import gauge_wave
from repro.apps.cactus import solver as solver_mod
from repro.apps.cactus.parallel import run_parallel
from repro.resilience import Checkpointer, CheckpointError, HealthConfig
from repro.runtime import FaultInjector, FaultPlan, Transport

NPROCS, NSTEPS = 2, 4
DX = 1.0 / 8


def _initial():
    return gauge_wave((8, 4, 4), DX, amplitude=0.05)


def _run(**kwargs):
    g, K, a = _initial()
    return run_parallel(g, K, a, nprocs=NPROCS, nsteps=NSTEPS,
                        spacing=DX, dt=0.2 * DX, **kwargs)


def _assert_close(clean, faulted, rtol=1e-12):
    for a, b in zip(clean, faulted):
        np.testing.assert_allclose(b, a, rtol=rtol, atol=0.0)


def test_crash_restart_matches(tmp_path):
    clean = _run()
    injector = FaultInjector(FaultPlan(seed=11, crash_rank=1,
                                       crash_step=2))
    faulted = _run(injector=injector,
                   checkpoint=Checkpointer(tmp_path), checkpoint_every=1)
    assert injector.crash_fired
    _assert_close(clean, faulted)


def test_ghost_drops_survived_with_constraints():
    """>=5% of ghost-zone messages dropped: identical evolution."""
    clean = _run()
    injector = FaultInjector(FaultPlan(seed=12, drop=0.08,
                                       backoff_base=0.0002))
    transport = Transport(NPROCS)
    faulted = _run(transport=transport, injector=injector)
    _assert_close(clean, faulted)
    assert np.all(np.isfinite(faulted[0]))
    assert injector.counts().get("drop", 0) > 0
    assert transport.resend_count() > 0
    assert transport.undelivered() == 0


def test_leapfrog_history_checkpointed(tmp_path):
    """The two-level leapfrog state restarts consistently as well."""
    g, K, a = _initial()
    kw = dict(nprocs=NPROCS, nsteps=NSTEPS, spacing=DX, dt=0.2 * DX,
              integrator="leapfrog")
    clean = run_parallel(g, K, a, **kw)
    injector = FaultInjector(FaultPlan(seed=13, crash_rank=0,
                                       crash_step=3))
    faulted = run_parallel(g, K, a, **kw, injector=injector,
                           checkpoint=Checkpointer(tmp_path),
                           checkpoint_every=1)
    _assert_close(clean, faulted)


def test_health_check_evaluates_only_the_hamiltonian(monkeypatch):
    """The per-step diagnostics read max |H| alone, so they must not pay
    for the momentum constraint."""
    g, K, a = _initial()
    serial = solver_mod.CactusSolver(g, K, a, spacing=DX, dt=0.2 * DX)
    serial.step(1)
    assert serial.hamiltonian_linf() == \
        serial.constraints().hamiltonian_linf

    def no_momentum(*args, **kwargs):
        raise AssertionError("momentum constraint evaluated")

    monkeypatch.setattr(solver_mod, "momentum_constraint", no_momentum)
    out = run_parallel(g, K, a, nprocs=NPROCS, nsteps=2, spacing=DX,
                       dt=0.2 * DX, health=HealthConfig(check_every=1))
    assert all(np.all(np.isfinite(f)) for f in out)


def test_full_tensor_checkpoint_is_a_typed_error(tmp_path):
    """A checkpoint in the full (3, 3, ...) layout, as written before the
    state was packed, fails with a CheckpointError naming the array and
    both shapes, not with NumPy's broadcast error."""
    g, K, a = _initial()
    ckpt = Checkpointer(tmp_path)
    for rank, lo in enumerate((0, 4)):
        block = (slice(None), slice(None), slice(lo, lo + 4))
        ckpt.save(2, rank, gamma=g[block], K=K[block],
                  alpha=a[lo:lo + 4], time=np.float64(0.05))
    with pytest.raises(RuntimeError) as info:
        _run(checkpoint=ckpt, checkpoint_every=2)
    err = info.value.__cause__
    assert isinstance(err, CheckpointError)
    assert (err.step, err.rank) in {(2, 0), (2, 1)}
    assert "'gamma' has shape (3, 3, 4, 4, 4), expected (6, 4, 4, 4)" \
        in str(err)


def test_shrink_rejects_full_tensor_checkpoint(tmp_path):
    """The shrink hook reassembles every old rank's shard and checks
    each one's layout the same way."""
    from repro.resilience.chaos import kill_plan

    g, K, a = _initial()
    ckpt = Checkpointer(tmp_path)
    injector = FaultInjector(kill_plan(kill_rank=1, kill_step=3,
                                       nprocs=NPROCS))
    real_save = ckpt.save

    def save_full(label, rank, **arrays):
        # Store the shard in the full layout instead of the packed one.
        from repro.apps.cactus.tensors import to_full
        arrays.update(gamma=to_full(arrays["gamma"]),
                      K=to_full(arrays["K"]))
        real_save(label, rank, **arrays)

    ckpt.save = save_full
    with pytest.raises(RuntimeError) as info:
        _run(checkpoint=ckpt, checkpoint_every=2, injector=injector,
             on_shrink=True)
    err = info.value.__cause__
    assert isinstance(err, CheckpointError)
    assert "expected (6, 4, 4, 4)" in str(err)
