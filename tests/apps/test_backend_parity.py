"""Backend parity: thread and process runs must be indistinguishable.

For every application the process backend must reproduce the thread
backend bit for bit *and* move exactly the same logical traffic — the
zero-copy transport is an implementation detail, not a semantic change.
"""

from collections import Counter

import numpy as np

from repro.apps.cactus.parallel import run_parallel as cactus_parallel
from repro.apps.gtc import AnnulusGrid, TorusGeometry, load_ring_perturbation
from repro.apps.gtc.parallel import run_parallel as gtc_parallel
from repro.apps.lbmhd import orszag_tang
from repro.apps.lbmhd.parallel import run_parallel as lbmhd_parallel
from repro.apps.paratec import silicon_primitive
from repro.apps.paratec.parallel import solve_bands_parallel
from repro.obs.runner import trace_app
from repro.runtime import Transport


def _traffic(tp: Transport) -> tuple:
    """Totals plus the per-phase multisets of message and collective
    records: each rank's traffic must carry its own phase label."""
    messages = Counter((m.phase, m.src, m.dst, m.tag, m.nbytes,
                        m.onesided, m.resend) for m in tp.messages)
    collectives = Counter((c.kind, c.phase, c.nprocs, c.nbytes_per_rank)
                          for c in tp.collectives)
    return (tp.message_count(), tp.total_bytes(), len(tp.collectives),
            messages, collectives)


class TestBackendParity:
    def test_lbmhd(self):
        rho, u, B = orszag_tang(16, 16)
        tps = {b: Transport(4) for b in ("thread", "process")}
        out = {b: lbmhd_parallel(rho, u, B, nprocs=4, nsteps=3,
                                 transport=tps[b], backend=b)
               for b in tps}
        for a, b in zip(out["thread"], out["process"]):
            assert np.array_equal(a, b)
        assert _traffic(tps["thread"]) == _traffic(tps["process"])

    def test_cactus(self):
        rng = np.random.default_rng(3)
        n = 8
        gamma = np.zeros((3, 3, n, n, n))
        for i in range(3):
            gamma[i, i] = 1.0
        gamma += 0.01 * rng.standard_normal(gamma.shape)
        gamma = 0.5 * (gamma + gamma.transpose(1, 0, 2, 3, 4))
        K = 0.01 * rng.standard_normal(gamma.shape)
        K = 0.5 * (K + K.transpose(1, 0, 2, 3, 4))
        alpha = 1.0 + 0.01 * rng.standard_normal((n, n, n))

        tps = {b: Transport(2) for b in ("thread", "process")}
        out = {b: cactus_parallel(gamma, K, alpha, nprocs=2, nsteps=2,
                                  transport=tps[b], backend=b)
               for b in tps}
        for a, b in zip(out["thread"], out["process"]):
            assert np.array_equal(a, b)
        assert _traffic(tps["thread"]) == _traffic(tps["process"])

    def test_gtc(self):
        geo = TorusGeometry(AnnulusGrid(0.2, 1.0, 8, 8), 4)
        p = load_ring_perturbation(geo, 3.0, mode_m=3, amplitude=0.3,
                                   seed=1)
        tps = {b: Transport(2) for b in ("thread", "process")}
        out = {b: gtc_parallel(geo, p, nprocs=2, nsteps=2,
                               transport=tps[b], backend=b)
               for b in tps}
        for a, b in zip(out["thread"], out["process"]):
            assert a.domain == b.domain
            assert a.nparticles == b.nparticles
            assert a.kinetic_energy == b.kinetic_energy
            assert a.field_energy == b.field_energy
            assert all(np.array_equal(x, y)
                       for x, y in zip(a.phi_planes, b.phi_planes))
            assert np.array_equal(a.tags, b.tags)
        assert _traffic(tps["thread"]) == _traffic(tps["process"])

    def test_paratec(self):
        cell = silicon_primitive()
        tps = {b: Transport(2) for b in ("thread", "process")}
        out = {b: solve_bands_parallel(cell, 4.0, 4, nprocs=2,
                                       n_outer=2, n_inner=2,
                                       transport=tps[b], backend=b)
               for b in tps}
        a, b = out["thread"], out["process"]
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert a.rank_sizes == b.rank_sizes
        assert np.array_equal(a.loads, b.loads)
        assert _traffic(tps["thread"]) == _traffic(tps["process"])


class TestTracedProcessRun:
    def test_trace_app_merges_worker_events(self):
        runs = {b: trace_app("lbmhd", steps=2, nprocs=4, outdir=None,
                             backend=b)
                for b in ("thread", "process")}
        proc = runs["process"]
        assert len(proc.tracer.events()) > 0
        # merged per-process spools must recover the thread-run story
        assert _traffic(proc.transport) == _traffic(runs["thread"].transport)
