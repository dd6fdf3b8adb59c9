"""Parallel Cactus equivalence + Table 5 model shape."""

import numpy as np
import pytest

from repro.apps.cactus.parallel import run_parallel
from repro.apps.cactus.profile import (
    CactusConfig,
    build_profile,
    cactus_porting,
    table5_configs,
)
from repro.apps.cactus.initial import gauge_wave, random_perturbation
from repro.apps.cactus.solver import CactusSolver
from repro.apps.cactus.stencils import ghost_for
from repro.machine import ALTIX, ES, POWER3, POWER4, X1
from repro.perf import PerformanceModel
from repro.runtime import Transport


class TestParallel:
    @pytest.mark.parametrize("nprocs", [1, 2, 4, 8])
    def test_bitwise_serial_equivalence(self, nprocs):
        g, K, a = gauge_wave((16, 8, 8), 1 / 16, amplitude=0.05)
        ser = CactusSolver(g, K, a, spacing=1 / 16)
        ser.step(3)
        gp, Kp, ap = run_parallel(g, K, a, nprocs=nprocs, nsteps=3,
                                  spacing=1 / 16)
        np.testing.assert_array_equal(gp, ser.gamma)
        np.testing.assert_array_equal(Kp, ser.K)
        np.testing.assert_array_equal(ap, ser.alpha)

    def test_order4_parallel_equivalence(self):
        g, K, a = gauge_wave((16, 10, 10), 1 / 16, amplitude=0.05)
        ser = CactusSolver(g, K, a, spacing=1 / 16, order=4)
        ser.step(2)
        gp, _, _ = run_parallel(g, K, a, nprocs=4, nsteps=2,
                                spacing=1 / 16, order=4)
        np.testing.assert_array_equal(gp, ser.gamma)

    def test_rk4_parallel_equivalence(self):
        g, K, a = random_perturbation((8, 8, 8), amplitude=1e-6)
        ser = CactusSolver(g, K, a, spacing=0.2, integrator="rk4")
        ser.step(2)
        gp, Kp, ap = run_parallel(g, K, a, nprocs=4, nsteps=2,
                                  spacing=0.2, integrator="rk4")
        np.testing.assert_array_equal(gp, ser.gamma)

    def test_ghost_exchange_traffic(self):
        """ICN: 4 RHS evaluations per step -> 4 exchange rounds."""
        g, K, a = gauge_wave((8, 8, 8), 0.125, amplitude=0.05)
        tr = Transport(2)
        run_parallel(g, K, a, nprocs=2, nsteps=1, spacing=0.125,
                     transport=tr)
        # 2 ranks x 4 RHS x 1 split axis x 2 directions = 16 messages.
        assert tr.message_count() == 16
        # Each carries the 13 evolved fields (6 gamma_ij, 6 K_ij, alpha)
        # on a ghost-wide strip spanning the other axes' ghosts.
        ghost = ghost_for(2)
        strip = ghost * (8 + 2 * ghost) ** 2
        assert {m.nbytes for m in tr.messages} == {13 * strip * 8}
        assert tr.total_bytes() == 16 * 13 * strip * 8


def predict(machine, grid=(250, 64, 64), nprocs=16, **kw):
    cfg = CactusConfig(grid, nprocs)
    return PerformanceModel(machine).predict(build_profile(cfg),
                                             cactus_porting(cfg, **kw))


class TestTable5Shape:
    def test_avl_matches_paper(self):
        """§5.2: AVL 248 vs 92 for the two problem shapes."""
        assert predict(ES).avl == pytest.approx(248, abs=2)
        assert predict(ES, grid=(80, 80, 80)).avl == pytest.approx(
            92, abs=2)

    def test_vor_near_perfect(self):
        """§5.2 reports >99% VOR; our accounting charges the whole
        unvectorized BC flop stream as scalar ops, landing slightly
        lower while preserving the near-perfect-vectorization picture."""
        assert predict(ES).vor > 0.95

    def test_es_large_grid_far_more_efficient(self):
        """§5.2: 250x64x64 runs at 34-35% of ES peak, 80^3 at 17-18%."""
        big = predict(ES)
        small = predict(ES, grid=(80, 80, 80))
        assert big.gflops_per_proc > 1.3 * small.gflops_per_proc
        assert 25 < big.pct_peak < 40
        assert 15 < small.pct_peak < 28

    def test_superscalar_prefers_small_blocks(self):
        """§5.2: microprocessors do better on the smaller block."""
        for m in (POWER3, ALTIX):
            assert predict(m, grid=(80, 80, 80)).gflops_per_proc > \
                predict(m).gflops_per_proc

    def test_x1_lowest_fraction_of_peak(self):
        """§5.2: X1 reaches only ~6% of peak even after BC work."""
        x1 = predict(X1)
        assert x1.pct_peak < 12
        for m in (ES, POWER3, POWER4, ALTIX):
            assert predict(m).pct_peak > x1.pct_peak

    def test_absolute_bands(self):
        assert predict(ES).gflops_per_proc == pytest.approx(2.83, rel=0.25)
        assert predict(X1).gflops_per_proc == pytest.approx(0.813,
                                                            rel=0.35)
        assert predict(POWER3).gflops_per_proc == pytest.approx(
            0.097, rel=0.35)
        assert predict(POWER3, grid=(80, 80, 80)
                       ).gflops_per_proc == pytest.approx(0.314, rel=0.40)
        assert predict(ALTIX).gflops_per_proc == pytest.approx(0.514,
                                                               rel=0.35)

    def test_es_45x_over_power3(self):
        """§5.2: Power3 is ~45x slower on the large problem."""
        ratio = predict(ES).gflops_per_proc / predict(
            POWER3).gflops_per_proc
        assert 15 < ratio < 60

    def test_unvectorized_bc_costs_es(self):
        """§5.1/5.2: BC ~up to 20% of ES runtime; vectorizing it (the
        planned future ES experiments) recovers most of that."""
        asis = predict(ES, grid=(80, 80, 80))
        fixed = predict(ES, grid=(80, 80, 80), es_bc_vectorized=True)
        bc_frac = asis.phase_seconds("boundary") / asis.seconds
        assert 0.04 < bc_frac < 0.25
        assert fixed.gflops_per_proc > asis.gflops_per_proc

    def test_x1_bc_vectorization_was_essential(self):
        """§5.1: the serialized radiation BC multiplies its cost on the
        X1 (32:1); vectorizing it recovers the loss.  (The paper's >30%
        share is against the pre-slowdown code; against the measured
        production throughput the share is smaller but still dominant
        relative to the vectorized form.)"""
        fixed = predict(X1)
        broken = predict(X1, x1_bc_vectorized=False)
        bc_broken = broken.phase_seconds("boundary") / broken.seconds
        bc_fixed = fixed.phase_seconds("boundary") / fixed.seconds
        assert bc_broken > 3 * bc_fixed
        assert fixed.gflops_per_proc > broken.gflops_per_proc

    def test_weak_scaling_nearly_flat(self):
        """§5.2: weak scaling holds (rectangular domains scale fine)."""
        r16 = predict(ES, nprocs=16)
        r1024 = predict(ES, nprocs=1024)
        assert r1024.gflops_per_proc > 0.9 * r16.gflops_per_proc

    def test_comm_costs_reasonable(self):
        """§5.2 reports ES 13% / Power3 23% MPI fractions.  Our network
        model prices the same volumes; the ES fraction lands in band,
        while Power3's slow compute dilutes its modeled fraction below
        the measured one (documented in EXPERIMENTS.md)."""
        es = predict(ES, nprocs=64)
        p3 = predict(POWER3, nprocs=64)
        assert 0.02 < es.comm_fraction < 0.2
        assert es.comm_seconds < p3.comm_seconds

    def test_table5_configs(self):
        cfgs = table5_configs()
        assert len(cfgs) == 8
        assert {c.nprocs for c in cfgs} == {16, 64, 256, 1024}
