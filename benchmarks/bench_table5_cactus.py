"""Table 5 (Cactus): kernel benchmarks + table regeneration."""

import numpy as np
import pytest

from repro.apps.cactus import (
    CactusSolver,
    adm_rhs,
    curvature,
    gauge_wave,
    hamiltonian_constraint,
)
from repro.apps.cactus.geometry import Workspace
from repro.apps.cactus.stencils import GHOST, extend, fill_ghosts_periodic
from repro.apps.cactus.tensors import to_packed
from repro.experiments.tables import build_table5

SHAPE = (24, 24, 24)
DX = 1.0 / 24


@pytest.fixture(scope="module")
def fields():
    g, K, a = gauge_wave(SHAPE, DX, amplitude=0.05)
    exts = []
    for f in (to_packed(g), to_packed(K), a):
        e = extend(f, GHOST)
        fill_ghosts_periodic(e)
        exts.append(e)
    return exts


@pytest.fixture(scope="module")
def work(fields):
    """One workspace reused by every round, as a solver reuses its own."""
    return Workspace(fields[0].shape[1:], 2)


def test_curvature_kernel(benchmark, fields, work):
    """Christoffels + Ricci: the tensor core of ADM_BSSN_Sources."""
    g_ext, _, _ = fields
    geo = benchmark(curvature, g_ext, (DX,) * 3, 2, work)
    assert geo.ricci.shape == (6, *SHAPE)


def test_adm_rhs_kernel(benchmark, fields, work):
    """The full evolution right-hand side (68% of Cactus wall-clock)."""
    g_ext, K_ext, a_ext = fields
    dtg, dtK, dta = benchmark(adm_rhs, g_ext, K_ext, a_ext, (DX,) * 3,
                              "harmonic", work=work)
    assert dtg.shape == (6, *SHAPE)


def test_constraint_kernel(benchmark, fields):
    g_ext, K_ext, _ = fields
    geo = curvature(g_ext, (DX,) * 3)
    H = benchmark(hamiltonian_constraint, geo, K_ext)
    assert np.abs(H).max() < 1e-9  # gauge wave is vacuum


def test_icn_step(benchmark):
    solver = CactusSolver(*gauge_wave((16, 8, 8), 1 / 16, amplitude=0.05),
                          spacing=1 / 16)
    benchmark.pedantic(solver.step, args=(1,), rounds=3, iterations=1)


def test_regenerate_table5(report, benchmark):
    table = benchmark.pedantic(build_table5, rounds=1, iterations=1)
    es_big = table.cell("250x64x64", 16, "ES")
    es_small = table.cell("80x80x80", 16, "ES")
    x1 = table.cell("250x64x64", 16, "X1")
    p3_big = table.cell("250x64x64", 16, "Power3")
    p3_small = table.cell("80x80x80", 16, "Power3")
    # The paper's AVL story and cache story, as gates.
    assert es_big.gflops_per_proc > 1.3 * es_small.gflops_per_proc
    assert es_big.avl == pytest.approx(248, abs=2)
    assert es_small.avl == pytest.approx(92, abs=2)
    assert p3_small.gflops_per_proc > p3_big.gflops_per_proc
    assert x1.pct_peak < es_big.pct_peak
    assert table.shape_errors(tol_factor=3.0) == []
    report(table.render())
