"""Perf-regression benchmark harness (the ISSUE's acceptance instrument).

``python -m repro bench --json BENCH_PERF.json`` times each optimized hot
kernel against its retained naive reference on the same machine and
records the **speedup ratio** — a machine-relative quantity that a CI
check can compare against the committed baseline with a tolerance band,
without caring how fast the runner host is in absolute terms:

* ``gtc_deposition`` — :func:`~repro.apps.gtc.deposition.deposit_fast`
  vs :func:`~repro.apps.gtc.deposition.deposit_classic` at >= 100k
  particles (acceptance floor: >= 3x);
* ``lbmhd_parallel`` — fused zero-copy 128^2 x 4-rank step vs the naive
  kernels on the legacy deep-copy transport (floor: >= 1.5x), also
  asserting the *logical* message count/volume is unchanged;
* ``lbmhd_serial`` — fused vs naive single-rank stepping;
* ``cactus_stencils`` — fused grad/hessian/Kreiss-Oliger vs the
  allocating reference forms in
  :mod:`repro.apps.cactus.stencils_ref`;
* ``paratec_transpose`` — the parallel FFT roundtrip on the zero-copy
  transport vs the legacy deep-copy transport;
* ``backend_scaling`` (enabled by ``--backend process``) — the fused
  4-rank LBMHD step on OS-process ranks vs the GIL-sharing thread
  backend.  The gated quantity is the **kernel-path** time (wall
  seconds inside the rank program, interpreter spawn/import excluded);
  end-to-end job times are recorded alongside.  Unlike the other
  entries this speedup depends on physical core count, so the check
  gates it on ``cpu_count >= min_cores`` and on matching scale, while
  bit-identical results and unchanged logical traffic are enforced
  everywhere.

Each entry also records tracemalloc peak allocation for one call of
either side — the "allocation count" evidence that the fast paths hold
steady-state temporaries instead of reallocating.

Timings are min-of-N over ``time.perf_counter`` with a warmup call, the
standard way to suppress scheduler noise for sub-second kernels.
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc
from typing import Any, Callable

import numpy as np

SCHEMA_VERSION = 1

#: Relative tolerance band for baseline comparison (satellite f).
DEFAULT_TOLERANCE = 0.30


def _best_time(fn: Callable[[], Any], repeats: int = 5,
               warmup: int = 1) -> float:
    """Minimum wall time of ``fn()`` over ``repeats`` runs (seconds)."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _peak_alloc(fn: Callable[[], Any]) -> int:
    """tracemalloc peak bytes for one call of ``fn`` (after a warmup)."""
    fn()
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


# -- individual benchmarks ---------------------------------------------------

def bench_gtc_deposition(quick: bool = False) -> dict:
    from ..apps.gtc.deposition import deposit_classic, deposit_fast
    from ..apps.gtc.grid import AnnulusGrid, TorusGeometry
    from ..apps.gtc.particles import load_uniform

    grid = AnnulusGrid(nr=64, ntheta=64, r0=0.1, r1=1.0)
    geo = TorusGeometry(plane=grid, nplanes=1)
    ppc = 8 if quick else 32
    particles = load_uniform(geo, ppc, seed=1)
    reps = 2 if quick else 5
    t_naive = _best_time(lambda: deposit_classic(grid, particles), reps)
    t_fast = _best_time(lambda: deposit_fast(grid, particles), reps)
    ref = deposit_classic(grid, particles)
    fast = deposit_fast(grid, particles)
    max_rel = float(np.max(np.abs(fast - ref)
                           / np.maximum(np.abs(ref), 1e-300)))
    return {
        "n_particles": len(particles),
        "naive_seconds": t_naive,
        "fast_seconds": t_fast,
        "speedup": t_naive / t_fast,
        "max_rel_error": max_rel,
        "naive_peak_alloc_bytes": _peak_alloc(
            lambda: deposit_classic(grid, particles)),
        "fast_peak_alloc_bytes": _peak_alloc(
            lambda: deposit_fast(grid, particles)),
    }


def bench_lbmhd_serial(quick: bool = False) -> dict:
    from ..apps.lbmhd.initial import orszag_tang
    from ..apps.lbmhd.lattice import OCT9
    from ..apps.lbmhd.solver import LBMHDSolver

    n = 64 if quick else 128
    steps = 2 if quick else 5
    naive = LBMHDSolver(*orszag_tang(n, n), lattice=OCT9,
                        tau=0.8, tau_m=0.9)
    fused = LBMHDSolver(*orszag_tang(n, n), lattice=OCT9,
                        tau=0.8, tau_m=0.9, fused=True)
    reps = 2 if quick else 5
    t_naive = _best_time(lambda: naive.step(steps), reps)
    t_fused = _best_time(lambda: fused.step(steps), reps)
    return {
        "grid": [n, n],
        "steps": steps,
        "naive_seconds": t_naive,
        "fused_seconds": t_fused,
        "speedup": t_naive / t_fused,
        "naive_peak_alloc_bytes": _peak_alloc(lambda: naive.step(1)),
        "fused_peak_alloc_bytes": _peak_alloc(lambda: fused.step(1)),
    }


def bench_lbmhd_parallel(quick: bool = False) -> dict:
    from ..apps.lbmhd.initial import orszag_tang
    from ..apps.lbmhd.lattice import OCT9
    from ..apps.lbmhd.parallel import run_parallel
    from ..runtime.transport import Transport

    n = 64 if quick else 128
    nsteps = 4 if quick else 20
    nprocs = 4
    rho, u, B = orszag_tang(n, n)

    def run(fused: bool, zero_copy: bool) -> Transport:
        tp = Transport(nprocs, zero_copy=zero_copy)
        run_parallel(rho, u, B, nprocs=nprocs, nsteps=nsteps,
                     lattice=OCT9, tau=0.8, tau_m=0.9, fused=fused,
                     transport=tp)
        return tp

    reps = 2 if quick else 5
    t_naive = _best_time(lambda: run(False, False), reps, warmup=1)
    t_fused = _best_time(lambda: run(True, True), reps, warmup=1)
    tp_naive = run(False, False)
    tp_fused = run(True, True)
    return {
        "grid": [n, n],
        "nprocs": nprocs,
        "steps": nsteps,
        "naive_seconds": t_naive,
        "fused_seconds": t_fused,
        "speedup": t_naive / t_fused,
        # Logical traffic must be identical: the zero-copy protocol
        # changes who owns the bytes, never how many bytes the paper's
        # tables account for.
        "naive_logical_messages": tp_naive.message_count(),
        "fused_logical_messages": tp_fused.message_count(),
        "naive_logical_bytes": tp_naive.total_bytes(),
        "fused_logical_bytes": tp_fused.total_bytes(),
        "fused_physical_copy_bytes": tp_fused.buffers.copy_bytes,
        "fused_pool_stats": tp_fused.pool.stats(),
    }


def bench_cactus_stencils(quick: bool = False) -> dict:
    from ..apps.cactus import stencils as st
    from ..apps.cactus import stencils_ref as ref

    n = 28 if quick else 44
    rng = np.random.default_rng(5)
    field = rng.normal(size=(n, n, n))
    spacing = (0.1, 0.1, 0.1)
    inner = n - 2
    core = n - 2 * st.GHOST
    g_out = np.empty((3, inner, inner, inner))
    h_out = np.empty((6, inner, inner, inner))
    k_out = np.empty((core, core, core))

    def fused() -> None:
        st.grad(field, spacing, out=g_out)
        st.hessian(field, spacing, out=h_out)
        st.kreiss_oliger(field, spacing, 0.1, out=k_out)

    def naive() -> None:
        ref.grad_ref(field, spacing)
        ref.hessian_ref(field, spacing)
        ref.kreiss_oliger_ref(field, spacing, 0.1)

    reps = 3 if quick else 7
    t_naive = _best_time(naive, reps)
    t_fused = _best_time(fused, reps)
    return {
        "grid": [n, n, n],
        "naive_seconds": t_naive,
        "fused_seconds": t_fused,
        "speedup": t_naive / t_fused,
        "naive_peak_alloc_bytes": _peak_alloc(naive),
        "fused_peak_alloc_bytes": _peak_alloc(fused),
    }


def _copy_arrays(obj: Any) -> Any:
    """Recursively copy every ndarray in a nested chunk structure."""
    if isinstance(obj, np.ndarray):
        return obj.copy()
    if isinstance(obj, tuple):
        return tuple(_copy_arrays(x) for x in obj)
    if isinstance(obj, list):
        return [_copy_arrays(x) for x in obj]
    return obj


class _PackCopyComm:
    """Comm proxy that restores the seed's explicit packing copies.

    The optimized transpose hands strided *views* to ``alltoall`` and
    lets the ownership protocol perform the single packing copy; the
    pre-optimization code called ``.copy()`` on every chunk first and
    then paid the legacy transport's deep copy on send.  Re-adding the
    chunk copy on a legacy transport reproduces that double-copy
    reference for the benchmark.
    """

    def __init__(self, comm):
        self._comm = comm

    def __getattr__(self, name):
        return getattr(self._comm, name)

    def alltoall(self, chunks):
        return self._comm.alltoall(_copy_arrays(chunks))


def bench_paratec_transpose(quick: bool = False) -> dict:
    from ..apps.paratec.basis import PlaneWaveBasis
    from ..apps.paratec.fft3d import ParallelFFT3D, SphereLayout
    from ..apps.paratec.lattice_cell import silicon_primitive
    from ..runtime.comm import ParallelJob
    from ..runtime.transport import Transport

    ecut = 3.0 if quick else 10.0
    nprocs = 4
    basis = PlaneWaveBasis(silicon_primitive(), ecut=ecut)
    layout = SphereLayout(basis, nprocs)
    rng = np.random.default_rng(9)
    coeff = (rng.normal(size=basis.size)
             + 1j * rng.normal(size=basis.size))

    def roundtrip(zero_copy: bool) -> None:
        tp = Transport(nprocs, zero_copy=zero_copy)

        def prog(comm):
            if not zero_copy:
                comm = _PackCopyComm(comm)
            fft = ParallelFFT3D(basis, layout, comm)
            local = coeff[fft.my_sphere]
            slab = fft.forward(local)
            fft.inverse(slab)

        ParallelJob(nprocs, transport=tp).run(prog)

    reps = 2 if quick else 5
    t_naive = _best_time(lambda: roundtrip(False), reps, warmup=1)
    t_fast = _best_time(lambda: roundtrip(True), reps, warmup=1)
    return {
        "basis_size": basis.size,
        "nprocs": nprocs,
        "naive_seconds": t_naive,
        "fast_seconds": t_fast,
        "speedup": t_naive / t_fast,
    }


def bench_backend_scaling(quick: bool = False) -> dict:
    """Fused 4-rank LBMHD: OS-process ranks vs GIL-sharing threads.

    ``naive_seconds``/``fused_seconds`` are kernel-path times — the
    slowest rank's wall seconds *inside* the rank program, so process
    spawn and interpreter import are excluded (they are a fixed cost,
    amortized over any real campaign; the raw end-to-end times are
    recorded as ``job_*_seconds``).  Both backends must produce
    bit-identical fields and identical logical traffic.
    """
    from ..apps.lbmhd.initial import orszag_tang
    from ..apps.lbmhd.lattice import OCT9
    from ..apps.lbmhd.parallel import run_parallel
    from ..runtime.transport import Transport

    n = 64 if quick else 256
    nsteps = 6 if quick else 24
    nprocs = 4
    reps = 1 if quick else 2
    warmup = 0 if quick else 1
    rho, u, B = orszag_tang(n, n)

    def run(backend: str):
        tp = Transport(nprocs, zero_copy=True)
        t0 = time.perf_counter()
        out = run_parallel(rho, u, B, nprocs=nprocs, nsteps=nsteps,
                           lattice=OCT9, tau=0.8, tau_m=0.9, fused=True,
                           transport=tp, backend=backend)
        job_s = time.perf_counter() - t0
        return out, tp, job_s, max(tp.body_seconds.values())

    kernel: dict[str, float] = {}
    job: dict[str, float] = {}
    keep: dict[str, tuple] = {}
    for backend in ("thread", "process"):
        for _ in range(warmup):
            run(backend)
        kernel[backend] = job[backend] = float("inf")
        for _ in range(reps):
            out, tp, job_s, kern_s = run(backend)
            kernel[backend] = min(kernel[backend], kern_s)
            job[backend] = min(job[backend], job_s)
        keep[backend] = (out, tp)
    (rho_t, u_t, B_t), tp_t = keep["thread"]
    (rho_p, u_p, B_p), tp_p = keep["process"]
    identical = (np.array_equal(rho_t, rho_p)
                 and np.array_equal(u_t, u_p)
                 and np.array_equal(B_t, B_p))
    return {
        "grid": [n, n],
        "nprocs": nprocs,
        "steps": nsteps,
        # The thread/process ratio is physical-parallelism dependent —
        # meaningless on fewer cores than ranks, so the regression
        # check gates the speedup floor on the *current* host's count.
        "cpu_count": os.cpu_count() or 1,
        "min_cores": 4,
        "speedup_floor": 2.0,
        "requires_backend": "process",
        "naive_seconds": kernel["thread"],
        "fused_seconds": kernel["process"],
        "speedup": kernel["thread"] / kernel["process"],
        "job_naive_seconds": job["thread"],
        "job_fused_seconds": job["process"],
        "bit_identical": identical,
        "naive_logical_messages": tp_t.message_count(),
        "fused_logical_messages": tp_p.message_count(),
        "naive_logical_bytes": tp_t.total_bytes(),
        "fused_logical_bytes": tp_p.total_bytes(),
    }


_BENCHMARKS: dict[str, Callable[[bool], dict]] = {
    "gtc_deposition": bench_gtc_deposition,
    "lbmhd_serial": bench_lbmhd_serial,
    "lbmhd_parallel": bench_lbmhd_parallel,
    "cactus_stencils": bench_cactus_stencils,
    "paratec_transpose": bench_paratec_transpose,
    "backend_scaling": bench_backend_scaling,
}

#: benchmarks that only run when the process backend is requested
_BACKEND_ONLY = {"backend_scaling": "process"}


def run_bench(quick: bool = False,
              only: list[str] | None = None,
              backend: str = "thread") -> dict:
    """Run the benchmark suite; returns the BENCH_PERF document.

    ``backend="process"`` adds the thread-vs-process ``backend_scaling``
    comparison to the default set (the remaining entries time kernels
    against their naive references exactly as before — their ratios do
    not depend on the execution backend).
    """
    if backend not in ("thread", "process"):
        raise ValueError(
            f"unknown backend {backend!r} (choose thread or process)")
    names = only if only else [
        n for n in _BENCHMARKS
        if _BACKEND_ONLY.get(n, backend) == backend]
    unknown = [n for n in names if n not in _BENCHMARKS]
    if unknown:
        raise ValueError(f"unknown benchmarks: {unknown}")
    benchmarks = {}
    for name in names:
        benchmarks[name] = _BENCHMARKS[name](quick)
    return {
        "version": SCHEMA_VERSION,
        "quick": quick,
        "backend": backend,
        "cpu_count": os.cpu_count() or 1,
        "benchmarks": benchmarks,
    }


def check_regression(current: dict, baseline: dict,
                     tolerance: float = DEFAULT_TOLERANCE) -> list[str]:
    """Compare a fresh run against the committed baseline.

    Returns a list of human-readable failures (empty = pass).  Speedup
    *ratios* are compared — both sides of each ratio ran on the same
    machine, so the check is host-speed independent; a benchmark fails
    when its speedup falls more than ``tolerance`` below the baseline's.
    Logical traffic (message counts/bytes) must match *exactly*: it is a
    property of the algorithm, not the machine.
    """
    failures: list[str] = []
    base_marks = baseline.get("benchmarks", {})
    cur_marks = current.get("benchmarks", {})
    cur_backend = current.get("backend", "thread")
    for name, base in base_marks.items():
        cur = cur_marks.get(name)
        if cur is None:
            if base.get("requires_backend", "thread") != cur_backend:
                continue    # suite member not enabled for this backend
            failures.append(f"{name}: missing from current run")
            continue
        same_scale = all(cur.get(k) == base.get(k)
                         for k in ("grid", "steps", "nprocs"))
        floor = base["speedup"] * (1.0 - tolerance)
        check_speedup = True
        min_cores = int(base.get("min_cores", 0))
        if min_cores:
            # Physical-parallelism entry: the floor is an absolute
            # acceptance number, only meaningful with enough cores and
            # at the baseline's scale.  Parity and traffic equality
            # below are enforced unconditionally.
            floor = float(base.get("speedup_floor", floor))
            if int(cur.get("cpu_count", 0)) < min_cores or not same_scale:
                check_speedup = False
        if check_speedup and cur["speedup"] < floor:
            failures.append(
                f"{name}: speedup {cur['speedup']:.2f}x fell below "
                f"{floor:.2f}x (baseline {base['speedup']:.2f}x "
                f"- {tolerance:.0%} band)")
        if same_scale:
            for key in ("naive_logical_messages", "naive_logical_bytes",
                        "fused_logical_messages", "fused_logical_bytes"):
                if key in base and cur.get(key) != base[key]:
                    failures.append(
                        f"{name}: {key} changed "
                        f"{base[key]} -> {cur.get(key)}")
    for name, cur in cur_marks.items():
        if cur.get("bit_identical") is False:
            failures.append(
                f"{name}: process backend result diverged from the "
                f"thread backend (bit parity broken)")
        # Logical traffic must also agree *within* a run: the fast path
        # may not change what the paper's tables count.
        if ("naive_logical_bytes" in cur
                and cur["naive_logical_bytes"]
                != cur.get("fused_logical_bytes")):
            failures.append(
                f"{name}: fused path changed logical bytes "
                f"({cur['naive_logical_bytes']} -> "
                f"{cur.get('fused_logical_bytes')})")
        if ("naive_logical_messages" in cur
                and cur["naive_logical_messages"]
                != cur.get("fused_logical_messages")):
            failures.append(
                f"{name}: fused path changed logical message count "
                f"({cur['naive_logical_messages']} -> "
                f"{cur.get('fused_logical_messages')})")
    return failures


def format_report(doc: dict) -> str:
    """Human-readable table of a benchmark document."""
    lines = [f"{'benchmark':<20} {'naive':>10} {'fast':>10} {'speedup':>8}"]
    for name, b in doc.get("benchmarks", {}).items():
        naive = b.get("naive_seconds")
        fast = b.get("fast_seconds", b.get("fused_seconds"))
        lines.append(f"{name:<20} {naive * 1e3:>8.1f}ms "
                     f"{fast * 1e3:>8.1f}ms {b['speedup']:>7.2f}x")
    return "\n".join(lines)


def load_baseline(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
