"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Run from the root of a checkout.  ``--trace 0`` times closed-loop jobs
with tracing off and prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced jobs and prints the per-layer ledger.
Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Everything the run writes stays under
``.perfbench-work/`` in the checkout and is removed at exit.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _p in (str(ROOT / "src"), str(ROOT)):
    if _p not in sys.path:
        sys.path.insert(0, _p)

if __name__ == "__mp_main__":
    # Process-backend ranks are spawned interpreters that re-import this
    # file under this name: give each its exit report (and, during a
    # traced job, the layer wrappers).
    from perfbench.ledger import install_rank_hook

    install_rank_hook()


def _parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-trace", metavar="PATH",
                    help="record the trace-analyze input trace and exit")
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: the program's sources (src/repro) are missing; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    from perfbench import harness
    from perfbench.workloads import WORKLOADS, record_trace

    if args.record_trace:
        harness.emit(record_trace(Path(args.record_trace), args.seed))
        return 0
    if args.workload not in WORKLOADS:
        print(f"perfbench: --workload must be one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    import shutil
    import tempfile

    work = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    # Temporary files of the program (trace spools) stay in the checkout.
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None
    try:
        from perfbench.session import run_session

        result = run_session(WORKLOADS[args.workload](), args, ROOT, work)
    finally:
        _stop_resource_tracker()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if result is None:
        return 1
    harness.emit(result)
    return 0


def _stop_resource_tracker() -> None:
    """Stop and reap the shared-memory tracker the first spawn started."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
