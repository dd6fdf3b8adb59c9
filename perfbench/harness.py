"""Closed-loop job runner: deadlines, failure counting, provenance.

One client runs one job at a time.  Each job runs in its own thread so
the loop can give up on it at a deadline: a hung job counts as failed
instead of stalling the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

#: seconds a job is given to unwind after its deadline fired
UNWIND_GRACE = 10.0


@dataclass
class Outcome:
    """What one attempted job came back with."""

    value: Any = None
    error: str | None = None      # raise, deadline or failed check

    @property
    def failed(self) -> bool:
        return self.error is not None


def run_with_deadline(fn: Callable[[], Any], deadline_s: float,
                      on_timeout: Callable[[], None] = lambda: None
                      ) -> Outcome:
    """Run ``fn()`` in a thread; a raise or a missed deadline fails it.

    ``on_timeout`` must make the job unwind (poison its transport,
    terminate its processes); the thread is then given
    :data:`UNWIND_GRACE` seconds to finish.
    """
    box: dict[str, Any] = {}

    def target() -> None:
        try:
            box["value"] = fn()
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            box["error"] = f"raised {type(exc).__name__}: {exc}"

    t = threading.Thread(target=target, name="perfbench-job", daemon=True)
    t.start()
    t.join(deadline_s)
    if t.is_alive():
        on_timeout()
        t.join(UNWIND_GRACE)
        return Outcome(error=f"missed its {deadline_s:g} s deadline")
    if "error" in box:
        return Outcome(error=box["error"])
    if "value" not in box:
        return Outcome(error="job thread ended without a result")
    return Outcome(value=box["value"])


@dataclass
class Tally:
    """Jobs attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def add(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(error)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def digest(*arrays) -> str:
    """SHA-256 over dtype, shape and bytes: equal iff bit-identical."""
    import numpy as np

    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


# -- provenance ---------------------------------------------------------------

def _blas_info() -> dict[str, Any]:
    import numpy as np

    info: dict[str, Any] = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        info["library"] = blas.get("name")
        info["version"] = blas.get("version")
    except (TypeError, ValueError, AttributeError):
        info["library"] = None
    # Recorded as found, never set: the thread count is a property of
    # the host a later change may legitimately tune.
    info["threads_env"] = {k: os.environ.get(k) for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return info


def _git_rev(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_hash(src: Path) -> str:
    """Content hash of the program's sources (a checkout has no .git)."""
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(str(p.relative_to(src)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def provenance(root: Path, *, seed: int, workload: str,
               params: dict[str, Any], backend: str,
               ranks: int) -> dict[str, Any]:
    import numpy as np

    return {
        "workload": workload,
        "seed": seed,
        "params": params,
        "backend": backend,
        "ranks": ranks,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "git_rev": _git_rev(root),
        "src_sha256": _source_hash(root / "src"),
    }


def emit(line: dict[str, Any] | str) -> None:
    text = line if isinstance(line, str) else json.dumps(line)
    sys.stdout.write(text + "\n")
    sys.stdout.flush()

