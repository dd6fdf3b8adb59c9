"""The acceptance property: SIGKILL a campaign mid-step, resume it, and
get a byte-identical final report while re-executing only the
incomplete steps (verified via cache-hit and journal counters)."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign.engine import run_campaign
from repro.campaign.journal import replay_journal, validate_journal
from repro.campaign.store import ResultStore

_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: 15 steps: a 12-cell probe sweep + one flaky (retried transient) +
#: one poisoned (persistent) + a summary over the healthy sweep
_SPEC = {
    "campaign": "kill-resume",
    "seed": 42,
    "workers": 2,
    "defaults": {"timeout_s": 60, "max_retries": 2},
    "matrix": [
        {"kind": "probe", "app": ["a", "b", "c", "d"],
         "nprocs": [1, 2, 3], "work_s": 0.25},
    ],
    "steps": [
        {"id": "flaky", "kind": "probe", "payload": "flaky",
         "work_s": 0.05, "inject": {"transient": 1}},
        {"id": "poisoned", "kind": "probe", "payload": "poisoned",
         "inject": {"persistent": True}},
        {"id": "roundup", "kind": "summary",
         "after": ["probe-*", "flaky"]},
    ],
}


def _spawn(spec_path: Path, outdir: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "run",
         str(spec_path), "--out", str(outdir), "-q"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)


def _published(outdir: Path) -> int:
    """Published store entries, counted read-only.

    Deliberately NOT via :class:`ResultStore` — its constructor clears
    staging directories, which would sabotage the still-running writer
    we are watching.
    """
    store_dir = outdir / "store" / "objects"
    if not store_dir.exists():
        return 0
    # Skip `.tmp-` staging directories before descending: the live
    # writer renames them away, so scanning one can hit a vanished path.
    return sum(1 for shard in store_dir.iterdir() if shard.is_dir()
               for entry in shard.iterdir()
               if not entry.name.startswith(".tmp-")
               and (entry / "result.json").exists())


def _wait_for_store_entries(outdir: Path, n: int,
                            timeout: float = 60.0) -> int:
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        count = _published(outdir)
        if count >= n:
            return count
        time.sleep(0.02)
    raise AssertionError(
        f"campaign produced fewer than {n} store entries in "
        f"{timeout}s")


class TestKillResume:
    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_SPEC))

        # reference: the same spec run start-to-finish, never killed
        ref = run_campaign(str(spec_path), tmp_path / "reference")
        assert ref.status == "partial"          # the poisoned step
        reference_bytes = ref.report_path.read_bytes()

        # victim: killed hard once a few steps have been published
        outdir = tmp_path / "victim"
        proc = _spawn(spec_path, outdir)
        try:
            done_before = _wait_for_store_entries(outdir, 3)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL

        # the interrupted journal replays cleanly: at most a torn tail,
        # no campaign-end, and the crash window visible as in-flight
        state = replay_journal(outdir / "journal.jsonl")
        assert state.sessions == 1
        assert state.end_status is None
        assert validate_journal(outdir / "journal.jsonl") == []
        completed = len(ResultStore(outdir / "store"))
        assert completed >= done_before
        assert completed < 14                    # genuinely mid-run

        # resume re-executes exactly the incomplete steps: every
        # published result is a cache hit, nothing is recomputed
        res = run_campaign(None, outdir, resume=True)
        assert res.resumed
        assert res.status == "partial"
        assert res.outcome.cache_hits == completed
        assert res.outcome.executed == 15 - completed
        state = replay_journal(outdir / "journal.jsonl")
        assert state.sessions == 2
        assert state.end_status == "partial"
        assert state.in_flight == []

        assert res.report_path.read_bytes() == reference_bytes

    def test_resume_of_a_finished_campaign_is_all_noops(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(_SPEC))
        outdir = tmp_path / "done"
        first = run_campaign(str(spec_path), outdir)
        blob = first.report_path.read_bytes()
        res = run_campaign(None, outdir, resume=True)
        # 14 successes cached; only the poisoned step re-executes
        assert res.outcome.cache_hits == 14
        assert res.outcome.executed == 1
        assert res.report_path.read_bytes() == blob
