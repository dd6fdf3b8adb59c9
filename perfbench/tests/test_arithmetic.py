"""The benchmark's own arithmetic: summaries, CPU deltas, closure, failures.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from perfbench import harness, session, stats
from perfbench.workloads import WORKLOADS, JobResult, Workload

ROOT = Path(__file__).resolve().parents[2]


# -- percentile rule ----------------------------------------------------------

def test_no_tail_below_ten_samples_beyond():
    assert stats.tail([float(i) for i in range(1, 11)]) is None
    s = stats.summarize([3.0, 1.0, 2.0])
    assert (s.median, s.tail, s.count) == (2.0, None, 3)
    assert "tail n/a" in s.render("s") and "n=3" in s.render("s")


@pytest.mark.parametrize("n, p, cut", [
    (40, 75.0, 30.25),      # p90 would leave only 4 beyond
    (100, 90.0, 90.1),      # exactly ten above 90.1
    (1000, 99.0, 990.01),
])
def test_highest_percentile_with_ten_beyond(n, p, cut):
    values = [float(i) for i in range(1, n + 1)]
    got = stats.tail(values)
    assert got is not None
    assert got[0] == p
    assert got[1] == pytest.approx(cut)
    assert sum(1 for v in values if v > got[1]) >= stats.TAIL_MIN_BEYOND
    assert stats.summarize(values).count == n


# -- getrusage deltas ---------------------------------------------------------

def test_cpu_clock_counts_reaped_children():
    burn = ("import time\nt = time.process_time()\n"
            "while time.process_time() - t < 0.3: pass\n")
    c0 = stats.CpuClock.now()
    subprocess.run([sys.executable, "-c", burn], check=True, timeout=60)
    c1 = stats.CpuClock.now()
    assert c1.children_s - c0.children_s >= 0.25
    assert c1.since(c0) >= c1.children_s - c0.children_s


def test_cpu_clock_self_delta_excludes_unreaped_child():
    c0 = stats.CpuClock.now()
    proc = subprocess.Popen([sys.executable, "-c",
                             "import time; time.sleep(0.2)"])
    mid = stats.CpuClock.now()
    proc.wait(timeout=60)
    assert mid.children_s == c0.children_s   # not waited for yet


def test_vmhwm_reads_status_file(tmp_path):
    status = tmp_path / "status"
    status.write_text("Name:\tpython\nVmHWM:\t  12345 kB\nVmRSS:\t 1 kB\n")
    assert stats.vmhwm_kb(str(status)) == 12345
    assert stats.vmhwm_kb() > 0


# -- closure ------------------------------------------------------------------

def test_self_time_is_span_minus_children():
    spans = [stats.Span("job", 0.0, 10.0, 0),
             stats.Span("a", 1.0, 5.0, 1),
             stats.Span("b", 2.0, 3.0, 1),     # child of a
             stats.Span("b", 3.5, 4.0, 1),     # child of a
             stats.Span("c", 6.0, 9.0, 1)]
    self_t, uncovered = stats.exclusive_times(spans, 0.0, 10.0)
    assert self_t["a"] == pytest.approx(4.0 - 1.5)
    assert self_t["b"] == pytest.approx(1.5)
    assert self_t["c"] == pytest.approx(3.0)
    assert self_t["job"] == pytest.approx(10.0 - 4.0 - 3.0)
    assert uncovered == 0.0
    assert stats.closure_error(self_t, uncovered, 0.0, 10.0) < 1e-12


def test_higher_priority_timeline_owns_overlap_and_gaps_are_uncovered():
    spans = [stats.Span("rank", 1.0, 4.0, 1),
             stats.Span("spawn", 0.5, 2.0, 2),
             stats.Span("late", 9.0, 12.0, 1)]     # clipped at 10
    self_t, uncovered = stats.exclusive_times(spans, 0.0, 10.0)
    assert self_t == pytest.approx({"spawn": 1.5, "rank": 2.0,
                                    "late": 1.0})
    assert uncovered == pytest.approx(0.5 + 5.0)
    assert sum(self_t.values()) + uncovered == pytest.approx(10.0)


def test_equal_start_goes_to_the_inner_span():
    spans = [stats.Span("outer", 0.0, 2.0, 1),
             stats.Span("inner", 0.0, 1.0, 1)]
    self_t, _ = stats.exclusive_times(spans, 0.0, 2.0)
    assert self_t == pytest.approx({"inner": 1.0, "outer": 1.0})


# -- failure counting ---------------------------------------------------------

class _Fake(Workload):
    name = "fake"
    deadline_s = 0.5

    def __init__(self, mode: str):
        super().__init__()
        self.mode = mode
        self.release = threading.Event()

    def job(self, tracer=None):
        if self.mode == "raise":
            raise RuntimeError("rank 1 failed")
        if self.mode == "hang":
            self.release.wait(30)
            raise TimeoutError("unwound after abort")
        return JobResult("wrong" if self.mode == "wrong" else "good",
                         {"messages": 1}, 0.1, 1)

    def check(self, res):
        return None if res.counts["messages"] == 1 else "bad count"

    def reference(self):
        return JobResult("good", {"messages": 1}, 0.1, 1)

    def abort(self):
        self.release.set()


@pytest.mark.parametrize("mode, failed", [
    ("good", 0), ("raise", 1), ("hang", 1), ("wrong", 1)])
def test_each_failure_kind_is_counted(mode, failed, tmp_path):
    wl = _Fake(mode)
    tally = harness.Tally()
    sample, _ = session._attempt(wl, tally, tmp_path)
    if sample is not None:
        session._reference_errors(wl, [sample], tally)
    assert (tally.attempted, tally.failed) == (1, failed)
    assert tally.fail_ratio == failed
    if mode == "hang":
        assert "deadline" in tally.reasons[0]
        assert wl.release.is_set()


def test_fail_ratio_over_mixed_jobs(tmp_path):
    tally = harness.Tally()
    samples = []
    for mode in ("good", "raise", "good", "wrong"):
        wl = _Fake(mode)
        sample, _ = session._attempt(wl, tally, tmp_path)
        if sample is not None:
            samples.append(sample)
    session._reference_errors(_Fake("good"), samples, tally)
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.fail_ratio == 0.5


# -- the benchmark file names what the code prints ----------------------------

def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == \
        [n for n, _ in session.END_TO_END]
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        list(session.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == \
        [w.why for w in WORKLOADS.values()]
