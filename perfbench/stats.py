"""Pure arithmetic of the benchmark: summaries, rusage deltas, closure.

Nothing here imports the program under test, so the rules the reported
numbers rest on can be tested in isolation.
"""

from __future__ import annotations

import heapq
import resource
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

#: percentiles tried for the tail figure, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

#: samples that must lie strictly beyond a reported tail percentile
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated ``p``-th percentile (0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values: Sequence[float]) -> tuple[float, float] | None:
    """Highest ladder percentile with at least ten samples beyond it.

    Returns ``(p, value)``, or ``None`` when even the 75th percentile
    has fewer than :data:`TAIL_MIN_BEYOND` samples above it — a tail
    figure resting on fewer samples is not reported.
    """
    for p in TAIL_LADDER:
        if not values:
            break
        cut = percentile(values, p)
        if sum(1 for v in values if v > cut) >= TAIL_MIN_BEYOND:
            return p, cut
    return None


@dataclass(frozen=True)
class Summary:
    """Median, tail percentile (if any) and sample count of one timing."""

    median: float
    tail: tuple[float, float] | None
    count: int

    def render(self, unit: str) -> str:
        tail_txt = (f"p{self.tail[0]:g} {self.tail[1]:.6g}"
                    if self.tail is not None else "tail n/a")
        return (f"median {self.median:.6g} {unit}, {tail_txt}, "
                f"n={self.count}")


def summarize(values: Sequence[float]) -> Summary:
    if not values:
        raise ValueError("summary of no samples")
    return Summary(statistics.median(values), tail(values), len(values))


# -- CPU accounting -----------------------------------------------------------

@dataclass(frozen=True)
class CpuClock:
    """User+system CPU seconds of this process and its reaped children."""

    self_s: float
    children_s: float

    @staticmethod
    def now() -> "CpuClock":
        me = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return CpuClock(me.ru_utime + me.ru_stime,
                        kids.ru_utime + kids.ru_stime)

    def since(self, start: "CpuClock") -> float:
        """CPU seconds spent since ``start`` by the parent and by every
        child process reaped in between (RUSAGE_CHILDREN only grows when
        a child is waited for)."""
        return ((self.self_s - start.self_s)
                + (self.children_s - start.children_s))


def vmhwm_kb(status_path: str = "/proc/self/status") -> int:
    """Peak resident set of this process's own address space, in KiB.

    ``ru_maxrss`` is not used: Linux seeds it at ``exec`` with the
    parent's high-water mark, so a spawned rank would report at least its
    parent's size.  ``VmHWM`` belongs to the current address space only.
    """
    try:
        with open(status_path, encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


# -- closure of the layer ledger ----------------------------------------------

@dataclass(frozen=True)
class Span:
    """One interval on the closure timeline.

    ``priority`` ranks timelines that may overlap (the job's own thread
    over the rank program it waits for); within one timeline the span
    that started last — the innermost — owns the instant.
    """

    label: str
    start: float
    end: float
    priority: int = 0


def exclusive_times(spans: Iterable[Span], t0: float, t1: float
                    ) -> tuple[dict[str, float], float]:
    """Split ``[t0, t1]`` among ``spans``; return per-label self time.

    Every instant goes to the covering span with the highest
    ``(priority, start)``, ties going to the one that ends first.  For
    properly nested spans this is each span's duration minus what its
    children cover.  Returns ``(self_time_by_label, uncovered)``; the
    values sum to ``t1 - t0``.
    """
    clipped = []
    for sp in spans:
        a, b = max(sp.start, t0), min(sp.end, t1)
        if b > a:
            clipped.append((sp, a, b))
    events: list[tuple[float, int, int]] = []
    for i, (_, a, b) in enumerate(clipped):
        events.append((a, 1, i))
        events.append((b, 0, i))
    events.sort()
    out: dict[str, float] = {}
    uncovered = 0.0
    heap: list[tuple[int, float, float, int]] = []
    ended: set[int] = set()
    now = t0
    for t, kind, i in events:
        if t > now:
            while heap and heap[0][3] in ended:
                heapq.heappop(heap)
            if heap:
                label = clipped[heap[0][3]][0].label
                out[label] = out.get(label, 0.0) + (t - now)
            else:
                uncovered += t - now
            now = t
        sp, a, b = clipped[i]
        if kind == 1:
            heapq.heappush(heap, (-sp.priority, -a, b, i))
        else:
            ended.add(i)
    if t1 > now:
        uncovered += t1 - now
    return out, uncovered


def closure_error(self_times: dict[str, float], uncovered: float,
                  t0: float, t1: float) -> float:
    """How far the self times plus uncovered time miss ``t1 - t0``."""
    return abs(sum(self_times.values()) + uncovered - (t1 - t0))
