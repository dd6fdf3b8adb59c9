"""Cross-rank performance attribution over recorded traces.

The paper explains *where* each application's time goes on each
platform; PR-2's tracer records the raw events but nothing answered
"which rank/phase is the bottleneck and why".  This module is the
analysis layer that does, in four steps (DESIGN.md §10):

1. **Causal graph** — re-match the trace's ``send``/``recv`` spans
   (per-channel FIFO, by the trace-replay core :mod:`.replay` that the
   comm, race and deadlock checkers share) and group collective spans
   into rounds, yielding cross-rank happens-before edges.
2. **Wait-state classification** (Scalasca taxonomy) — a receive that
   blocks until its matching send completes is a *late-sender* wait; a
   send that starts before its receiver posts is a *late-receiver*
   wait; time spent inside a barrier/collective before the last rank
   arrives is *collective* wait.  Whatever remains of a comm span is
   transfer cost.
3. **Attribution** — every top-level span on every rank is split
   exactly into compute + communication + wait and charged to its
   enclosing application phase (or the ``(between-phases)`` residual
   bucket), so per-phase numbers sum to the total traced time *by
   construction*.  Per-phase load imbalance is ``max/mean`` of the
   per-rank phase totals, matching the VirtualClocks convention.
4. **Critical path** — walk backward from the globally latest span
   end; at every recognized wait state, jump to the rank that caused
   it (the sender, or the last-arriving rank of a collective).  The
   resulting rank-segment chain contains no avoidable wait: shortening
   any segment on it shortens the run.

The **model join** closes the loop with ``repro.perf``: measured
per-phase *fractions* of run time are compared against the
:class:`~repro.perf.model.PerformanceModel` prediction for the same
(app, machine, concurrency) point — fractions, because the host
running the simulation and the modeled machine have incommensurable
absolute speeds — and phases whose shares diverge beyond a threshold
are flagged.  That is the first rung of the ROADMAP's calibration
loop.

Everything here is pure analysis over immutable event data: no
tracer, transport, or runtime state is touched, so traces can be
analyzed offline (``repro report --trace trace.json``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any

from .events import CAT_COMM, CAT_PHASE, CAT_SYNC
from .replay import COLLECTIVE_SPANS as COLLECTIVE_SPANS
from .replay import TraceError, match, spans

#: schema tag written into (and required from) report.json
REPORT_SCHEMA = "repro.profile.report/1"

#: Scalasca-style wait-state classes
WAIT_LATE_SENDER = "late-sender"
WAIT_LATE_RECEIVER = "late-receiver"
WAIT_COLLECTIVE = "collective"
WAIT_KINDS = (WAIT_LATE_SENDER, WAIT_LATE_RECEIVER, WAIT_COLLECTIVE)

#: residual bucket for comm/sync time outside any application phase
#: (set-up and result collectives, monitor traffic in un-annotated code)
BETWEEN_PHASES = "(between-phases)"

#: default divergence threshold for the measured-vs-modeled join
#: (absolute difference of run-time fractions)
DEFAULT_THRESHOLD = 0.25

#: backstop on critical-path length (segments), far above any real walk
_MAX_PATH_SEGMENTS = 100_000


class ProfileError(RuntimeError):
    """A trace cannot be profiled (empty, span-free, or malformed)."""


# ---------------------------------------------------------------------------
# activities: normalized spans with nesting
# ---------------------------------------------------------------------------

@dataclass
class Activity:
    """One span occurrence, placed in its rank's nesting structure."""

    index: int                    # position in the global activity list
    rank: int
    name: str
    cat: str
    start: float                  # seconds since trace epoch
    end: float
    seq: int
    args: dict[str, Any] = field(default_factory=dict)
    kind: str | None = None       # the replay core's send/recv/collective
    parent: int | None = None     # enclosing activity's index
    depth: int = 0
    phase: str | None = None      # nearest enclosing CAT_PHASE name
    # wait-state classification (filled by classify_waits)
    wait: float = 0.0
    wait_kind: str | None = None
    cause_rank: int | None = None
    cause_time: float | None = None

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def wait_end(self) -> float:
        """When the blocked portion of this span ended."""
        return self.start + self.wait


def load_activities(source: Any) -> list[Activity]:
    """Load span events from ``source`` and resolve per-rank nesting.

    Raises :class:`ProfileError` when the trace holds no span events —
    the signature of a run recorded with the :class:`~repro.obs.tracer.
    NullTracer` (tracing disabled) or a file that is not a trace.
    """
    try:
        by_rank = spans(source).by_rank
    except TraceError as err:
        raise ProfileError(str(err)) from err
    if not by_rank:
        raise ProfileError(
            "trace contains no span events; nothing to attribute. "
            "Was the run recorded with tracing disabled (NullTracer)? "
            "Re-run via `repro trace <app>` or `repro report <app>`.")
    # Per rank, sort by (start, -end) so an enclosing span precedes the
    # spans it contains; resolve nesting with a containment stack.
    # (Per-rank wall time is monotonic and spans nest properly; seq is
    # assigned at span *exit*, so it cannot be used for containment.)
    activities: list[Activity] = []
    for rank in sorted(by_rank):
        ordered = sorted(by_rank[rank],
                         key=lambda e: (e.start, -(e.start + e.dur), e.seq))
        stack: list[Activity] = []
        for ev in ordered:
            act = Activity(index=len(activities), rank=rank, name=ev.name,
                           cat=ev.cat, start=ev.start,
                           end=ev.start + ev.dur, seq=ev.seq,
                           args=ev.args, kind=ev.kind)
            while stack and not (act.start >= stack[-1].start - 1e-12
                                 and act.end <= stack[-1].end + 1e-12):
                stack.pop()
            if stack:
                act.parent = stack[-1].index
                act.depth = stack[-1].depth + 1
                act.phase = (stack[-1].name
                             if stack[-1].cat == CAT_PHASE
                             else stack[-1].phase)
            if act.cat == CAT_PHASE:
                act.phase = act.name
            activities.append(act)
            stack.append(act)
    return activities


# ---------------------------------------------------------------------------
# causal graph: p2p matching + collective rounds
# ---------------------------------------------------------------------------

@dataclass
class CommEdge:
    """Matched point-to-point pair: ``send`` activity → ``recv``."""

    send: Activity
    recv: Activity
    src: int
    dst: int
    tag: int


@dataclass
class CollectiveRound:
    """One round of one collective: the k-th occurrence on each rank."""

    name: str
    round_index: int
    participants: list[Activity]
    last_rank: int                # last rank to enter the round
    t_last: float                 # that rank's entry time


@dataclass
class CausalGraph:
    """Cross-rank happens-before structure recovered from a trace."""

    activities: list[Activity]
    nranks: int
    edges: list[CommEdge]
    rounds: list[CollectiveRound]
    unmatched_sends: int
    unmatched_recvs: int


def build_graph(activities: list[Activity],
                nranks: int | None = None) -> CausalGraph:
    """Match p2p spans per FIFO channel and group collective rounds."""
    if not activities:
        raise ProfileError("no activities; nothing to match")
    if nranks is None:
        nranks = max(a.rank for a in activities) + 1
    # Per-rank (start, seq) order is program order; the replay core
    # FIFO-matches each (src, dst, tag) channel over it and groups the
    # k-th occurrence of each collective name into round k.
    per_rank: dict[int, list[Activity]] = {}
    for act in activities:
        per_rank.setdefault(act.rank, []).append(act)
    for acts in per_rank.values():
        acts.sort(key=lambda a: (a.start, a.seq))
    matching = match(per_rank)
    edges = [CommEdge(send=s, recv=r, src=src, dst=dst, tag=tag)
             for (src, dst, tag), s, r in matching.pairs]
    unmatched = matching.unmatched.values()
    unmatched_sends = sum(max(ns - nr, 0) for ns, nr in unmatched)
    unmatched_recvs = sum(max(nr - ns, 0) for ns, nr in unmatched)
    rounds: list[CollectiveRound] = []
    for name, k in sorted(matching.rounds):
        parts = matching.rounds[(name, k)]
        if len(parts) < 2:
            continue
        last = max(parts, key=lambda a: (a.start, a.rank))
        rounds.append(CollectiveRound(
            name=name, round_index=k, participants=parts,
            last_rank=last.rank, t_last=last.start))
    return CausalGraph(activities=activities, nranks=nranks, edges=edges,
                       rounds=rounds, unmatched_sends=unmatched_sends,
                       unmatched_recvs=unmatched_recvs)


# ---------------------------------------------------------------------------
# wait-state classification
# ---------------------------------------------------------------------------

def classify_waits(graph: CausalGraph) -> None:
    """Annotate activities in place with Scalasca-style wait states.

    * **late-sender** — a ``recv`` blocks from its start until the
      matching send's completion (the message's arrival); that blocked
      prefix is wait, the rest is transfer.
    * **late-receiver** — a ``send`` that starts before its receiver
      posts; with this runtime's buffered sends the send returns after
      posting, so the classifiable window is clamped to the send span.
    * **collective** — time a rank spends inside a barrier/collective
      before the last participant arrives.

    Waits are clamped into their own span, so downstream attribution
    stays an exact partition (wait ≤ span duration always).
    """
    for edge in graph.edges:
        s, r = edge.send, edge.recv
        wait = min(max(s.end - r.start, 0.0), r.dur)
        if wait > 0.0:
            r.wait = wait
            r.wait_kind = WAIT_LATE_SENDER
            r.cause_rank = s.rank
            r.cause_time = min(s.end, r.wait_end)
        s_wait = min(max(r.start - s.start, 0.0), s.dur)
        if s_wait > 0.0:
            s.wait = s_wait
            s.wait_kind = WAIT_LATE_RECEIVER
            s.cause_rank = r.rank
            s.cause_time = min(r.start, s.wait_end)
    for rnd in graph.rounds:
        for part in rnd.participants:
            if part.rank == rnd.last_rank:
                continue
            wait = min(max(rnd.t_last - part.start, 0.0), part.dur)
            if wait > 0.0 and wait > part.wait:
                part.wait = wait
                part.wait_kind = WAIT_COLLECTIVE
                part.cause_rank = rnd.last_rank
                part.cause_time = min(rnd.t_last, part.wait_end)


# ---------------------------------------------------------------------------
# attribution: compute + comm + wait, per phase, per rank
# ---------------------------------------------------------------------------

@dataclass
class PhaseAttribution:
    """Where one application phase's time went, across all ranks."""

    name: str
    calls: int = 0
    compute_s: float = 0.0
    comm_s: float = 0.0           # transfer time (comm minus wait)
    wait_s: float = 0.0
    waits: dict[str, float] = field(
        default_factory=lambda: {k: 0.0 for k in WAIT_KINDS})
    per_rank_s: dict[int, float] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return self.compute_s + self.comm_s + self.wait_s

    def imbalance(self, nranks: int) -> float:
        vals = [self.per_rank_s.get(r, 0.0) for r in range(nranks)]
        mean = sum(vals) / len(vals) if vals else 0.0
        return max(vals) / mean if mean > 0 else 1.0

    def imbalance_lost_s(self, nranks: int) -> float:
        vals = [self.per_rank_s.get(r, 0.0) for r in range(nranks)]
        top = max(vals) if vals else 0.0
        return sum(top - v for v in vals)


@dataclass
class Attribution:
    """Exact compute/comm/wait partition of the total traced time."""

    nranks: int
    phases: list[PhaseAttribution]
    total_s: float                # sum of top-level span durations
    compute_s: float
    comm_s: float
    wait_s: float
    waits: dict[str, float]

    def phase(self, name: str) -> PhaseAttribution:
        for ph in self.phases:
            if ph.name == name:
                return ph
        raise KeyError(name)


def _outermost_comm(graph: CausalGraph) -> dict[int, list[Activity]]:
    """root index -> its outermost comm/sync descendants (or itself)."""
    acts = graph.activities
    out: dict[int, list[Activity]] = {}
    for act in acts:
        if act.cat not in (CAT_COMM, CAT_SYNC):
            continue
        # Skip comm nested inside comm (none is emitted today, but be
        # safe: only the outermost carries the wall time).
        cursor, inside_comm = act.parent, False
        root = act
        while cursor is not None:
            parent = acts[cursor]
            if parent.cat in (CAT_COMM, CAT_SYNC):
                inside_comm = True
                break
            root = parent
            cursor = parent.parent
        if not inside_comm:
            out.setdefault(root.index, []).append(act)
    return out


def attribute(graph: CausalGraph) -> Attribution:
    """Split every rank's traced time into compute + comm + wait.

    Top-level spans define the total; each top-level span's outermost
    comm/sync descendants contribute transfer + wait, the remainder is
    compute.  Phase spans are charged to their own name, everything
    else to :data:`BETWEEN_PHASES`.  The partition is exact: per phase
    and overall, ``compute + comm + wait == total``.
    """
    comm_under = _outermost_comm(graph)
    buckets: dict[str, PhaseAttribution] = {}
    order: list[str] = []

    def bucket(name: str) -> PhaseAttribution:
        if name not in buckets:
            buckets[name] = PhaseAttribution(name=name)
            order.append(name)
        return buckets[name]

    total = 0.0
    for act in graph.activities:
        if act.depth != 0:
            continue
        name = act.name if act.cat == CAT_PHASE else BETWEEN_PHASES
        slot = bucket(name)
        if act.cat == CAT_PHASE:
            slot.calls += 1
        total += act.dur
        slot.per_rank_s[act.rank] = (slot.per_rank_s.get(act.rank, 0.0)
                                     + act.dur)
        nested = comm_under.get(act.index, [])
        nested_dur = 0.0
        for c in nested:
            nested_dur += c.dur
            slot.comm_s += c.dur - c.wait
            slot.wait_s += c.wait
            if c.wait_kind is not None:
                slot.waits[c.wait_kind] = (slot.waits.get(c.wait_kind, 0.0)
                                           + c.wait)
        slot.compute_s += act.dur - nested_dur
    phases = [buckets[name] for name in order]
    phases.sort(key=lambda p: (-p.total_s, p.name))
    waits = {k: 0.0 for k in WAIT_KINDS}
    for ph in phases:
        for kind, secs in ph.waits.items():
            waits[kind] = waits.get(kind, 0.0) + secs
    return Attribution(
        nranks=graph.nranks,
        phases=phases,
        total_s=total,
        compute_s=sum(p.compute_s for p in phases),
        comm_s=sum(p.comm_s for p in phases),
        wait_s=sum(p.wait_s for p in phases),
        waits=waits,
    )


# ---------------------------------------------------------------------------
# critical path
# ---------------------------------------------------------------------------

@dataclass
class PathSegment:
    """A contiguous stretch of the critical path on one rank."""

    rank: int
    t0: float
    t1: float
    phase: str | None             # dominant phase overlapped, if any

    @property
    def dur(self) -> float:
        return self.t1 - self.t0


@dataclass
class PathJump:
    """A wait state the path bypassed by following its cause."""

    at: float                     # time of the handoff
    from_rank: int                # rank that caused the wait (path source)
    to_rank: int                  # rank that was waiting (path continues)
    kind: str
    wait_s: float


@dataclass
class CriticalPath:
    """The chain of activity that determined the run's end time."""

    segments: list[PathSegment]   # time-ascending, contiguous
    jumps: list[PathJump]
    end_rank: int
    t_start: float
    t_end: float
    by_phase: dict[str, float]    # path time overlapping each phase

    @property
    def length_s(self) -> float:
        return self.t_end - self.t_start

    @property
    def rank_sequence(self) -> list[int]:
        seq: list[int] = []
        for seg in self.segments:
            if not seq or seq[-1] != seg.rank:
                seq.append(seg.rank)
        return seq

    @property
    def bypassed_wait_s(self) -> float:
        return sum(j.wait_s for j in self.jumps)


#: one rank's depth-0 phases: (start, end, name) sorted, their starts,
#: and the running maximum of their ends
_PhaseIndex = tuple[list[tuple[float, float, str]], list[float],
                    list[float]]


def _phase_intervals(graph: CausalGraph) -> dict[int, _PhaseIndex]:
    out: dict[int, list[tuple[float, float, str]]] = {}
    for act in graph.activities:
        if act.cat == CAT_PHASE and act.depth == 0:
            out.setdefault(act.rank, []).append(
                (act.start, act.end, act.name))
    index: dict[int, _PhaseIndex] = {}
    for rank, ivs in out.items():
        ivs.sort()
        index[rank] = (ivs, [s for s, _, _ in ivs],
                       list(accumulate((e for _, e, _ in ivs), max)))
    return index


def _segment_phase(index: _PhaseIndex, t0: float, t1: float,
                   by_phase: dict[str, float]) -> str | None:
    """Charge [t0, t1] overlap to phases; return the dominant one.

    Only intervals from the first whose running end maximum passes
    ``t0`` to the last starting before ``t1`` can overlap; they are
    visited in sorted order, so the float sums do not depend on the
    bisection.
    """
    intervals, starts, max_ends = index
    best, best_overlap = None, 0.0
    covered = 0.0
    for i in range(bisect_right(max_ends, t0), bisect_left(starts, t1)):
        s, e, name = intervals[i]
        if e <= t0:
            continue
        overlap = min(e, t1) - max(s, t0)
        covered += overlap
        by_phase[name] = by_phase.get(name, 0.0) + overlap
        if overlap > best_overlap:
            best, best_overlap = name, overlap
    rest = (t1 - t0) - covered
    if rest > 0.0:
        by_phase[BETWEEN_PHASES] = by_phase.get(BETWEEN_PHASES, 0.0) + rest
    if rest > best_overlap:
        best = None
    return best


def critical_path(graph: CausalGraph) -> CriticalPath:
    """Backward walk from the latest span end, jumping at wait states.

    From the cursor ``(rank, t)``, find the latest classified wait on
    that rank before ``t``; the stretch after it was genuine progress
    (a path segment), and at the wait the path hands off to the rank
    that *caused* it — the sender for late-sender, the last arriver
    for collectives.  Where no wait remains, the path runs to the
    rank's first activity.  By construction the path contains no
    recognized wait state.
    """
    acts = graph.activities
    if not acts:
        raise ProfileError("empty causal graph; no critical path")
    end = max(acts, key=lambda a: (a.end, a.rank))
    t_begin = min(a.start for a in acts)
    first_start = {}
    waits_by_rank: dict[int, list[Activity]] = {}
    for act in acts:
        first_start[act.rank] = min(first_start.get(act.rank, act.start),
                                    act.start)
        if act.wait > 0.0 and act.cause_rank is not None:
            waits_by_rank.setdefault(act.rank, []).append(act)
    starts_by_rank = {}
    for rank, lst in waits_by_rank.items():
        lst.sort(key=lambda a: (a.start, a.seq))
        starts_by_rank[rank] = [a.start for a in lst]

    phase_ivs = _phase_intervals(graph)
    by_phase: dict[str, float] = {}
    segments: list[PathSegment] = []
    jumps: list[PathJump] = []
    consumed: set[int] = set()
    rank, t = end.rank, end.end

    def emit(rank: int, t0: float, t1: float) -> None:
        if t1 - t0 <= 0.0:
            return
        phase = _segment_phase(phase_ivs.get(rank, ([], [], [])),
                               t0, t1, by_phase)
        segments.append(PathSegment(rank=rank, t0=t0, t1=t1, phase=phase))

    while len(segments) < _MAX_PATH_SEGMENTS:
        lst = waits_by_rank.get(rank, [])
        starts = starts_by_rank.get(rank, [])
        cand = None
        pos = bisect_left(starts, t) - 1
        while pos >= 0:
            act = lst[pos]
            if act.index not in consumed and act.start < t:
                cand = act
                break
            pos -= 1
        if cand is None:
            emit(rank, min(first_start.get(rank, t_begin), t), t)
            break
        consumed.add(cand.index)
        handoff = min(cand.wait_end, t)
        emit(rank, handoff, t)
        jumps.append(PathJump(
            at=handoff, from_rank=cand.cause_rank, to_rank=rank,
            kind=cand.wait_kind or "", wait_s=min(cand.wait, t - cand.start)))
        next_t = min(cand.cause_time if cand.cause_time is not None
                     else handoff, handoff)
        if cand.cause_rank == rank and next_t >= handoff:
            t = cand.start          # degenerate self-edge: step past it
        else:
            rank, t = cand.cause_rank, next_t
        if t <= t_begin:
            break
    segments.reverse()
    jumps.reverse()
    t_start = segments[0].t0 if segments else end.end
    return CriticalPath(segments=segments, jumps=jumps, end_rank=end.rank,
                        t_start=t_start, t_end=end.end, by_phase=by_phase)


# ---------------------------------------------------------------------------
# measured-vs-modeled join
# ---------------------------------------------------------------------------

#: traced phase name -> (model compute-phase names, model comm names).
#: The traced phases come from the drivers' `comm.phase(...)` labels;
#: the model names from each app's `build_profile`.  A traced phase
#: missing here joins as "unmapped" (still reported, never silently
#: dropped).
PHASE_MODEL_MAP: dict[str, dict[str, tuple[tuple[str, ...],
                                           tuple[str, ...]]]] = {
    "lbmhd": {
        "collision": (("collision",), ()),
        "stream": (("stream",), ()),
        "halo": (("buffer-copy",), ("halo",)),
    },
    "cactus": {
        "evolve": (("bssn-update", "boundary"), ("ghost-exchange",)),
        "diagnostics": ((), ("norms",)),
    },
    "gtc": {
        "charge": (("charge",), ("guard-cells",)),
        "poisson": (("field-solve",), ()),
        "push": (("push",), ()),
        "shift": (("shift",), ("shift-exchange",)),
        "charge-reduce": ((), ("radial-charge-reduce",)),
        "diagnostics": ((), ("diagnostics",)),
    },
    "paratec": {
        "cg": (("fft1d", "f90", "setup-residue"), ("fft-transpose",)),
        "rotate": (("blas3",), ("reductions",)),
    },
}


def model_join(attribution: Attribution, app: str, profile: Any,
               machine: Any = "ES", *,
               threshold: float = DEFAULT_THRESHOLD) -> dict[str, Any]:
    """Join measured per-phase time against the perf model's prediction.

    ``profile`` is the app's :class:`~repro.perf.work.AppProfile` for
    the traced configuration; ``machine`` a :class:`MachineSpec` or a
    platform name.  Measured and modeled *fractions of total time* are
    compared (the host and the modeled machine have different absolute
    speeds); ``|measured_frac - model_frac| > threshold`` flags a
    phase as diverged.  Every traced phase produces a row; model
    components no traced phase claims are listed as unobserved.
    """
    from ..machine.platforms import get_machine
    from ..perf.model import PerformanceModel

    if isinstance(machine, str):
        machine = get_machine(machine)
    result = PerformanceModel(machine).predict(profile)
    model_phase_s = {pt.name: pt.seconds for pt in result.phase_times}
    model_comm_s = dict(result.comm_times)
    mapping = PHASE_MODEL_MAP.get(app, {})

    rows: list[dict[str, Any]] = []
    claimed: set[tuple[str, str]] = set()
    measured_mapped = model_mapped = 0.0
    for ph in attribution.phases:
        spec = mapping.get(ph.name)
        if ph.name == BETWEEN_PHASES or spec is None:
            rows.append({
                "phase": ph.name, "measured_s": ph.total_s,
                "mapped_to": [], "mapped": False,
                "model_s": None, "measured_frac": None,
                "model_frac": None, "diverged": False,
            })
            continue
        comp_names, comm_names = spec
        model_s = 0.0
        mapped_to: list[str] = []
        for name in comp_names:
            if name in model_phase_s:
                model_s += model_phase_s[name]
                mapped_to.append(f"phase:{name}")
                claimed.add(("phase", name))
        for name in comm_names:
            if name in model_comm_s:
                model_s += model_comm_s[name]
                mapped_to.append(f"comm:{name}")
                claimed.add(("comm", name))
        rows.append({
            "phase": ph.name, "measured_s": ph.total_s,
            "mapped_to": mapped_to, "mapped": True,
            "model_s": model_s, "measured_frac": None,
            "model_frac": None, "diverged": False,
        })
        measured_mapped += ph.total_s
        model_mapped += model_s
    # Fractions over the *mapped* totals on each side, so both sides
    # distribute 1.0 over the same set of phases.
    for row in rows:
        if not row["mapped"]:
            continue
        row["measured_frac"] = (row["measured_s"] / measured_mapped
                                if measured_mapped > 0 else 0.0)
        row["model_frac"] = (row["model_s"] / model_mapped
                             if model_mapped > 0 else 0.0)
        row["diverged"] = (abs(row["measured_frac"] - row["model_frac"])
                           > threshold)
    unobserved = sorted(
        [f"phase:{n}" for n in model_phase_s
         if ("phase", n) not in claimed]
        + [f"comm:{n}" for n in model_comm_s
           if ("comm", n) not in claimed])
    return {
        "app": app,
        "machine": machine.name,
        "threshold": threshold,
        "model_total_s": result.seconds,
        "measured_mapped_s": measured_mapped,
        "model_mapped_s": model_mapped,
        "phases": rows,
        "model_unobserved": unobserved,
    }


# ---------------------------------------------------------------------------
# report assembly / rendering / validation
# ---------------------------------------------------------------------------

def analyze(source: Any, nranks: int | None = None
            ) -> tuple[CausalGraph, Attribution, CriticalPath]:
    """Full pipeline: trace source → graph → waits → attribution → path."""
    activities = load_activities(source)
    graph = build_graph(activities, nranks)
    classify_waits(graph)
    return graph, attribute(graph), critical_path(graph)


def build_report(source: Any, *, app: str | None = None,
                 nprocs: int | None = None, profile: Any = None,
                 machine: Any = "ES",
                 threshold: float = DEFAULT_THRESHOLD) -> dict[str, Any]:
    """Analyze ``source`` and assemble the ``report.json`` document.

    The model join runs when ``app`` and ``profile`` are both known;
    otherwise the report carries attribution + wait states + critical
    path with ``model_join: null`` (offline traces without metrics).
    """
    graph, attr, path = analyze(source, nranks=nprocs)
    join = None
    if app is not None and profile is not None:
        join = model_join(attr, app, profile, machine,
                          threshold=threshold)
    nranks = graph.nranks
    phases = []
    for ph in attr.phases:
        phases.append({
            "name": ph.name,
            "calls": ph.calls,
            "compute_s": ph.compute_s,
            "comm_s": ph.comm_s,
            "wait_s": ph.wait_s,
            "total_s": ph.total_s,
            "waits": {k: v for k, v in sorted(ph.waits.items()) if v > 0},
            "imbalance": ph.imbalance(nranks),
            "imbalance_lost_s": ph.imbalance_lost_s(nranks),
            "per_rank_s": [ph.per_rank_s.get(r, 0.0)
                           for r in range(nranks)],
        })
    total = attr.total_s
    return {
        "schema": REPORT_SCHEMA,
        "app": app,
        "nprocs": nranks,
        "total_traced_s": total,
        "attribution": {
            "compute_s": attr.compute_s,
            "comm_s": attr.comm_s,
            "wait_s": attr.wait_s,
            "phases": phases,
        },
        "wait_states": {
            "by_kind_s": {k: v for k, v in sorted(attr.waits.items())},
            "total_wait_s": attr.wait_s,
            "fractions": {
                k: (v / total if total > 0 else 0.0)
                for k, v in sorted(attr.waits.items())},
        },
        "critical_path": {
            "end_rank": path.end_rank,
            "t_start": path.t_start,
            "t_end": path.t_end,
            "length_s": path.length_s,
            "rank_sequence": path.rank_sequence,
            "bypassed_wait_s": path.bypassed_wait_s,
            "by_phase": {k: v for k, v in sorted(path.by_phase.items())},
            "segments": [{"rank": s.rank, "t0": s.t0, "t1": s.t1,
                          "dur": s.dur, "phase": s.phase}
                         for s in path.segments],
            "jumps": [{"at": j.at, "from_rank": j.from_rank,
                       "to_rank": j.to_rank, "kind": j.kind,
                       "wait_s": j.wait_s}
                      for j in path.jumps],
        },
        "comm_matching": {
            "p2p_edges": len(graph.edges),
            "collective_rounds": len(graph.rounds),
            "unmatched_sends": graph.unmatched_sends,
            "unmatched_recvs": graph.unmatched_recvs,
        },
        "model_join": join,
    }


_REPORT_TOP_KEYS = ("schema", "app", "nprocs", "total_traced_s",
                    "attribution", "wait_states", "critical_path",
                    "comm_matching", "model_join")


def validate_report(doc: Any) -> dict[str, Any]:
    """Check a (possibly JSON-round-tripped) report document's shape.

    Raises :class:`ProfileError` naming the first problem; returns the
    document unchanged when it conforms.
    """
    if not isinstance(doc, dict):
        raise ProfileError("report must be a JSON object")
    for key in _REPORT_TOP_KEYS:
        if key not in doc:
            raise ProfileError(f"report missing key {key!r}")
    if doc["schema"] != REPORT_SCHEMA:
        raise ProfileError(
            f"unknown report schema {doc['schema']!r} "
            f"(expected {REPORT_SCHEMA!r})")
    attr = doc["attribution"]
    for key in ("compute_s", "comm_s", "wait_s", "phases"):
        if key not in attr:
            raise ProfileError(f"attribution missing key {key!r}")
    for ph in attr["phases"]:
        for key in ("name", "calls", "compute_s", "comm_s", "wait_s",
                    "total_s", "imbalance", "per_rank_s"):
            if key not in ph:
                raise ProfileError(
                    f"attribution phase missing key {key!r}")
    cp = doc["critical_path"]
    for key in ("end_rank", "rank_sequence", "segments", "length_s"):
        if key not in cp:
            raise ProfileError(f"critical_path missing key {key!r}")
    total = float(doc["total_traced_s"])
    parts = (float(attr["compute_s"]) + float(attr["comm_s"])
             + float(attr["wait_s"]))
    if total > 0 and abs(parts - total) > 0.01 * total:
        raise ProfileError(
            f"attribution does not sum to total traced time "
            f"({parts:.6f} vs {total:.6f})")
    return doc


def _fmt_row(cols: list[tuple[Any, int, str]]) -> str:
    out = []
    for (val, width, align) in cols:
        text = val if isinstance(val, str) else f"{val:.6f}"
        out.append(text.rjust(width) if align == "r" else text.ljust(width))
    return " ".join(out)


def render_report(doc: dict[str, Any]) -> str:
    """Render a report document as the human-readable text report."""
    lines: list[str] = []
    app = doc.get("app") or "<offline trace>"
    total = doc["total_traced_s"]
    lines.append(f"performance attribution — {app} "
                 f"(nprocs={doc['nprocs']}, "
                 f"traced {total:.6f} s across ranks)")
    lines.append("")
    lines.append(_fmt_row([("phase", 20, "l"), ("calls", 6, "r"),
                           ("compute", 10, "r"), ("comm", 10, "r"),
                           ("wait", 10, "r"), ("total", 10, "r"),
                           ("%time", 6, "r"), ("imbal", 6, "r")]))
    lines.append("-" * 84)
    attr = doc["attribution"]
    for ph in attr["phases"]:
        pct = 100.0 * ph["total_s"] / total if total > 0 else 0.0
        lines.append(" ".join([
            f"{ph['name']:20}", f"{ph['calls']:6d}",
            f"{ph['compute_s']:10.6f}", f"{ph['comm_s']:10.6f}",
            f"{ph['wait_s']:10.6f}", f"{ph['total_s']:10.6f}",
            f"{pct:5.1f}%", f"{ph['imbalance']:6.2f}"]))
    lines.append("-" * 84)
    lines.append(" ".join([
        f"{'total':20}", f"{'':6}",
        f"{attr['compute_s']:10.6f}", f"{attr['comm_s']:10.6f}",
        f"{attr['wait_s']:10.6f}", f"{total:10.6f}",
        f"{100.0 if total > 0 else 0.0:5.1f}%", f"{'':6}"]))
    lines.append("")
    ws = doc["wait_states"]
    kinds = ", ".join(f"{k} {v:.6f}s ({ws['fractions'][k]:.1%})"
                      for k, v in ws["by_kind_s"].items() if v > 0)
    lines.append(f"wait states: {kinds if kinds else 'none detected'}")
    cp = doc["critical_path"]
    ranks = cp["rank_sequence"]
    shown = ranks if len(ranks) <= 12 else ranks[:12]
    seq = " -> ".join(f"r{r}" for r in shown)
    if len(ranks) > 12:
        seq += f" -> ... ({len(ranks) - 12} more handoffs)"
    lines.append(f"critical path: {cp['length_s']:.6f} s ending on rank "
                 f"{cp['end_rank']}; rank sequence {seq}; "
                 f"{len(cp['jumps'])} wait-state handoffs bypassing "
                 f"{cp['bypassed_wait_s']:.6f} s of wait")
    top = sorted(cp["by_phase"].items(), key=lambda kv: -kv[1])[:4]
    if top:
        lines.append("  path time by phase: " + ", ".join(
            f"{name} {secs:.6f}s" for name, secs in top))
    cm = doc["comm_matching"]
    lines.append(f"comm matching: {cm['p2p_edges']} p2p edges, "
                 f"{cm['collective_rounds']} collective rounds"
                 + (f", {cm['unmatched_sends']} unmatched sends"
                    if cm["unmatched_sends"] else "")
                 + (f", {cm['unmatched_recvs']} unmatched recvs"
                    if cm["unmatched_recvs"] else ""))
    join = doc.get("model_join")
    if join is None:
        lines.append("model join: skipped (no app/profile context — "
                     "pass --metrics or --app)")
        return "\n".join(lines)
    lines.append("")
    lines.append(f"measured vs modeled ({join['machine']}, "
                 f"threshold {join['threshold']:.0%} of run share):")
    lines.append(_fmt_row([("phase", 20, "l"), ("measured", 9, "r"),
                           ("modeled", 9, "r"), ("flag", 12, "l"),
                           ("maps to", 30, "l")]))
    lines.append("-" * 84)
    for row in join["phases"]:
        if row["mapped"]:
            meas = f"{row['measured_frac']:.1%}"
            mod = f"{row['model_frac']:.1%}"
            flag = "DIVERGED" if row["diverged"] else "ok"
        else:
            meas = f"{row['measured_s']:.4f}s"
            mod, flag = "-", "unmapped"
        lines.append(" ".join([
            f"{row['phase']:20}", f"{meas:>9}", f"{mod:>9}",
            f"{flag:12}", ", ".join(row["mapped_to"])]))
    if join["model_unobserved"]:
        lines.append("model components with no traced phase: "
                     + ", ".join(join["model_unobserved"]))
    return "\n".join(lines)
