"""Trace event model: structured spans and instants.

One :class:`TraceEvent` is one observation on one rank — either a
*span* (``ph="X"``: a named interval with a duration, e.g. a compute
phase, a ``recv`` wait, a collective) or an *instant* (``ph="i"``: a
point occurrence, e.g. an injected fault, a checkpoint write, a rank
crash).  The two-letter ``ph`` codes are the Chrome ``trace_event``
phase codes so export is a straight mapping.

Events carry two timestamps:

* ``t_wall`` — seconds since the tracer's epoch (``time.perf_counter``
  based), the physical timeline a Perfetto track shows;
* ``t_virtual`` — the rank's :class:`~repro.runtime.virtual_time.
  VirtualClocks` reading at emission, when clocks are attached (else
  ``None``).  Virtual time is the BSP critical-path timeline; the two
  diverge exactly where load imbalance hides inside barriers.

Deterministic ordering: wall timestamps depend on thread scheduling,
so every event also carries ``(rank, seq)`` where ``seq`` is a
per-rank emission counter.  Sorting by ``(rank, seq)`` reproduces the
identical event order on every run of a deterministic program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Chrome trace_event phase codes used by this runtime
SPAN = "X"
INSTANT = "i"

#: seconds -> Chrome trace_event microseconds (the ``ts``/``dur`` unit)
TRACE_US = 1e6

#: event categories (the taxonomy; see DESIGN.md §7)
CAT_PHASE = "phase"        # application phase (collision, push, cg, ...)
CAT_COMM = "comm"          # send/recv/collective/one-sided
CAT_SYNC = "sync"          # barriers
CAT_FAULT = "fault"        # injected faults, discards, rank crashes
CAT_CKPT = "checkpoint"    # checkpoint save/load
CAT_REGION = "region"      # unsynchronized sub-phase regions
CAT_HEALTH = "health"      # invariant checks, SDC detections, rollbacks
CAT_BUFFER = "buffer"      # buffer-epoch marks (publish/read/reclaim)


@dataclass(frozen=True)
class TraceEvent:
    """One span or instant on one rank's track."""

    name: str
    cat: str
    ph: str                       # SPAN or INSTANT
    rank: int
    seq: int                      # per-rank emission counter
    t_wall: float                 # seconds since tracer epoch
    dur: float = 0.0              # span duration in seconds (0 for instants)
    t_virtual: float | None = None
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def key(self) -> tuple[int, int]:
        """Deterministic ordering key (thread-schedule independent)."""
        return (self.rank, self.seq)

    def to_jsonable(self) -> dict[str, Any]:
        """Flat dict for the JSONL event log."""
        out = {
            "name": self.name, "cat": self.cat, "ph": self.ph,
            "rank": self.rank, "seq": self.seq,
            "t_wall": self.t_wall,
        }
        if self.ph == SPAN:
            out["dur"] = self.dur
        if self.t_virtual is not None:
            out["t_virtual"] = self.t_virtual
        if self.args:
            out["args"] = self.args
        return out
