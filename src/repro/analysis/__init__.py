"""Static-analysis + sanitizer-companion layer (``repro.analysis``).

Three instruments over one finding model:

* the **AST lint engine** (:mod:`.engine`, :mod:`.rules`) — repo-specific
  rules (wall-clock discipline, seeded RNG, typed validation, zero-copy
  hygiene, tracer guards) with per-rule enable/disable and a committed
  baseline-suppression file;
* the **communication-matching checker** (:mod:`.commcheck`) — deadlock-
  shaped patterns in driver/runtime ASTs, plus a **trace-replay**
  variant (:mod:`.tracecheck`) that confirms every posted send was
  consumed and every collective round had all ranks in a recorded run
  (trace checkers read and match through :mod:`repro.obs.replay`);
* the **happens-before race & deadlock analyzers** (:mod:`.racecheck`,
  :mod:`.deadlock`) — vector-clock replay of recorded traces checking
  buffer-epoch ordering (``repro analyze --races``) and wait-for-graph
  cycles among blocked ops (``--deadlocks``), with static lifetime and
  comm-ordering rules covering the same bug shapes before a trace
  exists;
* the **report/baseline machinery** (:mod:`.findings`, :mod:`.baseline`)
  shared by ``python -m repro lint`` and ``python -m repro analyze``.

The runtime-side third of the subsystem — the borrowed-buffer / pool /
halo **sanitizer** — lives in :mod:`repro.runtime.sanitize`, wired into
the transport via ``Transport(sanitize=True)`` or ``REPRO_SANITIZE=1``.
"""

from ..obs.replay import TraceError, load_trace
from .baseline import (
    DEFAULT_BASELINE,
    apply_baseline,
    load_baseline,
    save_baseline,
)
from .commcheck import COMM_RULES, CommOp, extract_comm_ops
from .deadlock import DEADLOCK_RULES, check_trace_deadlocks
from .engine import (
    SCHEMA_VERSION,
    LintReport,
    LintRule,
    lint_source,
    register,
    resolve_rules,
    rule_names,
    run_lint,
)
from .findings import SEVERITIES, Finding, sort_findings
from .racecheck import (
    RACE_RULES,
    check_trace_races,
    happens_before,
    replay,
)
from .rules import CORE_RULES
from .tracecheck import check_trace

__all__ = [
    "COMM_RULES", "CORE_RULES", "DEADLOCK_RULES", "DEFAULT_BASELINE",
    "CommOp", "Finding", "LintReport", "LintRule", "RACE_RULES",
    "SCHEMA_VERSION", "SEVERITIES", "TraceError", "apply_baseline",
    "check_trace", "check_trace_deadlocks", "check_trace_races",
    "extract_comm_ops", "happens_before", "lint_source",
    "load_baseline", "load_trace", "register", "replay",
    "resolve_rules", "rule_names", "run_lint", "save_baseline",
    "sort_findings",
]
