"""Shared failure classification: exit codes and step-error taxonomy.

The recovery machinery grown in PRs 1/3/6 classifies *in-process*
failures (transient / persistent / fatal) from exception types.  The
campaign engine needs the same three-way split one level up, where a
"failure" may be a child process's exit status — so the classes and the
exit-code contract live here, importable by both the CLI (which emits
the codes) and the campaign pool (which consumes them).

Exit-code contract (documented in the README):

====  ==================  =============================================
code  name                meaning
====  ==================  =============================================
0     ``EXIT_OK``         success
1     ``EXIT_ERROR``      unclassified failure (unexpected exception)
2     ``EXIT_CONFIG``     bad configuration / usage — *fatal*: retrying
                          the same invocation cannot succeed (argparse
                          errors land here too)
3     ``EXIT_RUN``        a run-level failure — *transient* candidate:
                          an injected-fault pass did not recover, a
                          monitored run diverged; a retry may pass
4     ``EXIT_CHECK``      a deterministic check failed — *persistent*:
                          perf regression vs baseline; a bare retry
                          will fail identically
5     ``EXIT_PARTIAL``    a campaign completed but some steps failed or
                          were skipped (partial success)
====  ==================  =============================================

Negative wait statuses (killed by signal N) classify as transient: the
environment, not the configuration, ended the run.
"""

from __future__ import annotations

#: classification labels (shared with RecoveryPolicy's vocabulary)
TRANSIENT = "transient"
PERSISTENT = "persistent"
FATAL = "fatal"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_RUN = 3
EXIT_CHECK = 4
EXIT_PARTIAL = 5

#: exit code -> failure class (anything unlisted and nonzero, including
#: signal deaths, is transient — retry unless proven pointless)
_EXIT_CLASSES = {
    EXIT_CONFIG: FATAL,
    EXIT_CHECK: PERSISTENT,
    EXIT_PARTIAL: PERSISTENT,
}


def classify_exit(code: int) -> str | None:
    """Failure class of a child-process exit status.

    ``None`` for success; otherwise one of :data:`TRANSIENT`,
    :data:`PERSISTENT`, :data:`FATAL`.  This is the string-matching-free
    contract the campaign pool uses to decide retry vs. give-up vs.
    abort for ``cli`` steps.
    """
    if code == EXIT_OK:
        return None
    return _EXIT_CLASSES.get(code, TRANSIENT)


class StepError(RuntimeError):
    """A campaign step failed; subclasses carry the failure class."""

    classification = TRANSIENT


class TransientStepError(StepError):
    """Retry may succeed (flaky run, environment hiccup, lost worker)."""

    classification = TRANSIENT


class StepTimeoutError(TransientStepError):
    """The step exceeded its wall-clock budget (transient: retried)."""


class PersistentStepError(StepError):
    """Deterministic failure: retrying the same config fails the same
    way.  The step is abandoned and its dependents are skipped, but the
    campaign continues — one poisoned config degrades the sweep to a
    partial report, it does not abort it."""

    classification = PERSISTENT


class FatalStepError(StepError):
    """The spec itself is broken (unknown kind, impossible config):
    scheduling anything further is pointless — the campaign aborts."""

    classification = FATAL


def classify_failure(exc: BaseException) -> str:
    """Failure class of an in-process step exception.

    Typed :class:`StepError`\\ s carry their own class; configuration-
    shaped errors (``ValueError``/``TypeError``/``KeyError``) are fatal
    — the step could never have run; everything else is transient.
    """
    if isinstance(exc, StepError):
        return exc.classification
    if isinstance(exc, (ValueError, TypeError, KeyError)):
        return FATAL
    return TRANSIENT


# Raised by the monitors in repro.resilience.health (and importable from
# there); defined here so the supervisor, which every rank loads, can
# classify it without loading the monitors.
class SDCDetectedError(RuntimeError):
    """An invariant monitor flagged silent data corruption.

    The supervisor's rollback trigger, as :class:`~repro.runtime.faults.
    RankCrashError` is its restart trigger.  Carries the full diagnosis:
    which monitor tripped, on which rank, at which step, and how far the
    value drifted from its reference.
    """

    def __init__(self, rank: int, step: int, monitor: str, value: float,
                 reference: float, drift: float, threshold: float):
        super().__init__(
            f"invariant {monitor!r} violated on rank {rank} at step "
            f"{step}: value {value:.6g}, reference {reference:.6g}, "
            f"drift {drift:.3g} > threshold {threshold:.3g}")
        self.rank = rank
        self.step = step
        self.monitor = monitor
        self.value = value
        self.reference = reference
        self.drift = drift
        self.threshold = threshold

    def __reduce__(self):
        return (type(self),
                (self.rank, self.step, self.monitor, self.value,
                 self.reference, self.drift, self.threshold))
