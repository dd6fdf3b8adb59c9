"""Checkpoint/restart, SDC detection and fault-tolerant supervision.

Pairs with :mod:`repro.runtime.faults`: the fault injector breaks runs
deterministically — crashes, wire faults, silent bit flips, checkpoint
damage — and this package brings them back.  CRC-verified per-rank
``.npz`` checkpoints (:class:`Checkpointer`), per-application invariant
watchdogs (:mod:`repro.resilience.health`), and a recovery-policy-driven
supervisor (:class:`ResilientJob` + :class:`RecoveryPolicy`) that
classifies failures and rolls back to the last verified checkpoint.
The chaos harness that exercises all four applications under a fault
plan lives in :mod:`repro.resilience.chaos` (imported lazily by the
CLI; it pulls in every application package).

Every name here loads its submodule on first use.  A process rank loads
the online runner and the supervisor; it loads the checkpointer or the
health monitors only when its program carries one.
"""

from .. import _compat

__all__ = [
    "CheckRecord", "Checkpointer", "CheckpointCorruptError",
    "CheckpointError", "EXIT_CHECK", "EXIT_CONFIG", "EXIT_ERROR",
    "EXIT_OK", "EXIT_PARTIAL", "EXIT_RUN", "FatalStepError",
    "HealthConfig", "HealthLog", "HealthMonitor", "OnlineRunner",
    "PersistentStepError", "RecoveryEvent", "RecoveryPolicy",
    "ResilientJob", "SDCDetectedError", "StepError", "StepTimeoutError",
    "TransientStepError", "classify_exit", "classify_failure",
]

__getattr__, __dir__ = _compat.lazy_exports(__name__, {
    "checkpoint": ("Checkpointer", "CheckpointCorruptError",
                   "CheckpointError"),
    "failures": ("EXIT_CHECK", "EXIT_CONFIG", "EXIT_ERROR", "EXIT_OK",
                 "EXIT_PARTIAL", "EXIT_RUN", "FatalStepError",
                 "PersistentStepError", "SDCDetectedError", "StepError",
                 "StepTimeoutError", "TransientStepError", "classify_exit",
                 "classify_failure"),
    "health": ("CheckRecord", "HealthConfig", "HealthLog", "HealthMonitor"),
    "online": ("OnlineRunner",),
    "supervisor": ("RecoveryEvent", "RecoveryPolicy", "ResilientJob"),
})
