"""Simulated SPMD runtime: communicator, co-arrays, decompositions.

``CoArray`` (thread-backend CAF path only) and ``VirtualClocks`` load on
first use, so a process rank never imports them.
"""

from .. import _compat
from .buffers import BufferPool, BufferStats, borrow, writable
from .comm import Comm, OnlineRecoveryError, ParallelJob, ReplayInfo
from .decomposition import (
    Block1D,
    BlockND,
    ProcessorGrid,
    balance_columns,
    factor_grid,
    split_extent,
)
from .faults import (
    FaultInjector,
    FaultPlan,
    FaultRecord,
    RankCrashError,
    RankKilledError,
    SDCRecord,
)
from .sanitize import (
    BorrowWriteError,
    FrozenBorrow,
    HaloGuard,
    HaloReadError,
    PoolDoubleReleaseError,
    PoolUseAfterReleaseError,
    SanitizeError,
)
from .transport import (
    DEFAULT_TIMEOUT,
    BackendError,
    CollectiveRecord,
    CommRevokedError,
    DeliveryFailedError,
    HeartbeatDetector,
    MessageRecord,
    RankFailedError,
    RepairRecord,
    ReplayGapError,
    TrafficSummary,
    Transport,
    TransportPoisonedError,
)

__all__ = [
    "BackendError", "Block1D", "BlockND", "BorrowWriteError", "BufferPool",
    "BufferStats", "CoArray", "CollectiveRecord", "Comm",
    "CommRevokedError", "DEFAULT_TIMEOUT", "DeliveryFailedError",
    "FaultInjector", "FaultPlan", "FaultRecord", "FrozenBorrow",
    "HaloGuard", "HaloReadError", "HeartbeatDetector", "MessageRecord",
    "OnlineRecoveryError", "ParallelJob", "PoolDoubleReleaseError",
    "PoolUseAfterReleaseError", "ProcessorGrid", "RankCrashError",
    "RankFailedError", "RankKilledError", "RepairRecord", "ReplayGapError",
    "ReplayInfo", "SDCRecord", "SanitizeError", "TrafficSummary",
    "Transport", "TransportPoisonedError", "VirtualClocks",
    "balance_columns", "borrow", "factor_grid", "split_extent",
    "writable",
]

__getattr__, __dir__ = _compat.lazy_exports(__name__, {
    "caf": ("CoArray",),
    "virtual_time": ("VirtualClocks",),
})
