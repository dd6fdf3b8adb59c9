"""Buffer-ownership protocol and pooled allocator for the runtime fast path.

The paper's central lesson is that sustained performance is set by memory
traffic, not peak flops (§2, Table 1).  The simulated runtime used to
violate that lesson on its own hot path: every ``send``/``bcast``/
``gather``/``alltoall`` deep-copied its payload, so a halo exchange moved
every byte twice (user copy + delivery) and allocated fresh buffers every
step.  This module replaces the unconditional copy with an explicit
ownership protocol:

* **borrow** — the sender lends its array to the runtime.  An array that
  owns its data is flagged non-writeable ("in transit") and travels as a
  zero-copy reference; receivers observe an immutable view.  Writable
  *views* (strided strips of a larger state array) cannot be safely
  frozen without freezing their base, so they are packed once — exactly
  the single packing copy a real MPI implementation performs.
* **copy-on-write** — mutating a borrowed buffer (on either side) goes
  through :func:`writable`, which returns the array itself when it is
  writable and a private copy when it is frozen.  In-place mutation of a
  frozen buffer raises ``ValueError`` — aliasing bugs fail loudly
  instead of corrupting a neighbour's halo.
* **pooling** — :class:`BufferPool` recycles fixed-shape packing buffers
  (halo strips, transpose chunks) so steady-state stepping performs no
  per-step allocations on the communication path.

Traffic accounting is untouched by all of this: the *logical* bytes moved
are recorded exactly as before (the paper's communication profiles are
about the algorithm, not the simulator's memcpy strategy).  The physical
copies actually performed are tracked separately in :class:`BufferStats`
("logical bytes vs. physical copies").
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .sanitize import (
    FrozenBorrow,
    PoolDoubleReleaseError,
    PoolUseAfterReleaseError,
    caller_site,
    freeze_with_site,
    is_poisoned,
    poison,
)


@dataclass
class BufferStats:
    """Physical-copy accounting for the zero-copy fast path.

    ``borrows`` counts arrays lent by reference (zero physical copies);
    ``copies`` counts the packing copies the protocol had to make
    (writable views and, with ``zero_copy=False``, every payload);
    ``copy_bytes`` is their total size.  Logical traffic is recorded by
    the transport as always — these counters exist to show the gap.
    """

    borrows: int = 0
    copies: int = 0
    copy_bytes: int = 0

    def as_dict(self) -> dict[str, int]:
        return {"borrows": self.borrows, "copies": self.copies,
                "copy_bytes": self.copy_bytes}


def borrow(obj: Any, stats: BufferStats | None = None, *,
           sanitize: bool = False, site: str | None = None) -> Any:
    """Lend ``obj`` to the runtime for an in-flight message.

    Arrays that own their data are frozen (``writeable=False``) and
    shared by reference; already-immutable arrays are shared as-is;
    writable views are packed into a private (frozen) copy.  Containers
    are rebuilt with borrowed leaves.  Non-array leaves pass through
    unchanged (value semantics for scalars; opaque objects are shared,
    as before).

    In sanitize mode the shipped leaves are
    :class:`~repro.runtime.sanitize.FrozenBorrow` views stamped with the
    borrow ``site``, so a receiver mutating one gets a
    ``BorrowWriteError`` naming the send that froze it instead of
    numpy's anonymous read-only ``ValueError``.
    """
    if sanitize and site is None:
        site = caller_site()
    if isinstance(obj, np.ndarray):
        if not obj.flags.writeable:
            if stats is not None:
                stats.borrows += 1
            return freeze_with_site(obj, site) if sanitize else obj
        if obj.base is None and obj.flags.owndata:
            obj.flags.writeable = False
            if stats is not None:
                stats.borrows += 1
            return freeze_with_site(obj, site) if sanitize else obj
        packed = np.empty_like(obj)
        np.copyto(packed, obj)
        packed.flags.writeable = False
        if stats is not None:
            stats.copies += 1
            stats.copy_bytes += packed.nbytes
        return freeze_with_site(packed, site) if sanitize else packed
    if isinstance(obj, list):
        return [borrow(x, stats, sanitize=sanitize, site=site)
                for x in obj]
    if isinstance(obj, tuple):
        return tuple(borrow(x, stats, sanitize=sanitize, site=site)
                     for x in obj)
    if isinstance(obj, dict):
        return {k: borrow(v, stats, sanitize=sanitize, site=site)
                for k, v in obj.items()}
    return obj


def writable(arr: np.ndarray) -> np.ndarray:
    """Copy-on-write claim: a writable array for local mutation.

    Returns ``arr`` itself when it is already writable (no copy — the
    steady-state fast path) and a private copy when ``arr`` is a frozen
    borrowed buffer.  The borrowed original stays frozen, so every other
    holder of the buffer keeps seeing the pre-mutation values.
    """
    if not isinstance(arr, np.ndarray):
        raise TypeError("writable() expects a numpy array")
    if arr.flags.writeable:
        return arr
    if isinstance(arr, FrozenBorrow):
        # Decay: the private copy is an ordinary array, not a borrow.
        return np.array(arr, copy=True)
    out = np.empty_like(arr)
    np.copyto(out, arr)
    return out


def reclaim(obj: Any) -> Any:
    """Take back ownership of arrays lent out by :func:`borrow`.

    The inverse of the freeze half of :func:`borrow`: owning arrays
    flagged non-writeable ("in transit") become writable again, closing
    their read epoch and opening a new write epoch.  Only reclaim once
    every receiver is provably done with the buffer — after an
    acknowledgement message or a collective — because receivers of a
    zero-copy borrow observe the *same* storage.  The happens-before
    race analyzer (:mod:`repro.analysis.racecheck`) checks exactly this
    ordering from the recorded ``buffer-epoch`` events.

    Views and non-array leaves pass through untouched (a view's base is
    not ours to thaw); containers are walked recursively in place.
    """
    if isinstance(obj, np.ndarray):
        if not obj.flags.writeable and obj.base is None \
                and obj.flags.owndata:
            obj.flags.writeable = True
        return obj
    if isinstance(obj, (list, tuple)):
        for x in obj:
            reclaim(x)
        return obj
    if isinstance(obj, dict):
        for v in obj.values():
            reclaim(v)
        return obj
    return obj


class BufferPool:
    """Thread-safe free-list allocator for fixed-shape message buffers.

    ``take(shape, dtype)`` returns a writable array, recycling a
    previously given-back buffer of the same (shape, dtype) when one is
    available; ``give(arr)`` returns a buffer to the pool once its
    receiver has consumed it.  Frozen (borrowed) buffers may be given
    back — ``take`` lifts the freeze, which is what makes the
    borrow-send / consume / recycle cycle allocation-free in steady
    state.

    In **sanitize mode** every release is policed: a second ``give`` of
    a buffer already in the free list raises
    :class:`~repro.runtime.sanitize.PoolDoubleReleaseError`; released
    float buffers are NaN-poisoned (so reads through a stale handle go
    loudly non-finite) and checked on re-issue — a poison byte
    overwritten while the buffer sat in the free list means somebody
    kept writing after release, and ``take`` raises
    :class:`~repro.runtime.sanitize.PoolUseAfterReleaseError` naming
    the release site.  Generation counters let long-lived holders
    assert their handle was not recycled
    (:meth:`generation_of` / :meth:`check_generation`).
    """

    def __init__(self, max_per_key: int = 64, *, sanitize: bool = False):
        if max_per_key < 1:
            raise ValueError("max_per_key must be >= 1")
        self.max_per_key = max_per_key
        self.sanitize = bool(sanitize)
        self._lock = threading.Lock()
        self._free: dict[tuple, list[np.ndarray]] = {}
        #: ids of buffers currently sitting in the free lists
        self._free_ids: dict[int, str] = {}
        #: re-issue count per live pooled-buffer id
        self._gen: dict[int, int] = {}
        #: called with each recycled buffer ``take`` re-issues (the
        #: owning transport ends the buffer's traced epoch label)
        self._on_reissue: Callable[[np.ndarray], None] | None = None
        self.hits = 0
        self.misses = 0
        self.returns = 0
        self.drops = 0

    @staticmethod
    def _key(shape: tuple[int, ...], dtype) -> tuple:
        return (tuple(shape), np.dtype(dtype).str)

    def take(self, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A writable, possibly recycled array of ``shape``/``dtype``.

        Contents are undefined (the caller packs over them).
        """
        key = self._key(shape, dtype)
        released_at = ""
        with self._lock:
            free = self._free.get(key)
            if free:
                self.hits += 1
                arr = free.pop()
                released_at = self._free_ids.pop(id(arr), "")
                if self.sanitize:
                    self._gen[id(arr)] = self._gen.get(id(arr), 0) + 1
            else:
                self.misses += 1
                arr = None
        if arr is None:
            return np.empty(shape, dtype=dtype)
        if self._on_reissue is not None:
            self._on_reissue(arr)
        if self.sanitize and not is_poisoned(arr):
            raise PoolUseAfterReleaseError(
                f"pool buffer {arr.shape}/{arr.dtype} was written after "
                f"its release (released at {released_at or 'unknown'}); "
                f"the writer holds a stale handle to a recycled buffer")
        arr.flags.writeable = True
        return arr

    def give(self, arr: np.ndarray) -> None:
        """Return a buffer for reuse.  Only owning arrays are poolable;
        views are ignored (their base is not ours to recycle)."""
        if not isinstance(arr, np.ndarray) or arr.base is not None \
                or not arr.flags.owndata:
            return
        key = self._key(arr.shape, arr.dtype)
        site = caller_site() if self.sanitize else ""
        with self._lock:
            if self.sanitize and id(arr) in self._free_ids:
                first = self._free_ids[id(arr)]
                raise PoolDoubleReleaseError(
                    f"pool buffer {arr.shape}/{arr.dtype} released twice "
                    f"(first at {first}, again at {site}); the second "
                    f"holder no longer owns it")
            free = self._free.setdefault(key, [])
            if len(free) >= self.max_per_key:
                self.drops += 1
                return
            self.returns += 1
            if self.sanitize:
                # Poison before publishing so a concurrent take never
                # sees a released-but-not-yet-poisoned buffer.
                was_frozen = not arr.flags.writeable
                arr.flags.writeable = True
                poison(arr)
                if was_frozen:
                    arr.flags.writeable = False
                self._free_ids[id(arr)] = site
            free.append(arr)

    def generation_of(self, arr: np.ndarray) -> int:
        """How many times this pooled buffer has been (re-)issued."""
        with self._lock:
            return self._gen.get(id(arr), 0)

    def check_generation(self, arr: np.ndarray, expected: int) -> None:
        """Assert a held handle was not recycled out from under us."""
        current = self.generation_of(arr)
        if current != expected:
            raise PoolUseAfterReleaseError(
                f"stale pool handle: buffer {arr.shape}/{arr.dtype} was "
                f"re-issued (generation {current}, holder expected "
                f"{expected}); the holder released it and kept using it")

    def stats(self) -> dict[str, int]:
        with self._lock:
            pooled = sum(len(v) for v in self._free.values())
        return {"hits": self.hits, "misses": self.misses,
                "returns": self.returns, "drops": self.drops,
                "pooled": pooled}

    def clear(self) -> None:
        with self._lock:
            self._free.clear()
            self._free_ids.clear()
            self._gen.clear()
