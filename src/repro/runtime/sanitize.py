"""Buffer-ownership sanitizer: loud failures for silent aliasing bugs.

The zero-copy protocol (:mod:`repro.runtime.buffers`) is fast precisely
because it shares memory: borrowed arrays travel by reference, packing
buffers are recycled, halo strips are written in place.  Each of those
optimizations converts a local bug into action at a distance — a write
to a borrowed buffer corrupts a neighbour's halo, a write to a released
pool buffer corrupts whoever recycles it next, a read of a halo before
the exchange consumes last step's field.  All three fail *silently*:
the run completes with plausible-looking wrong numbers.

This module makes them fail loudly instead, at the first wrong access,
with the provenance needed to fix them:

* :class:`FrozenBorrow` — the in-transit view of a borrowed array.
  Mutating it raises :class:`BorrowWriteError` naming the borrow site
  (file:line of the send) instead of numpy's anonymous ``read-only``
  ``ValueError``.
* :class:`BufferPool` sanitize mode (see :mod:`.buffers`) — released
  buffers are NaN-poisoned and generation-counted; a double release
  raises :class:`PoolDoubleReleaseError` and a write-after-release is
  detected when the buffer is next recycled
  (:class:`PoolUseAfterReleaseError`).
* :class:`HaloGuard` — poisons a field's halo ring at step start and
  verifies the exchange rewrote every strip; reading halos before the
  first exchange of the step raises :class:`HaloReadError`.

Enable with ``REPRO_SANITIZE=1`` in the environment, or explicitly with
``Transport(..., sanitize=True)`` / ``run_parallel(..., sanitize=True)``.
Disabled (the default), none of these classes are instantiated and the
fast path is unchanged — results are bit-identical either way, because
every poison write lands only in memory the protocol promises to
overwrite before use.
"""

from __future__ import annotations

import functools
import os
import sys
from typing import Any, Iterable

import numpy as np

import repro

__all__ = [
    "BorrowWriteError", "FrozenBorrow", "HaloGuard", "HaloReadError",
    "PoolDoubleReleaseError", "PoolUseAfterReleaseError", "SanitizeError",
    "caller_site", "env_enabled", "freeze_with_site",
]

#: environment switch checked by Transport when ``sanitize=None``
ENV_VAR = "REPRO_SANITIZE"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def env_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` asks for sanitize mode."""
    return os.environ.get(ENV_VAR, "").strip().lower() in _TRUTHY


class SanitizeError(RuntimeError):
    """Base class for every ownership violation the sanitizer raises."""


class BorrowWriteError(SanitizeError):
    """A rank mutated a buffer that is frozen in transit."""


class PoolDoubleReleaseError(SanitizeError):
    """``BufferPool.give`` called twice for the same buffer."""


class PoolUseAfterReleaseError(SanitizeError):
    """A released pool buffer was written before it was re-issued."""


class HaloReadError(SanitizeError):
    """Halo cells consumed before this step's exchange ran."""


#: checkout directory that holds the ``repro`` package, "/"-separated
_PACKAGE_PARENT = os.path.dirname(os.path.dirname(
    repro.__file__)).replace("\\", "/") + "/"


@functools.cache
def _site_file(co_filename: str) -> tuple[str, str]:
    """(the path with "/" separators, the path a site prints): a file of
    the package is named relative to :data:`_PACKAGE_PARENT`."""
    fname = co_filename.replace("\\", "/")
    if fname.startswith(_PACKAGE_PARENT + "repro/"):
        return fname, fname[len(_PACKAGE_PARENT):]
    return fname, fname


def caller_site(skip_fragments: tuple[str, ...] = ("/repro/runtime/",)
                ) -> str:
    """``file:line in function`` of the innermost non-runtime frame.

    Used to stamp borrow/release sites so a violation raised later (on
    another rank, in another phase) still names the line that created
    the obligation.  A walk along the live frames' ``f_back`` links: it
    reads no source line, so it stats no file, and it stops at the first
    frame outside the runtime, however deep the stack below it.  A file
    of the ``repro`` package is named relative to the directory holding
    the package (``repro/apps/lbmhd/parallel.py``), so sites do not
    depend on where the checkout lives; ``skip_fragments`` match the
    full path.
    """
    frame = sys._getframe()
    while frame is not None:
        code = frame.f_code
        fname, shown = _site_file(code.co_filename)
        if not any(frag in fname for frag in skip_fragments):
            return f"{shown}:{frame.f_lineno} in {code.co_name}"
        frame = frame.f_back
    return "<unknown site>"


class FrozenBorrow(np.ndarray):
    """In-transit view of a borrowed array, carrying its borrow site.

    Behaves exactly like the frozen ndarray it wraps for every *read*;
    any mutation while non-writeable raises :class:`BorrowWriteError`
    naming the send that froze it.  A writable copy (what
    :func:`repro.runtime.buffers.writable` hands back) behaves like a
    plain array again.  Ufunc results deliberately decay to ``ndarray``
    so the subclass never propagates beyond the borrowed buffer itself.
    """

    _borrow_site: str = "<unknown site>"

    def __array_finalize__(self, obj) -> None:
        if obj is not None:
            self._borrow_site = getattr(obj, "_borrow_site",
                                        "<unknown site>")

    def _violation(self) -> BorrowWriteError:
        return BorrowWriteError(
            f"write to a borrowed buffer frozen in transit "
            f"(borrowed at {self._borrow_site}); claim a private copy "
            f"with repro.runtime.writable(arr) before mutating")

    def __setitem__(self, key, value) -> None:
        if not self.flags.writeable:
            raise self._violation()
        super().__setitem__(key, value)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        out = kwargs.get("out")
        if out:
            for o in out:
                if isinstance(o, FrozenBorrow) and not o.flags.writeable:
                    raise o._violation()
        # Decay to plain ndarray: results of arithmetic on a borrowed
        # buffer are ordinary arrays, not borrows.
        inputs = tuple(np.asarray(x) if isinstance(x, FrozenBorrow)
                       else x for x in inputs)
        if out:
            kwargs["out"] = tuple(
                np.asarray(o) if isinstance(o, FrozenBorrow) else o
                for o in out)
        return getattr(ufunc, method)(*inputs, **kwargs)


def freeze_with_site(arr: np.ndarray, site: str) -> FrozenBorrow:
    """Wrap an (already frozen) array as a site-stamped borrow view."""
    view = arr.view(FrozenBorrow)
    view._borrow_site = site
    return view


class HaloGuard:
    """Per-step watchdog over one field's halo ring.

    The driver registers the halo strips once (:meth:`watch`), then per
    step: :meth:`begin_step` NaN-poisons every strip, the exchange calls
    :meth:`mark_exchanged` (which verifies the exchange overwrote every
    poisoned cell), and halo-consuming phases call
    :meth:`require_exchanged` first.  Reading a halo before the exchange
    either raises (guarded call sites) or floods the result with NaN
    (unguarded ones) — silent staleness becomes impossible either way.

    Poisoning is result-neutral by construction: it only writes cells
    the exchange contract promises to overwrite, and
    :meth:`mark_exchanged` *proves* the contract held this step.
    """

    def __init__(self, label: str = "halo"):
        self.label = label
        self._regions: list[tuple[np.ndarray, tuple]] = []
        self._exchanged = False
        self._step = 0

    def watch(self, arr: np.ndarray, region: tuple) -> None:
        """Register ``arr[region]`` as one halo strip of the ring."""
        self._regions.append((arr, region))

    def begin_step(self) -> None:
        """Start a step: poison the ring, clear the exchanged flag."""
        self._step += 1
        self._exchanged = False
        for arr, region in self._regions:
            arr[region] = np.nan

    def mark_exchanged(self, verify: bool = True) -> None:
        """Record that this step's exchange completed.

        With ``verify`` (the default), every watched strip must have
        been fully overwritten — a surviving NaN means the exchange
        skipped part of the ring (e.g. a dropped direction or a
        mis-sliced strip).
        """
        if verify:
            for arr, region in self._regions:
                if np.isnan(arr[region]).any():
                    raise HaloReadError(
                        f"{self.label}: exchange at step {self._step} "
                        f"left poisoned halo cells in region {region!r} "
                        f"— the exchange did not rewrite the full ring")
        self._exchanged = True

    def require_exchanged(self, what: str = "halo-consuming phase"
                          ) -> None:
        """Raise unless this step's exchange already ran."""
        if not self._exchanged:
            raise HaloReadError(
                f"{self.label}: {what} at step {self._step} reads halo "
                f"cells before this step's exchange; order is "
                f"begin_step -> exchange -> consume")


def poison(arr: np.ndarray) -> None:
    """NaN-fill a float buffer in place (no-op for non-float dtypes)."""
    if np.issubdtype(arr.dtype, np.floating) \
            or np.issubdtype(arr.dtype, np.complexfloating):
        arr.fill(np.nan)


def is_poisoned(arr: np.ndarray) -> bool:
    """Whether a released float buffer is still fully poisoned."""
    if np.issubdtype(arr.dtype, np.floating) \
            or np.issubdtype(arr.dtype, np.complexfloating):
        return bool(np.isnan(arr).all())
    return True


def enrich_readonly_error(exc: BaseException,
                          sites: Iterable[str] = ()) -> str | None:
    """A sanitizer hint for numpy's anonymous read-only ``ValueError``.

    Returns an augmented message when ``exc`` looks like a write to a
    frozen borrowed buffer, else ``None``.  Used by the job driver to
    upgrade sender-side violations (the sender keeps the plain frozen
    array, not the :class:`FrozenBorrow` receivers get).
    """
    if not isinstance(exc, ValueError):
        return None
    if "read-only" not in str(exc):
        return None
    msg = (f"{exc} — likely a write to an array still borrowed by an "
           f"in-flight message; claim it back with "
           f"repro.runtime.writable(arr)")
    site_list = [s for s in sites if s]
    if site_list:
        recent = ", ".join(site_list[-3:])
        msg += f" (recent borrow sites: {recent})"
    return msg


def record_borrow_sites(payload: Any, site: str,
                        log: dict[int, str]) -> None:
    """Log ``site`` for every frozen array leaf of ``payload``."""
    if isinstance(payload, np.ndarray):
        if not payload.flags.writeable:
            log[id(payload)] = site
    elif isinstance(payload, (list, tuple)):
        for x in payload:
            record_borrow_sites(x, site, log)
    elif isinstance(payload, dict):
        for v in payload.values():
            record_borrow_sites(v, site, log)
