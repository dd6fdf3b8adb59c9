"""Per-rank application checkpoints as ``.npz`` files.

Checkpoint format
-----------------
A checkpoint directory holds one file per (step, rank):

    ``step{step:08d}.rank{rank:05d}.npz``

where *step* counts completed application steps (step ``k`` is the state
*after* ``k`` steps).  Each file is a plain ``numpy.savez`` archive of
the arrays the application needs to resume — numeric state only, loaded
with ``allow_pickle=False`` so a checkpoint can never execute code.
Scalars are stored as 0-d arrays; exact float64 bit patterns round-trip,
which is what makes bitwise-identical restarts possible (LBMHD).

Integrity: alongside every array ``name`` the file stores a CRC32 of its
bytes under the reserved name ``_crc_name``.  :meth:`Checkpointer.load`
recomputes and compares on read (``verify=True`` default), so a
checkpoint damaged on disk — by the fault plan's ``ckpt_corrupt``
schedule or by a real storage fault — is *detected*, never silently
restored.  Unreadable and CRC-failing files raise
:class:`CheckpointError` / :class:`CheckpointCorruptError` naming the
rank and step.

Writes are atomic and durable (temp file + fsync + rename + directory
fsync via :mod:`repro.runtime.atomic_io`), so a rank killed mid-save
leaves no torn file and a completed save survives power loss.  A step is *consistent* when all ``nranks`` files
exist and are readable archives; it is *verified* when every rank's file
additionally passes its CRCs.  Restart resumes from
:meth:`Checkpointer.latest_verified` — the newest fully-trusted step —
so a crash while some ranks were still saving step *k*, or a corrupted
shard of step *k*, simply falls back to an older verified set.

Each rank prunes only its **own** old files (``keep`` newest), so pruning
never races with another rank's save.
"""

from __future__ import annotations

import re
import threading
import zipfile
import zlib
from pathlib import Path

import numpy as np

from ..obs.events import CAT_CKPT
from ..obs.tracer import NULL_TRACER
from ..runtime.atomic_io import atomic_write

_FILE_RE = re.compile(r"^step(\d{8})\.rank(\d{5})\.npz$")

#: reserved prefix for the per-array integrity fields inside the archive
_CRC_PREFIX = "_crc_"

#: numpy parses .npy headers (lazily, in ``z[name]``) with
#: ``ast.literal_eval``, whose recursion-depth counter CPython 3.11 shares
#: between threads: concurrent loads can raise "AST constructor recursion
#: depth mismatch".  Module level, so a Checkpointer still pickles.
_NPY_READ_LOCK = threading.Lock()


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, truncated or otherwise unreadable."""

    def __init__(self, message: str, *, step: int, rank: int):
        super().__init__(
            f"checkpoint step {step} rank {rank}: {message}")
        self._raw_message = message
        self.step = step
        self.rank = rank

    def __reduce__(self):
        return (_rebuild_checkpoint_error,
                (type(self), self._raw_message, self.step, self.rank))


def _rebuild_checkpoint_error(cls, message: str, step: int, rank: int):
    """Unpickle helper: the constructor re-adds the step/rank prefix."""
    return cls(message, step=step, rank=rank)


class CheckpointCorruptError(CheckpointError):
    """A checkpoint file read back but failed its stored CRCs."""


class Checkpointer:
    """Save/load per-rank state snapshots in one directory.

    ``tracer`` optionally receives one instant event per save/load
    (rank-tracked, with step and byte size), so checkpoint activity is
    visible on the same timeline as compute and communication.
    ``injector`` optionally attaches a
    :class:`~repro.runtime.faults.FaultInjector` whose plan may schedule
    post-write checkpoint corruption (the ``ckpt_corrupt`` fault class).
    """

    def __init__(self, directory: str | Path, *, keep: int = 3,
                 tracer=None, injector=None):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.injector = injector
        #: steps distrusted by :meth:`quarantine` (corruption may have
        #: been checkpointed before it was detected); cleared per step
        #: when a monitored re-run saves fresh bytes over the label
        self._quarantined: set[int] = set()
        #: rank -> number of *state-restoring* loads (``count=True``);
        #: verification scans don't count.  This is the ledger the
        #: localized-rollback acceptance reads: online recovery must
        #: show loads only on the replacement (+ neighbors), never a
        #: whole-job reload.
        self.load_counts: dict[int, int] = {}

    def __getstate__(self):
        # Tracers hold live buffers/locks and never cross a process
        # boundary; the worker reattaches its own after unpickling.
        state = dict(self.__dict__)
        state["tracer"] = NULL_TRACER
        return state

    def _path(self, step: int, rank: int) -> Path:
        return self.directory / f"step{step:08d}.rank{rank:05d}.npz"

    # -- write ----------------------------------------------------------------
    def save(self, step: int, rank: int, **arrays) -> Path:
        """Atomically write one rank's state for ``step``.

        Values are coerced with ``np.asarray``; pass exact arrays (no
        object dtype) — the on-disk format is pickle-free by design.
        Each array is stored together with a ``_crc_<name>`` CRC32 so a
        later load can prove the bytes are the ones written.
        """
        if step < 0:
            raise ValueError("step must be >= 0")
        data = {}
        for name, value in arrays.items():
            if name.startswith(_CRC_PREFIX):
                raise ValueError(
                    f"checkpoint field {name!r} uses the reserved "
                    f"{_CRC_PREFIX!r} prefix")
            arr = np.asarray(value)
            if arr.dtype == object:
                raise TypeError(
                    f"checkpoint field {name!r} is not numeric")
            data[name] = arr
            data[_CRC_PREFIX + name] = np.uint32(
                zlib.crc32(np.ascontiguousarray(arr).tobytes()))
        final = self._path(step, rank)
        with atomic_write(final, tmp_suffix=f".tmp{rank}") as fh:
            np.savez(fh, **data)
        # Fresh bytes from a monitored run supersede any earlier
        # distrust of this label.
        self._quarantined.discard(step)
        self._maybe_corrupt(step, rank, final)
        if self.tracer.enabled:
            self.tracer.instant(rank, "checkpoint-save", CAT_CKPT,
                                {"step": step,
                                 "nbytes": final.stat().st_size})
        self._prune_rank(rank)
        return final

    def _maybe_corrupt(self, step: int, rank: int, path: Path) -> None:
        """Apply the fault plan's scheduled post-write file damage."""
        if self.injector is None:
            return
        offset = self.injector.ckpt_corrupt_offset(
            step, rank, path.stat().st_size)
        if offset is None:
            return
        with open(path, "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([byte[0] ^ 0xFF]))

    def _prune_rank(self, rank: int) -> None:
        mine = sorted(self.rank_steps(rank))
        for step in mine[:-self.keep]:
            try:
                self._path(step, rank).unlink()
            except FileNotFoundError:
                pass

    # -- read -----------------------------------------------------------------
    def load(self, step: int, rank: int, *, verify: bool = True,
             count: bool = True) -> dict[str, np.ndarray]:
        """One rank's saved arrays for ``step`` (bitwise as saved).

        Raises :class:`CheckpointError` when the file is missing or
        unreadable, and :class:`CheckpointCorruptError` when an array's
        bytes do not match its stored CRC (``verify=True``, default).
        ``count=False`` marks a verification-only read that must not
        inflate :attr:`load_counts` (the localized-rollback ledger).
        """
        path = self._path(step, rank)
        if not path.exists():
            raise CheckpointError("file missing", step=step, rank=rank)
        try:
            with _NPY_READ_LOCK, np.load(path, allow_pickle=False) as z:
                raw = {name: z[name] for name in z.files}
        except (zipfile.BadZipFile, OSError, ValueError, KeyError,
                EOFError) as exc:
            raise CheckpointError(
                f"unreadable archive ({exc})", step=step,
                rank=rank) from exc
        out = {name: arr for name, arr in raw.items()
               if not name.startswith(_CRC_PREFIX)}
        if verify:
            for name, arr in out.items():
                stored = raw.get(_CRC_PREFIX + name)
                if stored is None:
                    continue  # pre-CRC checkpoint: nothing to check
                actual = zlib.crc32(np.ascontiguousarray(arr).tobytes())
                if actual != int(stored):
                    raise CheckpointCorruptError(
                        f"array {name!r} CRC mismatch "
                        f"(stored {int(stored):#010x}, "
                        f"read {actual:#010x})", step=step, rank=rank)
        if count:
            self.load_counts[rank] = self.load_counts.get(rank, 0) + 1
        if self.tracer.enabled:
            self.tracer.instant(rank, "checkpoint-load", CAT_CKPT,
                                {"step": step, "counted": count})
        return out

    def reset_load_counts(self) -> None:
        self.load_counts.clear()

    def rank_steps(self, rank: int) -> list[int]:
        """Steps for which ``rank`` has a checkpoint file (sorted)."""
        steps = []
        for p in self.directory.iterdir():
            m = _FILE_RE.match(p.name)
            if m and int(m.group(2)) == rank:
                steps.append(int(m.group(1)))
        return sorted(steps)

    def _readable(self, step: int, rank: int) -> bool:
        """Cheap structural check: the archive opens and lists members."""
        try:
            with zipfile.ZipFile(self._path(step, rank)) as z:
                z.namelist()
            return True
        except (zipfile.BadZipFile, OSError, EOFError):
            return False

    def verified(self, step: int, rank: int) -> bool:
        """True when ``(step, rank)`` loads cleanly and passes its CRCs."""
        try:
            self.load(step, rank, verify=True, count=False)
            return True
        except CheckpointError:
            return False

    def consistent_steps(self, nranks: int) -> list[int]:
        """Steps for which every rank's file exists and is a readable
        archive (sorted).  Unreadable (truncated/damaged) files are
        skipped, not raised — consistency scanning must survive the very
        faults it is there to route around."""
        per_rank = [set(self.rank_steps(r)) for r in range(nranks)]
        if not per_rank:
            return []
        candidates = sorted(set.intersection(*per_rank))
        return [s for s in candidates
                if all(self._readable(s, r) for r in range(nranks))]

    def latest_consistent(self, nranks: int) -> int | None:
        """Newest step with a complete set of readable rank files."""
        steps = self.consistent_steps(nranks)
        return steps[-1] if steps else None

    def verified_steps(self, nranks: int) -> list[int]:
        """Consistent steps whose every rank file also passes its CRCs
        and that are not under :meth:`quarantine`."""
        return [s for s in self.consistent_steps(nranks)
                if s not in self._quarantined
                and all(self.verified(s, r) for r in range(nranks))]

    def latest_verified(self, nranks: int) -> int | None:
        """Newest fully-trusted step: complete, readable, CRC-clean.

        This is the rollback target for recovery — restoring from a
        merely *consistent* step could resurrect corrupted state.
        """
        steps = self.verified_steps(nranks)
        return steps[-1] if steps else None

    def quarantine(self, step: int) -> None:
        """Distrust every existing checkpoint labeled ``step`` or later.

        CRCs prove a file holds the bytes that were *written* — they
        cannot prove those bytes were healthy.  A silent corruption
        that slips below an invariant threshold for one step gets
        checkpointed with a perfectly valid CRC, and a later detection
        at step *s* would otherwise roll straight back onto the
        tainted snapshot and re-detect forever.  The recovery engine
        therefore quarantines labels ``>= s`` before rolling back, so
        the restart resumes from a snapshot that strictly predates the
        detection.  A quarantined label regains trust the moment the
        replay overwrites it with fresh bytes (see :meth:`save`).

        This is conservative by one step for detectors that fire in
        the same step as the fault (their label-*s* snapshot predates
        the flip and is actually clean — replaying one extra step is
        cheap), and it is the best a real system can do when the
        detection latency is unknown.
        """
        ranks = {int(m.group(2)) for p in self.directory.iterdir()
                 if (m := _FILE_RE.match(p.name))}
        for rank in ranks:
            self._quarantined.update(
                s for s in self.rank_steps(rank) if s >= step)

    def clear(self) -> None:
        """Delete every checkpoint file in the directory."""
        for p in self.directory.iterdir():
            if _FILE_RE.match(p.name):
                p.unlink()
