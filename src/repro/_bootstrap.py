"""Start-up and exit of a process-backend rank (standard library only).

:func:`rank_main` is the ``Process`` target of every rank.  Spawn
unpickles the target before it runs it, which imports the target's
module; this one imports only the standard library (and the ``repro``
package root, which imports nothing), so the rank installs its import
hook before any other ``repro`` module loads.

A rank's program segment holds a code table, then the pickled program::

    <8-byte little-endian length n> <n bytes: table> <program pickle>

The table is the pickle of ``(tag, entries)``.  ``tag`` is the parent's
:func:`interpreter_tag`; ``entries`` maps a module name to ``(source
path, st_mtime_ns, st_size, marshalled code)``, the code the parent's
``SourceFileLoader.get_code`` made from that file.  The rank ignores the
whole table when its own tag differs (``multiprocessing.set_executable``
can start ranks on another interpreter).  Otherwise
:class:`ShippedCodeFinder` serves each entry once, while the source
file still has the stamped mtime and size; any other module compiles
from source as usual.

When the program returns, :func:`rank_main` runs what an observer could
see of a normal exit and leaves through ``os._exit(0)``, skipping the
interpreter's teardown.  An exception keeps the normal exit path.
"""

from __future__ import annotations

import atexit
import importlib.util
import marshal
import os
import pickle
import sys
import threading
from importlib.machinery import PathFinder, SourceFileLoader
from multiprocessing import util as mp_util
from multiprocessing.shared_memory import SharedMemory

#: bytes of the table-length header at the start of a program segment
_HEADER = 8


def interpreter_tag() -> tuple[bytes, int]:
    """What compiled code depends on: the bytecode magic number and the
    optimisation level."""
    return importlib.util.MAGIC_NUMBER, sys.flags.optimize


def stamp(path: str) -> tuple[int, int] | None:
    """``(st_mtime_ns, st_size)`` of a source file, None if it is gone."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_mtime_ns, st.st_size


def untrack(name: str) -> None:
    """Detach one segment from this process's resource tracker.

    Every ``SharedMemory`` — created or merely attached — registers
    itself with the resource tracker the spawned ranks share with the
    parent, which would double-unlink (and warn about) segments whose
    lifetime is managed explicitly by the transport.  Best-effort:
    tracker internals differ across Python patch levels.
    """
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker
        resource_tracker.unregister(f"/{name}", "shared_memory")
    except Exception:
        pass


def write_program(name: str, table: bytes, program: bytes) -> None:
    """Lay one rank's code table and program pickle out in a new
    segment (parent side); the job's teardown sweep unlinks it."""
    end = _HEADER + len(table)
    seg = SharedMemory(name=name, create=True, size=end + len(program))
    untrack(name)
    seg.buf[:_HEADER] = len(table).to_bytes(_HEADER, "little")
    seg.buf[_HEADER:end] = table
    seg.buf[end:end + len(program)] = program
    seg.close()


class ShippedLoader(SourceFileLoader):
    """A source loader whose first ``get_code`` returns shipped code.

    The spec, ``__file__``, ``get_source`` and ``co_filename`` are those
    of the plain source loader; the bytes are dropped once loaded.
    """

    def __init__(self, fullname: str, path: str, code: bytes):
        super().__init__(fullname, path)
        self._code = code

    def get_code(self, fullname):
        code, self._code = self._code, None
        if code is None:
            return super().get_code(fullname)
        return marshal.loads(code)


class ShippedCodeFinder:
    """Serves a table entry once, while its source is unchanged.

    The spec comes from ``PathFinder`` as for any import; only the
    loader of a plain source module whose path and stamp match the
    entry is swapped for a :class:`ShippedLoader`.
    """

    def __init__(self, entries: dict[str, tuple]):
        self._entries = entries

    def find_spec(self, name, path=None, target=None):
        entry = self._entries.pop(name, None)
        if entry is None:
            return None
        spec = PathFinder.find_spec(name, path, target)
        origin, mtime_ns, size, code = entry
        if (spec is not None and type(spec.loader) is SourceFileLoader
                and spec.origin == origin
                and stamp(origin) == (mtime_ns, size)):
            spec.loader = ShippedLoader(name, origin, code)
        return spec


def compiled_modules() -> dict[str, str]:
    """The ``repro`` modules this process compiled from source, by name,
    with their paths: what the parent should ship to its next ranks.

    The package root and this module load before any table can serve
    them, so they are left out.
    """
    out = {}
    for name in list(sys.modules):        # the pump thread imports too
        if not name.startswith("repro.") or name == __name__:
            continue
        spec = getattr(sys.modules.get(name), "__spec__", None)
        if spec is not None and type(spec.loader) is SourceFileLoader:
            out[name] = spec.origin
    return out


def _quick_exit() -> None:
    """Exit as a normal exit looks from outside, without teardown.

    In the order a spawned process's normal exit runs them:
    multiprocessing's exit finalizers (queue flushes, exit reports),
    the threading exit hooks (which stop idle executor workers) and a
    join of every non-daemon thread, the ``atexit`` handlers
    (``weakref.finalize`` callbacks among them), and a flush of
    standard output and error.
    """
    mp_util._exit_function()
    threading._shutdown()
    atexit._run_exitfuncs()
    mp_util._flush_std_streams()
    os._exit(0)


def rank_main(rank: int, program: str, inboxes: list, parent_q) -> None:
    """Entry point of one rank process (spawn start method).

    Reads the rank's segment, installs the code table, unpickles the
    program (importing its modules) and runs
    ``repro.runtime.process_backend._worker_main``.
    """
    seg = SharedMemory(name=program)
    # Attaching registered the segment, and the rank never unlinks it:
    # unregister, or the tracker reports it leaked at shutdown.
    untrack(program)
    try:
        n = int.from_bytes(seg.buf[:_HEADER], "little")
        tag, entries = pickle.loads(seg.buf[_HEADER:_HEADER + n])
        if tag == interpreter_tag():
            sys.meta_path.insert(0, ShippedCodeFinder(entries))
        del entries                 # a foreign table is dropped here
        work = pickle.loads(seg.buf[_HEADER + n:])
    finally:
        seg.close()
    from repro.runtime.process_backend import _worker_main
    _worker_main(rank, work, inboxes, parent_q)
    _quick_exit()
