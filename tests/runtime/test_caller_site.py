"""Call-site stamps: a frame walk that equals ``traceback.extract_stack``.

``caller_site`` stamps every traced send, recv and reclaim and every
sanitized borrow.  It walks the live frames and reads no source.  The
reference below stamps the way the runtime once did, through
``traceback.extract_stack``, which checks the line cache (an
``os.stat``) of every frame's file; the walk must give the same string.
Both name a file of the ``repro`` package relative to the directory
that holds the package, so a site does not depend on the checkout.
"""

import _thread
import linecache
import os
import sys
import traceback

import numpy as np

import repro
from repro.obs.tracer import Tracer
from repro.runtime import ParallelJob, Transport, sanitize
from repro.runtime import buffers as buffers_module
from repro.runtime import comm as comm_module
from repro.runtime.sanitize import caller_site

RUNTIME = ("/repro/runtime/",)

#: the directory that holds the ``repro`` package, as a path prefix
CHECKOUT = os.path.dirname(os.path.dirname(repro.__file__)).replace(
    "\\", "/") + "/"


def extract_stack_site(skip_fragments=RUNTIME):
    """The reference stamp for the caller's stack, its own frame first."""
    for frame in reversed(traceback.extract_stack(sys._getframe(1))):
        fname = frame.filename.replace("\\", "/")
        if any(frag in fname for frag in skip_fragments):
            continue
        if fname.startswith(CHECKOUT + "repro/"):
            fname = os.path.relpath(fname, CHECKOUT).replace("\\", "/")
        return f"{fname}:{frame.lineno} in {frame.name}"
    return "<unknown site>"


def _compiled(filename: str, source: str) -> dict:
    """The functions of ``source``, compiled as if read from ``filename``."""
    namespace = {"caller_site": caller_site,
                 "extract_stack_site": extract_stack_site}
    exec(compile(source, filename, "exec"), namespace)
    return namespace


#: a stand-in runtime layer, skipped like the real one
_LAYER_SOURCE = """
def send(skip):
    return relay(skip)

def relay(skip):
    return caller_site(skip), extract_stack_site(skip)

def record(out, done, skip):
    out.append(send(skip))
    done.release()
"""
LAYER = _compiled("/opt/lib/repro/runtime/fake_comm.py", _LAYER_SOURCE)
WINDOWS_LAYER = _compiled(r"C:\lib\repro\runtime\fake_comm.py",
                          _LAYER_SOURCE)
WINDOWS_APP = _compiled(r"C:\work\app\driver.py",
                        "def step(send, skip):\n    return send(skip)\n")


def both(skip):
    """The walk and the reference, stamped on one line of one frame."""
    return caller_site(skip), extract_stack_site(skip)


def app_frames(depth: int):
    """``depth`` nested app frames above a send into the runtime."""
    if depth:
        return app_frames(depth - 1)
    return LAYER["send"](RUNTIME)


class TestAgainstExtractStack:
    def test_nested_app_frames(self):
        walk, reference = app_frames(5)
        assert walk == reference
        assert walk.endswith(" in app_frames")
        assert "tests/runtime/test_caller_site.py:" in walk

    def test_runtime_frames_only(self):
        # A raw thread's stack is its target's frames alone; here every
        # one of them belongs to the runtime layer.
        out: list = []
        done = _thread.allocate_lock()
        done.acquire()
        _thread.start_new_thread(LAYER["record"], (out, done, RUNTIME))
        assert done.acquire(timeout=10)
        assert out == [("<unknown site>", "<unknown site>")]

    def test_custom_skip_fragments(self):
        walk, reference = both(RUNTIME + ("/tests/runtime/",))
        assert walk == reference
        assert "test_caller_site.py" not in walk
        walk, reference = both(("/repro/",))
        assert walk == reference
        assert walk.endswith(" in both")
        # Skipping nothing names the stamping frame itself, relative to
        # the checkout.
        own = caller_site(())
        assert own.startswith("repro/runtime/sanitize.py:")
        assert own.endswith(" in caller_site")

    def test_backslash_paths(self):
        walk, reference = WINDOWS_APP["step"](WINDOWS_LAYER["send"],
                                              RUNTIME)
        assert walk == reference == "C:/work/app/driver.py:2 in step"


def test_sites_do_not_depend_on_the_checkout(monkeypatch):
    """One source file of the package, compiled under two checkouts,
    stamps one site; a file outside the package keeps its path."""
    sites = []
    try:
        for root in ("/tmp/checkout-a/src", r"D:\builds\b"):
            parent = root.replace("\\", "/") + "/"
            monkeypatch.setattr(sanitize, "_PACKAGE_PARENT", parent)
            sanitize._site_file.cache_clear()
            app = _compiled(parent + "repro/apps/demo/driver.py",
                            "def step(send, skip):\n"
                            "    return send(skip)\n")
            walk, _ = app["step"](LAYER["send"], RUNTIME)
            sites.append(walk)
            outside, _ = WINDOWS_APP["step"](LAYER["send"], RUNTIME)
            assert outside == "C:/work/app/driver.py:2 in step"
    finally:
        sanitize._site_file.cache_clear()
    assert sites == ["repro/apps/demo/driver.py:2 in step"] * 2


def _send_recv_reclaim(comm):
    peer = 1 - comm.rank
    buf = np.full(8, float(comm.rank + 1))
    comm.send(buf, peer)
    total = float(comm.recv(peer).sum())
    comm.barrier()                  # every read done: reclaim is ordered
    comm.reclaim(buf)[:] = 0.0
    return total


def test_traced_run_reads_no_source(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a call-site stamp read the line cache")

    tracer = Tracer(2)
    with monkeypatch.context() as patch:
        patch.setattr(linecache, "checkcache", refuse)
        patch.setattr(linecache, "getline", refuse)
        out = ParallelJob(2, tracer=tracer).run(_send_recv_reclaim)
    assert out == [16.0, 8.0]
    sites = [e.args["site"] for e in tracer.events()
             if e.args and "site" in e.args]
    ops = {e.args.get("op") for e in tracer.events() if e.args}
    assert {"publish", "read", "reclaim"} <= ops
    assert sites and all(" in _send_recv_reclaim" in s for s in sites)


def test_sanitized_traced_send_walks_the_stack_once(monkeypatch):
    walks: list[str] = []

    def counted(*args, **kwargs):
        walks.append(sys._getframe(1).f_code.co_name)
        return caller_site(*args, **kwargs)

    monkeypatch.setattr(comm_module, "caller_site", counted)
    monkeypatch.setattr(buffers_module, "caller_site", counted)

    def one_send(comm):
        comm.send(np.arange(4.0), 0)
        return float(comm.recv(0).sum())

    tp = Transport(1, sanitize=True)
    assert ParallelJob(1, transport=tp, tracer=Tracer(1)).run(one_send) \
        == [6.0]
    assert sorted(walks) == ["recv", "send"]
