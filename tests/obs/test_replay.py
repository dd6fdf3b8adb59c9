"""The trace-replay core's loader memo: one parse per unchanged file."""

import gzip
import json
import os
import sys
import threading

import pytest

from repro.analysis import (
    TraceError,
    check_trace,
    check_trace_deadlocks,
    check_trace_races,
)
from repro.cli import main
from repro.obs import build_report, replay, validate_report
from repro.obs.replay import load_trace


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One traced LBMHD run in every file form the core reads."""
    from repro.obs.runner import trace_app

    out = tmp_path_factory.mktemp("recorded")
    run = trace_app("lbmhd", steps=2, nprocs=2, outdir=out)
    gz = out / "trace.json.gz"
    gz.write_bytes(gzip.compress(run.trace_path.read_bytes()))
    spool = out / "spool.json"          # a JSONL spool under a .json name
    spool.write_bytes(run.events_path.read_bytes())
    return {"trace.json": run.trace_path, "trace.json.gz": gz,
            "events.jsonl": run.events_path, "renamed spool": spool}


def fresh(path):
    """The document in ``path``, parsed without the memo."""
    return replay._parse(path.read_bytes(), path)


def doc_bytes(n_events):
    doc = {"traceEvents": [{"ph": "X", "name": f"s{i}", "cat": "phase",
                            "tid": 0, "ts": i, "dur": 1}
                           for i in range(n_events)]}
    return json.dumps(doc).encode()


class TestMemo:
    @pytest.mark.parametrize("form", ["trace.json", "trace.json.gz",
                                      "events.jsonl", "renamed spool"])
    def test_second_load_shares_one_document(self, recorded, form):
        path = recorded[form]
        first = load_trace(path)
        assert load_trace(str(path)) is first
        assert first == fresh(path)
        assert first["traceEvents"]

    def test_same_size_rewrite_in_one_tick_is_reparsed(self, tmp_path):
        path = tmp_path / "trace.json"
        old, new = doc_bytes(3), doc_bytes(3).replace(b"s1", b"s9")
        assert len(old) == len(new)
        path.write_bytes(old)
        stamp = path.stat()
        assert load_trace(path)["traceEvents"][1]["name"] == "s1"
        path.write_bytes(new)
        # Same size and timestamps: only the bytes tell the files apart.
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        assert load_trace(path)["traceEvents"][1]["name"] == "s9"

    def test_failed_parse_is_never_memoized(self, tmp_path):
        path = tmp_path / "trace.json"
        whole = doc_bytes(4)
        path.write_bytes(whole)
        assert len(load_trace(path)["traceEvents"]) == 4
        path.write_bytes(whole[:-9])                 # torn mid-record
        for _ in range(2):
            with pytest.raises(TraceError, match="truncated or corrupt"):
                load_trace(path)
        path.write_bytes(whole)
        assert load_trace(path) == json.loads(whole)

    def test_same_bytes_under_another_name(self, tmp_path):
        # The name picks the format: one JSONL record is a log under
        # .jsonl and a single non-trace object under .json.
        line = json.dumps({"rank": 0, "seq": 0, "name": "a", "ph": "X"})
        log, obj = tmp_path / "events.jsonl", tmp_path / "events.json"
        log.write_text(line)
        obj.write_text(line)
        assert len(load_trace(log)["traceEvents"]) == 1
        with pytest.raises(TraceError, match="no 'traceEvents' key"):
            load_trace(obj)

    def test_concurrent_loads_agree(self, recorded):
        path = recorded["trace.json"]
        # Another file in between, so no thread starts on a hit.
        load_trace(recorded["events.jsonl"])
        start = threading.Barrier(4)
        docs = [None] * 4

        def load(i):
            start.wait()
            docs[i] = load_trace(path)

        threads = [threading.Thread(target=load, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        expected = fresh(path)
        assert all(doc == expected for doc in docs)

    def test_interleaved_files_never_cross(self, tmp_path):
        paths = [tmp_path / f"t{k}.json" for k in range(2)]
        for k, path in enumerate(paths):
            path.write_bytes(doc_bytes(3).replace(b'"s0"', f'"f{k}"'.encode()))
        wrong = []

        def hammer(i):
            for n in range(200):
                k = (i + n) % 2
                if load_trace(paths[k])["traceEvents"][0]["name"] != f"f{k}":
                    wrong.append((i, n))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []

    def test_dict_source_is_passed_through(self, recorded):
        doc = json.loads(recorded["trace.json"].read_text())
        assert load_trace(doc) is doc


class TestSharedDocument:
    @pytest.mark.parametrize("form", ["trace.json", "events.jsonl"])
    def test_no_consumer_mutates_it(self, recorded, form, tmp_path):
        path = recorded[form]
        shared = load_trace(path)
        validate_report(build_report(path, nprocs=2))
        assert check_trace_races(path) == []
        assert check_trace_deadlocks(path) == []
        assert check_trace(path) == []
        assert main(["analyze", str(tmp_path), "--trace", str(path),
                     "--races", "--deadlocks"]) == 0
        assert load_trace(path) is shared
        assert shared == fresh(path)
        if form == "trace.json":
            assert shared == json.loads(path.read_text())

    def test_four_entry_points_parse_once(self, tmp_path, monkeypatch,
                                          recorded):
        path = tmp_path / "trace.json"
        path.write_bytes(recorded["trace.json"].read_bytes())
        parses = []
        parse = replay._parse

        def counting(raw, where):
            parses.append(where)
            return parse(raw, where)

        monkeypatch.setattr(replay, "_parse", counting)
        build_report(path, nprocs=2)
        check_trace_races(path)
        check_trace_deadlocks(path)
        check_trace(path)
        assert parses == [path]
