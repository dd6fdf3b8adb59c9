"""The trace-replay core's memo: one parse, one build of the records,
one matching and one replay per unchanged file."""

import gzip
import hashlib
import json
import os
import sys
import threading
import tracemalloc

import pytest

from repro.analysis import (
    TraceError,
    check_trace,
    check_trace_deadlocks,
    check_trace_races,
)
from repro.cli import main
from repro.obs import Tracer, build_report, replay, validate_report
from repro.obs.export import write_chrome_trace, write_events_jsonl
from repro.obs.replay import load_trace
from repro.runtime.comm import ParallelJob


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

    def test_hit_hashes_without_file_digest(self, recorded, monkeypatch):
        # hashlib.file_digest is Python 3.11+; the package supports 3.10.
        monkeypatch.delattr(hashlib, "file_digest", raising=False)
        path = recorded["trace.json"]
        first = load_trace(path)
        assert load_trace(path) is first
        assert load_trace(path) is first

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


def _crossed(comm):
    peer = comm.rank ^ 1
    got = comm.recv(peer, tag=9)
    comm.send(comm.rank, peer, tag=9)
    return got


@pytest.fixture(scope="module")
def views(tmp_path_factory, recorded):
    """A clean trace, a deadlocked one (as trace.json and events.jsonl)
    and one with an instants-only rank; the trace.json files of the
    first two carry thread_name metadata."""
    out = tmp_path_factory.mktemp("views")
    tracer = Tracer(2)
    with pytest.raises(RuntimeError):
        ParallelJob(2, tracer=tracer, timeout=0.5).run(_crossed)
    instants = out / "instants.json"
    instants.write_text(json.dumps({"traceEvents": [
        {"ph": "X", "name": "send", "cat": "comm", "tid": 0, "ts": 0,
         "dur": 1, "args": {"seq": 1, "dst": 1, "tag": 0}},
        {"ph": "i", "name": "buf-epoch", "cat": "buffer", "tid": 0,
         "ts": 0, "args": {"seq": 0, "op": "publish", "buf": "b0"}},
        {"ph": "X", "name": "recv", "cat": "comm", "tid": 1, "ts": 1,
         "dur": 1, "args": {"seq": 0, "src": 0, "tag": 0}},
        {"ph": "i", "name": "mark", "cat": "fault", "tid": 2, "ts": 3,
         "args": {"seq": 0}},
    ]}))
    return {"clean": recorded["trace.json"],
            "deadlock": write_chrome_trace(out / "deadlock.json", tracer),
            "deadlock events.jsonl": write_events_jsonl(
                out / "deadlock.jsonl", tracer),
            "instants-only rank": instants}


def full_pass(path):
    """What one analyzer pass hands back: the report and every finding."""
    report = build_report(path)
    validate_report(report)
    findings = (check_trace_races(path) + check_trace_deadlocks(path)
                + check_trace(path))
    return (json.dumps(report, sort_keys=True),
            [(f.rule, f.fingerprint, f.message) for f in findings])


def fields(ev):
    return (ev.rank, ev.seq, ev.name, ev.cat, ev.ph, ev.kind, ev.args,
            ev.start, ev.dur, ev.vc, ev.round_index)


def unreplayed(ev):
    return fields(ev)[:-2]


def ref(ev):
    return ev.rank, ev.seq


def per_rank(by_rank, view=fields):
    return {rank: [view(ev) for ev in recs] for rank, recs in by_rank.items()}


def matching_fields(m):
    return ([(ch, ref(s), ref(r)) for ch, s, r in m.pairs], m.unmatched,
            {k: [ref(ev) for ev in v] for k, v in m.rounds.items()},
            m.round_counts)


def replay_fields(rep):
    records = {id(ev): ev for recs in rep.by_rank.values() for ev in recs}
    return (rep.nranks, per_rank(rep.by_rank),
            {r: ref(ev) for r, ev in rep.blocked.items()}, rep.parked,
            rep.rounds,
            {ref(records[k]): ref(send)
             for k, send in rep.matched_send.items()})


class TestViews:
    @pytest.mark.parametrize("name", ["clean", "deadlock",
                                      "deadlock events.jsonl",
                                      "instants-only rank"])
    def test_views_equal_a_fresh_build(self, views, name, tmp_path):
        path = views[name]
        deadlocked = name.startswith("deadlock")
        full_pass(path)
        out = tmp_path / "analyze.json"
        assert main(["analyze", str(tmp_path), "--trace", str(path),
                     "--races", "--deadlocks", "--json", str(out)]) == \
            (4 if deadlocked else 0)
        rules = [f["rule"] for f in json.loads(out.read_text())["findings"]]
        assert ("trace-deadlock-cycle" in rules) == deadlocked
        entry = replay._memo
        assert entry.doc is load_trace(path)
        records, span_view = entry.records()

        doc = fresh(path)                    # not the memo's: built fresh
        rep = replay.replay(doc)
        assert rep is not entry.replay()
        assert per_rank(records.by_rank) == per_rank(rep.by_rank)
        assert records.ranks == replay.events(doc).ranks
        assert matching_fields(entry.matching()) == \
            matching_fields(replay.match(rep.by_rank))
        assert replay_fields(entry.replay()) == replay_fields(rep)
        assert entry.replay().by_rank is records.by_rank

        spans = replay.spans(doc)
        assert span_view.ranks == spans.ranks
        assert sorted(span_view.by_rank) == sorted(spans.by_rank)
        assert per_rank(span_view.by_rank, unreplayed) == \
            per_rank(spans.by_rank, unreplayed)
        for rank, recs in span_view.by_rank.items():     # same objects
            shared = [ev for ev in records.by_rank[rank] if ev.ph == "X"]
            assert all(a is b for a, b in zip(recs, shared, strict=True))
        if name == "instants-only rank":
            assert (records.ranks, span_view.ranks) == ([0, 1, 2], [0, 1])
        else:                     # named by metadata, or all hold spans
            assert span_view.ranks == records.ranks == [0, 1]
        if deadlocked:
            assert sorted(entry.replay().blocked) == [0, 1]

    def test_records_and_replay_built_once_per_unchanged_file(
            self, recorded, tmp_path, monkeypatch):
        path = tmp_path / "trace.json"
        raw = recorded["trace.json"].read_bytes()
        path.write_bytes(raw)
        calls = {"records": 0, "replay": 0}
        records, run = replay._records, replay._replay

        def counting_records(*args):
            calls["records"] += 1
            return records(*args)

        def counting_replay(*args):
            calls["replay"] += 1
            return run(*args)

        monkeypatch.setattr(replay, "_records", counting_records)
        monkeypatch.setattr(replay, "_replay", counting_replay)
        first = full_pass(path)
        assert full_pass(path) == first
        assert calls == {"records": 1, "replay": 1}
        path.write_bytes(raw + b"\n")            # rewritten: rebuilt
        assert full_pass(path) == first
        assert calls == {"records": 2, "replay": 2}

    def test_concurrent_passes_on_one_path_agree(self, views):
        path = views["deadlock"]
        expected = full_pass(path)
        load_trace(views["clean"])    # so no thread starts on a hit
        start = threading.Barrier(4)
        results = [None] * 4

        def run(i):
            start.wait()
            results[i] = full_pass(path)

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        assert results == [expected] * 4

    def test_interleaved_paths_never_cross(self, views):
        paths = [views["clean"], views["deadlock"]]
        expected = [full_pass(path) for path in paths]
        assert expected[0] != expected[1]
        wrong = []

        def hammer(i):
            for n in range(4):
                k = (i + n) % 2
                if full_pass(paths[k]) != expected[k]:
                    wrong.append((i, n))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []

    def test_replay_builds_the_views_it_needs(self, views):
        load_trace(views["clean"])
        out = []
        # The replay builds the records and the matching first, on the
        # same thread, under the same entry lock.
        t = threading.Thread(
            target=lambda: out.append(replay.replay(views["deadlock"])),
            daemon=True)
        t.start()
        t.join(timeout=60)
        assert not t.is_alive()
        assert sorted(out[0].blocked) == [0, 1]

    def test_view_built_across_a_swap_stays_with_its_entry(
            self, views, monkeypatch):
        clean, deadlock = views["clean"], views["deadlock"]
        load_trace(deadlock)
        run = replay._replay
        building = []

        def swapping(*args):
            # Another thread swaps the memo to another file mid-build.
            building.append(replay._memo)
            t = threading.Thread(target=load_trace, args=(deadlock,))
            t.start()
            t.join(timeout=60)
            assert not t.is_alive()
            return run(*args)

        monkeypatch.setattr(replay, "_replay", swapping)
        rep = replay.replay(clean)
        monkeypatch.undo()
        older, newer = building[0], replay._memo
        assert older.doc is not newer.doc
        assert newer.doc is load_trace(deadlock)
        assert older.replay() is rep and rep.blocked == {}
        assert "replay" not in newer._views
        assert check_trace_deadlocks(clean) == []
        assert [f.rule for f in check_trace_deadlocks(deadlock)] == \
            ["trace-deadlock-cycle"]

    def test_memo_hit_holds_no_file_sized_buffer(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_bytes(doc_bytes(30_000))
        size = path.stat().st_size
        doc = load_trace(path)
        tracemalloc.start()
        try:
            assert load_trace(path) is doc
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size / 4, (peak, size)
