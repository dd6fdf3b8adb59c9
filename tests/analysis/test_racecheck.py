"""Happens-before race analyzer: replay engine, dynamic + static rules."""

import gzip
import json

import numpy as np
import pytest

from repro.analysis.deadlock import check_trace_deadlocks
from repro.analysis.engine import lint_source
from repro.analysis.racecheck import (
    RACE_RULES,
    check_trace_races,
    happens_before,
    load_ops,
    replay,
)
from repro.obs.events import (
    CAT_BUFFER,
    CAT_COMM,
    INSTANT,
    SPAN,
    TraceEvent,
)
from repro.obs.export import write_chrome_trace, write_events_jsonl
from repro.obs.tracer import Tracer
from repro.runtime.comm import ParallelJob


def _ev(rank, seq, name, cat, ph, **args):
    return TraceEvent(name, cat, ph, rank, seq, float(seq), 0.0, None,
                      args)


def _hand_built_racy_fixture():
    """3-rank trace: rank 0 publishes b0 to ranks 1 and 2, gets an ack
    from rank 1 only, then reclaims.  Rank 2's read is unordered with
    the reclaim — the known racy pair."""
    site0 = "app.py:10 in step"
    site1 = "app.py:20 in step"
    site2 = "app.py:30 in step"
    return [
        # rank 0: publish + two sends, ack recv from rank 1, reclaim
        _ev(0, 0, "buf-epoch", CAT_BUFFER, INSTANT,
            op="publish", buf="b0", gen=0, site=site0),
        _ev(0, 1, "send", CAT_COMM, SPAN, dst=1, tag=5, site=site0),
        _ev(0, 2, "send", CAT_COMM, SPAN, dst=2, tag=5, site=site0),
        _ev(0, 3, "recv", CAT_COMM, SPAN, src=1, tag=6, site=site0),
        _ev(0, 4, "buf-epoch", CAT_BUFFER, INSTANT,
            op="reclaim", buf="b0", gen=1, site=site0),
        # rank 1: recv + read, then ack back to rank 0
        _ev(1, 0, "recv", CAT_COMM, SPAN, src=0, tag=5, site=site1),
        _ev(1, 1, "buf-epoch", CAT_BUFFER, INSTANT,
            op="read", buf="b0", gen=0, site=site1),
        _ev(1, 2, "send", CAT_COMM, SPAN, dst=0, tag=6, site=site1),
        # rank 2: recv + read, no ack — unordered with the reclaim
        _ev(2, 0, "recv", CAT_COMM, SPAN, src=0, tag=5, site=site2),
        _ev(2, 1, "buf-epoch", CAT_BUFFER, INSTANT,
            op="read", buf="b0", gen=0, site=site2),
    ]


class TestReplayEngine:
    def test_message_edge_orders_publish_before_read(self):
        events = _hand_built_racy_fixture()
        rep = replay(events)
        assert not rep.blocked
        by_rank = rep.by_rank
        publish = by_rank[0][0]
        read1 = by_rank[1][1]
        read2 = by_rank[2][1]
        reclaim = by_rank[0][4]
        assert happens_before(publish, read1)
        assert happens_before(publish, read2)
        assert happens_before(read1, reclaim)       # acked
        assert not happens_before(read2, reclaim)   # the race
        assert not happens_before(reclaim, read2)

    def test_hand_built_unordered_pair_is_flagged(self):
        findings = check_trace_races(_hand_built_racy_fixture())
        assert len(findings) == 1
        f = findings[0]
        assert f.rule == "trace-race"
        assert "b0" in f.message
        assert "rank 0" in f.message and "rank 2" in f.message
        assert "app.py:10" in f.message and "app.py:30" in f.message

    def test_acked_rank_is_not_flagged(self):
        findings = check_trace_races(_hand_built_racy_fixture())
        assert all("app.py:20" not in f.message for f in findings)

    def test_collective_round_joins_clocks(self):
        events = [
            _ev(0, 0, "buf-epoch", CAT_BUFFER, INSTANT,
                op="publish", buf="b0", gen=0, site="a.py:1 in f"),
            _ev(0, 1, "send", CAT_COMM, SPAN, dst=1, tag=5,
                site="a.py:1 in f"),
            _ev(0, 2, "barrier", "sync", SPAN),
            _ev(0, 3, "buf-epoch", CAT_BUFFER, INSTANT,
                op="reclaim", buf="b0", gen=1, site="a.py:3 in f"),
            _ev(1, 0, "recv", CAT_COMM, SPAN, src=0, tag=5,
                site="a.py:5 in f"),
            _ev(1, 1, "buf-epoch", CAT_BUFFER, INSTANT,
                op="read", buf="b0", gen=0, site="a.py:5 in f"),
            _ev(1, 2, "barrier", "sync", SPAN),
        ]
        assert check_trace_races(events) == []

    def test_ack_edge_deletion_is_detected_deterministically(self):
        """Mutation test: removing the ack edge from an ordered trace
        must produce a race, with a stable fingerprint across runs."""
        events = _hand_built_racy_fixture()
        # First make the fixture fully clean: ack from rank 2 as well.
        clean = events + [
            _ev(2, 2, "send", CAT_COMM, SPAN, dst=0, tag=6,
                site="app.py:31 in step"),
            _ev(0, 5, "recv", CAT_COMM, SPAN, src=2, tag=6,
                site="app.py:11 in step"),
        ]
        # The reclaim must come after the second ack: reorder rank 0 so
        # the reclaim instant is last (seq 6).
        clean = [e for e in clean
                 if not (e.rank == 0 and e.name == "buf-epoch"
                         and e.args["op"] == "reclaim")]
        clean.append(_ev(0, 6, "buf-epoch", CAT_BUFFER, INSTANT,
                         op="reclaim", buf="b0", gen=1,
                         site="app.py:12 in step"))
        assert check_trace_races(clean) == []
        # Delete one ack edge (rank 2's ack send and its recv).
        mutated = [e for e in clean
                   if not (e.name in ("send", "recv")
                           and e.args.get("tag") == 6
                           and 2 in (e.rank, e.args.get("src"),
                                     e.args.get("dst")))]
        first = check_trace_races(mutated)
        second = check_trace_races(mutated)
        assert len(first) == 1
        assert [f.fingerprint for f in first] == \
            [f.fingerprint for f in second]

    def test_unordered_cross_rank_reclaims_are_write_write_race(self):
        events = [
            _ev(0, 0, "buf-epoch", CAT_BUFFER, INSTANT,
                op="reclaim", buf="b0", gen=1, site="a.py:1 in f"),
            _ev(1, 0, "buf-epoch", CAT_BUFFER, INSTANT,
                op="reclaim", buf="b0", gen=2, site="a.py:2 in g"),
        ]
        findings = check_trace_races(events)
        assert len(findings) == 1
        assert "unordered write epochs" in findings[0].message


class TestSeededScenarios:
    def test_seeded_race_write_to_borrow_mid_flight(self):
        def racy(comm):
            if comm.rank == 0:
                buf = np.arange(4096, dtype=np.float64)
                comm.send(buf, 1, tag=7)
                buf = comm.reclaim(buf)     # no ack first: the bug
                buf[:] = -1.0
            elif comm.rank == 1:
                got = comm.recv(0, tag=7)
                float(got.sum())

        tracer = Tracer(2)
        ParallelJob(2, tracer=tracer).run(racy)
        findings = check_trace_races(tracer)
        assert len(findings) == 1
        f = findings[0]
        assert f.rule == "trace-race" and f.severity == "error"
        assert "rank 0" in f.message and "rank 1" in f.message
        assert "test_racecheck.py" in f.message   # both witness sites
        assert check_trace_deadlocks(tracer) == []

    def test_acknowledged_reclaim_is_clean(self):
        def clean(comm):
            if comm.rank == 0:
                buf = np.arange(4096, dtype=np.float64)
                comm.send(buf, 1, tag=7)
                comm.recv(1, tag=8)          # ack
                buf = comm.reclaim(buf)
                buf[:] = -1.0
            elif comm.rank == 1:
                got = comm.recv(0, tag=7)
                comm.send(float(got.sum()), 0, tag=8)

        tracer = Tracer(2)
        ParallelJob(2, tracer=tracer).run(clean)
        assert check_trace_races(tracer) == []
        assert check_trace_deadlocks(tracer) == []

    def test_barrier_ack_is_clean(self):
        def clean(comm):
            if comm.rank == 0:
                buf = np.arange(4096, dtype=np.float64)
                comm.send(buf, 1, tag=7)
            elif comm.rank == 1:
                float(comm.recv(0, tag=7).sum())
            comm.barrier()
            if comm.rank == 0:
                # reclaim after the barrier: ordered against the read
                pass

        tracer = Tracer(2)
        ParallelJob(2, tracer=tracer).run(clean)
        assert check_trace_races(tracer) == []

    def test_tracing_is_bit_neutral(self):
        def app(comm):
            rng = np.random.default_rng(42 + comm.rank)
            state = rng.standard_normal(2048)
            for _ in range(3):
                peer = comm.rank ^ 1
                comm.send(state, peer, tag=1)
                halo = comm.recv(peer, tag=1)
                state = 0.5 * (np.asarray(halo) + state)
                total = comm.allreduce(float(state.sum()))
                state = state + total / state.size
            return state

        untraced = ParallelJob(2).run(app)
        traced = ParallelJob(2, tracer=Tracer(2)).run(app)
        for a, b in zip(untraced, traced):
            assert np.array_equal(a, b)


class TestCleanSweep:
    @pytest.mark.parametrize("app", ["lbmhd", "cactus", "gtc", "paratec"])
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_apps_report_zero_races_and_deadlocks(self, app, backend):
        from repro.obs.runner import trace_app

        # Two steps: buffers recycled from one step into the next are
        # ordered only by the apps' own messages and collectives.
        run = trace_app(app, steps=2, outdir=None, backend=backend)
        assert check_trace_races(run.tracer) == []
        assert check_trace_deadlocks(run.tracer) == []

    def test_thread_sweep_has_buffer_epochs(self):
        from repro.obs.runner import trace_app

        run = trace_app("lbmhd", steps=1, outdir=None)
        epochs = [e for e in run.tracer.events() if e.name == "buf-epoch"]
        assert epochs, "epoch instrumentation went silent"
        assert {e.args["op"] for e in epochs} >= {"publish", "read"}


class TestTraceFileRoundTrip:
    def _record_racy(self):
        def racy(comm):
            if comm.rank == 0:
                buf = np.arange(4096, dtype=np.float64)
                comm.send(buf, 1, tag=7)
                buf = comm.reclaim(buf)
                buf[:] = -1.0
            elif comm.rank == 1:
                float(comm.recv(0, tag=7).sum())

        tracer = Tracer(2)
        ParallelJob(2, tracer=tracer).run(racy)
        return tracer

    def test_chrome_and_jsonl_agree_with_live_tracer(self, tmp_path):
        tracer = self._record_racy()
        live = check_trace_races(tracer)
        chrome = write_chrome_trace(tmp_path / "trace.json", tracer)
        jsonl = write_events_jsonl(tmp_path / "events.jsonl", tracer)
        from_chrome = check_trace_races(chrome)
        from_jsonl = check_trace_races(jsonl)
        assert len(live) == len(from_chrome) == len(from_jsonl) == 1
        assert from_chrome[0].message == live[0].message
        assert from_jsonl[0].message == live[0].message

    def test_gzipped_trace_loads(self, tmp_path):
        tracer = self._record_racy()
        chrome = write_chrome_trace(tmp_path / "trace.json", tracer)
        gz = tmp_path / "trace.json.gz"
        gz.write_bytes(gzip.compress(chrome.read_bytes()))
        assert len(check_trace_races(gz)) == 1

    def test_ops_survive_chrome_round_trip(self, tmp_path):
        tracer = self._record_racy()
        chrome = write_chrome_trace(tmp_path / "trace.json", tracer)
        live_ops = load_ops(tracer)
        file_ops = load_ops(json.loads(chrome.read_text()))
        assert {r: len(ops) for r, ops in live_ops.items()} == \
            {r: len(ops) for r, ops in file_ops.items()}


class TestStaticLifetimeRules:
    def test_rule_names_exported(self):
        assert set(RACE_RULES) == {"send-then-mutate",
                                   "write-after-borrow",
                                   "escaped-zero-copy-view"}

    def test_send_then_mutate_flagged(self):
        src = ("def step(comm, buf):\n"
               "    comm.send(buf, 1, tag=3)\n"
               "    buf[:] = 0.0\n")
        findings = lint_source(src, "x.py", enable=["send-then-mutate"])
        assert len(findings) == 1
        assert "buf" in findings[0].message

    def test_send_then_mutate_clean_with_ack(self):
        src = ("def step(comm, buf):\n"
               "    comm.send(buf, 1, tag=3)\n"
               "    comm.recv(1, tag=4)\n"
               "    buf[:] = 0.0\n")
        assert lint_source(src, "x.py",
                           enable=["send-then-mutate"]) == []

    def test_send_then_mutate_clean_with_barrier(self):
        src = ("def step(comm, buf):\n"
               "    comm.send(buf, 1, tag=3)\n"
               "    comm.barrier()\n"
               "    buf += 1.0\n")
        assert lint_source(src, "x.py",
                           enable=["send-then-mutate"]) == []

    def test_write_after_borrow_flagged(self):
        src = ("def pack(stats, halo):\n"
               "    shipped = borrow(halo, stats)\n"
               "    halo[0] = 1.0\n"
               "    return shipped\n")
        findings = lint_source(src, "x.py",
                               enable=["write-after-borrow"])
        assert len(findings) == 1

    def test_write_after_borrow_clean_after_reclaim(self):
        src = ("def pack(comm, stats, halo):\n"
               "    shipped = borrow(halo, stats)\n"
               "    comm.reclaim(halo)\n"
               "    halo[0] = 1.0\n"
               "    return shipped\n")
        assert lint_source(src, "x.py",
                           enable=["write-after-borrow"]) == []

    def test_escaped_view_flagged(self):
        src = ("class Halo:\n"
               "    def pull(self, comm):\n"
               "        edge = comm.recv(1, tag=2)\n"
               "        self.edge = edge\n")
        findings = lint_source(src, "x.py",
                               enable=["escaped-zero-copy-view"])
        assert len(findings) == 1
        assert "self.edge" in findings[0].message

    def test_escaped_view_clean_when_copied(self):
        src = ("import numpy as np\n"
               "class Halo:\n"
               "    def pull(self, comm):\n"
               "        edge = comm.recv(1, tag=2)\n"
               "        self.edge = np.array(edge)\n")
        assert lint_source(src, "x.py",
                           enable=["escaped-zero-copy-view"]) == []

    def test_repo_tree_is_clean_under_race_rules(self):
        from repro.analysis.engine import run_lint

        findings, _ = run_lint(["src/repro"], enable=list(RACE_RULES))
        assert findings == []
