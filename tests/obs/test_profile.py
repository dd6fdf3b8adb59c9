"""Cross-rank attribution pipeline: graph, waits, critical path, report."""

import json
import random
from types import SimpleNamespace

import pytest

from repro.obs import (
    CAT_COMM,
    CAT_PHASE,
    CAT_SYNC,
    SPAN,
    ProfileError,
    TraceEvent,
    Tracer,
    analyze,
    build_report,
    render_report,
    validate_report,
)
from repro.obs.profile import (
    BETWEEN_PHASES,
    WAIT_COLLECTIVE,
    WAIT_LATE_SENDER,
    Activity,
    _phase_intervals,
    _segment_phase,
    attribute,
    build_graph,
    classify_waits,
    critical_path,
    load_activities,
)


def ev(rank, name, cat, start, dur, seq, args=None):
    return TraceEvent(name, cat, SPAN, rank, seq, start, dur, None,
                      args or {})


def late_sender_trace():
    """Three ranks, one late-sender chain with a known critical path.

    rank 0 computes until t=1.0 and only sends at the end; rank 1's
    first recv blocks from t=0.1 until that send's arrival (0.9 s of
    late-sender wait), then finishes at t=1.3 — the global end.  rank 2
    sends early, so its message is never on the critical path.  The
    path must therefore be rank 0 (0 → 1.0) handing off to rank 1
    (1.0 → 1.3).
    """
    return [
        ev(0, "send", CAT_COMM, 0.95, 0.05, 0,
           {"dst": 1, "tag": 0, "nbytes": 8}),
        ev(0, "compute", CAT_PHASE, 0.0, 1.0, 1),
        ev(1, "recv", CAT_COMM, 0.1, 0.9, 0, {"src": 0, "tag": 0}),
        ev(1, "recv", CAT_COMM, 1.06, 0.04, 1, {"src": 2, "tag": 0}),
        ev(1, "compute", CAT_PHASE, 0.0, 1.3, 2),
        ev(2, "send", CAT_COMM, 0.15, 0.05, 0,
           {"dst": 1, "tag": 0, "nbytes": 8}),
        ev(2, "compute", CAT_PHASE, 0.0, 0.2, 1),
    ]


class TestActivities:
    def test_no_spans_is_a_typed_error(self):
        with pytest.raises(ProfileError, match="no span events"):
            load_activities([])

    def test_instants_only_is_a_typed_error(self):
        only_instant = [TraceEvent("step", "phase", "i", 0, 0, 0.0)]
        with pytest.raises(ProfileError, match="no span events"):
            load_activities(only_instant)

    def test_chrome_dict_without_trace_events_is_typed(self):
        with pytest.raises(ProfileError, match="traceEvents"):
            load_activities({"app": "lbmhd"})

    def test_missing_file_is_typed(self, tmp_path):
        with pytest.raises(ProfileError, match="not found"):
            load_activities(tmp_path / "nope.json")

    def test_nesting_and_phase_resolution(self):
        acts = load_activities(late_sender_trace())
        by = {(a.rank, a.name, a.seq): a for a in acts}
        recv = by[(1, "recv", 0)]
        assert recv.depth == 1
        assert recv.phase == "compute"
        assert by[(1, "compute", 2)].depth == 0

    def test_event_log_and_gzip_report_like_chrome(self, tmp_path):
        import gzip

        from repro.obs.export import write_chrome_trace, write_events_jsonl

        tracer = Tracer(2)
        for rank, peer in ((0, 1), (1, 0)):
            with tracer.span(rank, "work", CAT_PHASE):
                with tracer.span(rank, "send", CAT_COMM,
                                 {"dst": peer, "tag": 0, "nbytes": 4}):
                    pass
                with tracer.span(rank, "recv", CAT_COMM,
                                 {"src": peer, "tag": 0}):
                    pass
                with tracer.span(rank, "barrier", CAT_SYNC):
                    pass
        chrome = write_chrome_trace(tmp_path / "trace.json", tracer)
        jsonl = write_events_jsonl(tmp_path / "events.jsonl", tracer)
        forms = [jsonl]
        for path in (chrome, jsonl):
            packed = tmp_path / f"{path.name}.gz"
            packed.write_bytes(gzip.compress(path.read_bytes()))
            forms.append(packed)
        expected = json.dumps(build_report(chrome), sort_keys=True)
        for path in forms:
            assert json.dumps(build_report(path), sort_keys=True) \
                == expected, path.name

    def test_torn_event_log_names_the_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"rank": 0, "seq": 0, "name": "work", "cat": "phase",'
            ' "ph": "X", "t_wall": 0.0, "dur": 1.0}\n' * 2
            + '{"rank": 0, "seq": 2, "na')
        with pytest.raises(ProfileError, match="line 3"):
            load_activities(path)

    def test_chrome_round_trip_matches_direct(self):
        from repro.obs.export import chrome_trace

        tracer = Tracer(2)
        with tracer.span(0, "work", CAT_PHASE):
            with tracer.span(0, "send", CAT_COMM,
                             {"dst": 1, "tag": 0, "nbytes": 4}):
                pass
        with tracer.span(1, "work", CAT_PHASE):
            with tracer.span(1, "recv", CAT_COMM, {"src": 0, "tag": 0}):
                pass
        direct = load_activities(tracer)
        via_chrome = load_activities(chrome_trace(tracer))
        assert len(direct) == len(via_chrome) == 4
        for a, b in zip(direct, via_chrome):
            assert (a.rank, a.name, a.cat, a.depth, a.phase) == \
                   (b.rank, b.name, b.cat, b.depth, b.phase)
            assert a.start == pytest.approx(b.start, abs=1e-9)


class TestCausalGraphAndWaits:
    def test_fifo_matching(self):
        graph = build_graph(load_activities(late_sender_trace()))
        assert len(graph.edges) == 2
        assert graph.unmatched_sends == 0
        assert graph.unmatched_recvs == 0
        pairs = {(e.src, e.dst) for e in graph.edges}
        assert pairs == {(0, 1), (2, 1)}

    def test_unmatched_counted_not_dropped(self):
        acts = load_activities([
            ev(0, "send", CAT_COMM, 0.0, 0.1, 0,
               {"dst": 1, "tag": 7, "nbytes": 8}),
        ])
        graph = build_graph(acts, nranks=2)
        assert graph.edges == []
        assert graph.unmatched_sends == 1

    def test_late_sender_classified(self):
        graph = build_graph(load_activities(late_sender_trace()))
        classify_waits(graph)
        recv = next(a for a in graph.activities
                    if a.rank == 1 and a.name == "recv" and a.seq == 0)
        assert recv.wait_kind == WAIT_LATE_SENDER
        assert recv.wait == pytest.approx(0.9)
        assert recv.cause_rank == 0
        # the early message from rank 2 arrived long before its recv
        recv2 = next(a for a in graph.activities
                     if a.rank == 1 and a.name == "recv" and a.seq == 1)
        assert recv2.wait == 0.0

    def test_collective_wait_blames_last_arriver(self):
        acts = load_activities([
            ev(0, "barrier", CAT_SYNC, 0.2, 0.85, 0),
            ev(0, "work", CAT_PHASE, 0.0, 1.1, 1),
            ev(1, "barrier", CAT_SYNC, 1.0, 0.05, 0),
            ev(1, "work", CAT_PHASE, 0.0, 1.1, 1),
        ])
        graph = build_graph(acts)
        assert len(graph.rounds) == 1
        assert graph.rounds[0].last_rank == 1
        classify_waits(graph)
        b0 = next(a for a in graph.activities
                  if a.rank == 0 and a.name == "barrier")
        assert b0.wait_kind == WAIT_COLLECTIVE
        assert b0.wait == pytest.approx(0.8)
        assert b0.cause_rank == 1


class TestAttribution:
    def test_partition_is_exact(self):
        graph = build_graph(load_activities(late_sender_trace()))
        classify_waits(graph)
        attr = attribute(graph)
        assert attr.total_s == pytest.approx(2.5)
        assert (attr.compute_s + attr.comm_s + attr.wait_s
                == pytest.approx(attr.total_s, rel=1e-12))
        ph = attr.phase("compute")
        assert (ph.compute_s + ph.comm_s + ph.wait_s
                == pytest.approx(ph.total_s, rel=1e-12))
        assert attr.waits[WAIT_LATE_SENDER] == pytest.approx(0.9)

    def test_comm_outside_phases_goes_to_residual_bucket(self):
        acts = load_activities([
            ev(0, "send", CAT_COMM, 0.5, 0.1, 0,
               {"dst": 1, "tag": 0, "nbytes": 8}),
            ev(1, "recv", CAT_COMM, 0.5, 0.1, 0, {"src": 0, "tag": 0}),
        ])
        graph = build_graph(acts)
        classify_waits(graph)
        attr = attribute(graph)
        assert [p.name for p in attr.phases] == [BETWEEN_PHASES]
        assert attr.phase(BETWEEN_PHASES).compute_s == pytest.approx(0.0)

    def test_imbalance_is_max_over_mean(self):
        graph = build_graph(load_activities(late_sender_trace()))
        classify_waits(graph)
        ph = attribute(graph).phase("compute")
        # per-rank phase totals 1.0 / 1.3 / 0.2 -> max/mean = 1.56
        assert ph.imbalance(3) == pytest.approx(1.3 / (2.5 / 3))
        assert ph.imbalance_lost_s(3) == pytest.approx(
            (1.3 - 1.0) + (1.3 - 0.2))


class TestCriticalPath:
    def test_late_sender_fixture_known_path(self):
        graph = build_graph(load_activities(late_sender_trace()))
        classify_waits(graph)
        path = critical_path(graph)
        assert path.end_rank == 1
        assert path.rank_sequence == [0, 1]
        assert path.t_end == pytest.approx(1.3)
        assert path.length_s == pytest.approx(1.3)
        assert len(path.jumps) == 1
        jump = path.jumps[0]
        assert jump.kind == WAIT_LATE_SENDER
        assert (jump.from_rank, jump.to_rank) == (0, 1)
        assert jump.wait_s == pytest.approx(0.9)
        # segments tile the path with no overlap
        for a, b in zip(path.segments, path.segments[1:]):
            assert a.t1 == pytest.approx(b.t0)

    def test_path_bypasses_collective_wait(self):
        acts = load_activities([
            ev(0, "barrier", CAT_SYNC, 0.2, 0.85, 0),
            ev(0, "work", CAT_PHASE, 0.0, 1.1, 1),
            ev(1, "barrier", CAT_SYNC, 1.0, 0.05, 0),
            ev(1, "work", CAT_PHASE, 0.0, 1.1, 1),
        ])
        graph = build_graph(acts)
        classify_waits(graph)
        path = critical_path(graph)
        # rank 0 waited in the barrier, so the path never touches it:
        # it runs entirely through rank 1, the last arriver, with no
        # wait-state handoffs
        assert path.rank_sequence == [1]
        assert path.jumps == []
        # ... while attribution still accounts the 0.8 s barrier wait
        attr = attribute(graph)
        assert attr.waits[WAIT_COLLECTIVE] == pytest.approx(0.8)


def _segment_phase_linear(intervals, t0, t1, by_phase):
    """The linear scan over every phase interval, as the reference."""
    best, best_overlap = None, 0.0
    covered = 0.0
    for (s, e, name) in intervals:
        if e <= t0 or s >= t1:
            continue
        overlap = min(e, t1) - max(s, t0)
        covered += overlap
        by_phase[name] = by_phase.get(name, 0.0) + overlap
        if overlap > best_overlap:
            best, best_overlap = name, overlap
    rest = (t1 - t0) - covered
    if rest > 0.0:
        by_phase[BETWEEN_PHASES] = by_phase.get(BETWEEN_PHASES, 0.0) + rest
    if rest > best_overlap:
        best = None
    return best


class TestSegmentPhase:
    def test_bisect_matches_linear_scan(self):
        rng = random.Random(2004)
        unsorted_ends = 0
        for _ in range(300):
            acts = []
            for k in range(rng.randrange(40)):
                start = rng.uniform(0.0, 10.0)
                dur = rng.choice([0.0, rng.expovariate(2.0),
                                  rng.uniform(0.0, 8.0)])
                acts.append(Activity(index=k, rank=0,
                                     name=f"p{rng.randrange(4)}",
                                     cat=CAT_PHASE, start=start,
                                     end=start + dur, seq=k))
            graph = SimpleNamespace(activities=acts)
            index = _phase_intervals(graph).get(0, ([], [], []))
            ivs = index[0]
            ends = [e for _, e, _ in ivs]
            unsorted_ends += ends != sorted(ends)
            edges = [t for s, e, _ in ivs for t in (s, e)]
            fast, slow = {}, {}
            for _ in range(25):
                if edges and rng.random() < 0.4:
                    t0 = rng.choice(edges)      # exactly on a boundary
                else:
                    t0 = rng.uniform(-1.0, 11.0)
                t1 = t0 + rng.choice([rng.uniform(0.0, 0.5),
                                      rng.uniform(0.0, 12.0)])
                if edges and rng.random() < 0.2:
                    t1 = max(t0, rng.choice(edges))
                assert (_segment_phase(index, t0, t1, fast)
                        == _segment_phase_linear(ivs, t0, t1, slow))
            # Same intervals in the same order: bit-identical sums.
            assert list(fast.items()) == list(slow.items())
        assert unsorted_ends > 100


class TestReportDocument:
    def test_analyze_is_deterministic(self):
        trace = late_sender_trace()
        a = json.dumps(build_report(trace), sort_keys=True)
        b = json.dumps(build_report(trace), sort_keys=True)
        assert a == b

    def test_schema_round_trip(self):
        doc = build_report(late_sender_trace())
        validate_report(doc)
        revived = json.loads(json.dumps(doc))
        validate_report(revived)
        assert revived == json.loads(json.dumps(doc))
        assert render_report(revived) == render_report(doc)

    def test_validation_names_missing_keys(self):
        doc = build_report(late_sender_trace())
        del doc["critical_path"]
        with pytest.raises(ProfileError, match="critical_path"):
            validate_report(doc)
        with pytest.raises(ProfileError, match="JSON object"):
            validate_report([1, 2])

    def test_validation_checks_attribution_sum(self):
        doc = build_report(late_sender_trace())
        doc["attribution"]["compute_s"] += 10.0
        with pytest.raises(ProfileError, match="does not sum"):
            validate_report(doc)

    def test_wait_fractions_bounded(self):
        doc = build_report(late_sender_trace())
        fractions = doc["wait_states"]["fractions"]
        assert 0.0 <= sum(fractions.values()) <= 1.0

    def test_model_join_flags_divergence(self):
        from repro.obs.runner import model_profile
        from repro.obs.profile import model_join

        graph = build_graph(load_activities([
            ev(0, "collision", CAT_PHASE, 0.0, 0.4, 0),
            ev(0, "stream", CAT_PHASE, 0.4, 0.6, 1),
            ev(1, "collision", CAT_PHASE, 0.0, 0.4, 0),
            ev(1, "stream", CAT_PHASE, 0.4, 0.6, 1),
        ]))
        classify_waits(graph)
        attr = attribute(graph)
        join = model_join(attr, "lbmhd", model_profile("lbmhd", 2),
                          "ES", threshold=0.25)
        rows = {r["phase"]: r for r in join["phases"]}
        # the trace spends 60% in stream; the ES model gives stream
        # ~23% of the collision+stream split, so stream must diverge
        assert rows["stream"]["diverged"] is True
        assert rows["stream"]["measured_frac"] == pytest.approx(0.6)
        # halo was never traced -> listed as unobserved, not dropped
        assert any("halo" in n for n in join["model_unobserved"])

    def test_every_traced_phase_joins(self):
        doc = build_report(late_sender_trace())
        # no app context -> join skipped but structure still present
        assert doc["model_join"] is None
        from repro.obs.runner import model_profile

        doc = build_report(late_sender_trace(), app="lbmhd",
                           profile=model_profile("lbmhd", 3))
        traced = {p["name"] for p in doc["attribution"]["phases"]}
        joined = {r["phase"] for r in doc["model_join"]["phases"]}
        assert traced == joined
        for row in doc["model_join"]["phases"]:
            assert "diverged" in row


class TestPipelineOnRealTrace:
    def test_tracer_source_end_to_end(self):
        tracer = Tracer(2)
        with tracer.span(0, "work", CAT_PHASE):
            with tracer.span(0, "send", CAT_COMM,
                             {"dst": 1, "tag": 0, "nbytes": 4}):
                pass
        with tracer.span(1, "work", CAT_PHASE):
            with tracer.span(1, "recv", CAT_COMM, {"src": 0, "tag": 0}):
                pass
        graph, attr, path = analyze(tracer)
        assert graph.nranks == 2
        assert len(graph.edges) == 1
        assert attr.total_s > 0
        assert path.segments
