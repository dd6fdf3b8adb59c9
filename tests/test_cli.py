"""Command-line interface."""

import gzip

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One traced LBMHD run: trace.json, events.jsonl and metrics.json,
    plus gzipped copies of both trace forms."""
    out = tmp_path_factory.mktemp("recorded")
    assert main(["trace", "lbmhd", "--steps", "2", "--nprocs", "2",
                 "--out", str(out)]) == 0
    for name in ("trace.json", "events.jsonl"):
        (out / f"{name}.gz").write_bytes(
            gzip.compress((out / name).read_bytes()))
    return out


class TestCLI:
    def test_machines(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        assert "Power3" in out and "2d-torus" in out

    @pytest.mark.parametrize("n", ["1", "2", "6", "7", "9"])
    def test_single_tables(self, n, capsys):
        assert main(["table", n]) == 0
        out = capsys.readouterr().out
        assert out.strip()

    def test_table_range_checked(self, capsys):
        with pytest.raises(SystemExit):
            main(["table", "8"])

    def test_bands(self, capsys):
        assert main(["bands", "--ecut", "5.0", "--points", "1"]) == 0
        out = capsys.readouterr().out
        assert "indirect gap" in out

    def test_amr(self, capsys):
        assert main(["amr", "--size", "32", "--steps", "2"]) == 0
        assert "retained" in capsys.readouterr().out

    def test_apps_validation(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") == 4

    def test_chaos(self, capsys):
        assert main(["chaos"]) == 0
        out = capsys.readouterr().out
        assert "4/4" in out

    def test_trace(self, capsys, tmp_path):
        out = str(tmp_path / "tr")
        assert main(["trace", "lbmhd", "--steps", "2", "--nprocs", "2",
                     "--out", out]) == 0
        text = capsys.readouterr().out
        assert "phase:collision" in text
        assert "virtual makespan" in text
        import json
        doc = json.loads((tmp_path / "tr" / "trace.json").read_text())
        assert doc["traceEvents"]
        assert (tmp_path / "tr" / "metrics.json").exists()

    def test_trace_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            main(["trace", "nosuchapp"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestLintCLI:
    BAD = ("import time\n"
           "def f(xs=[]):\n"
           "    return time.time()\n")

    def test_lint_src_clean_against_committed_baseline(self, capsys):
        assert main(["lint", "--check"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_lint_flags_violations_in_tmp_tree(self, capsys, tmp_path):
        (tmp_path / "bad.py").write_text(self.BAD)
        assert main(["lint", str(tmp_path), "--no-baseline"]) == 4
        out = capsys.readouterr().out
        assert "wall-clock" in out and "mutable-default" in out

    def test_update_baseline_then_clean(self, capsys, tmp_path):
        (tmp_path / "bad.py").write_text(self.BAD)
        base = str(tmp_path / "baseline.json")
        assert main(["lint", str(tmp_path), "--baseline", base,
                     "--update-baseline"]) == 0
        capsys.readouterr()
        assert main(["lint", str(tmp_path), "--baseline", base,
                     "--check"]) == 0
        assert "suppressed" in capsys.readouterr().out

    def test_check_fails_on_stale_baseline(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(self.BAD)
        base = str(tmp_path / "baseline.json")
        main(["lint", str(tmp_path), "--baseline", base,
              "--update-baseline"])
        bad.write_text("x = 1\n")          # violations fixed
        capsys.readouterr()
        assert main(["lint", str(tmp_path), "--baseline", base]) == 0
        assert main(["lint", str(tmp_path), "--baseline", base,
                     "--check"]) == 4      # ratchet: tighten the baseline
        assert "stale" in capsys.readouterr().out

    def test_json_report_shape(self, capsys, tmp_path):
        import json
        (tmp_path / "bad.py").write_text(self.BAD)
        out = tmp_path / "lint.json"
        main(["lint", str(tmp_path), "--no-baseline",
              "--json", str(out)])
        doc = json.loads(out.read_text())
        assert doc["tool"] == "lint"
        assert doc["counts"]["wall-clock"] == 1
        assert {"rule", "severity", "path", "line", "message"} \
            <= set(doc["findings"][0])

    def test_enable_narrows_rules(self, capsys, tmp_path):
        (tmp_path / "bad.py").write_text(self.BAD)
        assert main(["lint", str(tmp_path), "--no-baseline",
                     "--enable", "bare-assert"]) == 0

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "wall-clock" in out and "comm-direction-mismatch" in out

    def test_unknown_rule_is_config_error(self):
        assert main(["lint", "--enable", "no-such-rule"]) == 2


class TestAnalyzeCLI:
    def test_analyze_src_is_clean(self, capsys):
        assert main(["analyze", "--check"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_analyze_flags_deadlocking_driver(self, capsys, tmp_path):
        (tmp_path / "driver.py").write_text(
            "def step(comm, buf):\n"
            "    if comm.rank == 0:\n"
            "        comm.barrier()\n"
            "    comm.send(buf, dest=1, tag=4)\n"
            "    comm.recv(source=2, tag=9)\n")
        assert main(["analyze", str(tmp_path)]) == 4
        out = capsys.readouterr().out
        assert "rank-divergent-collective" in out
        assert "unmatched-tag" in out

    def test_analyze_trace_replay_flags_bad_trace(self, capsys, tmp_path):
        import json
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({"traceEvents": [
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 0,
             "args": {"name": "rank 0"}},
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1,
             "args": {"name": "rank 1"}},
            {"ph": "X", "name": "send", "cat": "comm", "pid": 1,
             "tid": 0, "ts": 0, "dur": 1,
             "args": {"dst": 1, "tag": 7, "nbytes": 8}},
        ]}))
        (tmp_path / "empty.py").write_text("x = 1\n")
        assert main(["analyze", str(tmp_path / "empty.py"),
                     "--trace", str(trace)]) == 4
        assert "trace-unconsumed-send" in capsys.readouterr().out

    def _racy_trace(self, tmp_path):
        import numpy as np

        from repro.obs.export import write_chrome_trace
        from repro.obs.tracer import Tracer
        from repro.runtime.comm import ParallelJob

        def racy(comm):
            if comm.rank == 0:
                buf = np.arange(4096, dtype=np.float64)
                comm.send(buf, 1, tag=7)
                buf = comm.reclaim(buf)     # no ack first: the bug
                buf[:] = -1.0
            elif comm.rank == 1:
                float(comm.recv(0, tag=7).sum())

        tracer = Tracer(2)
        ParallelJob(2, tracer=tracer).run(racy)
        return write_chrome_trace(tmp_path / "trace.json", tracer)

    def test_analyze_races_flags_racy_trace(self, capsys, tmp_path):
        trace = self._racy_trace(tmp_path)
        (tmp_path / "empty.py").write_text("x = 1\n")
        assert main(["analyze", str(tmp_path / "empty.py"), "--races",
                     "--deadlocks", "--trace", str(trace)]) == 4
        out = capsys.readouterr().out
        assert "trace-race" in out
        assert "rank 0" in out and "rank 1" in out

    def test_analyze_races_json_schema_and_exit_code(self, capsys,
                                                     tmp_path):
        import json
        trace = self._racy_trace(tmp_path)
        (tmp_path / "empty.py").write_text("x = 1\n")
        report = tmp_path / "races.json"
        assert main(["analyze", str(tmp_path / "empty.py"), "--races",
                     "--trace", str(trace),
                     "--json", str(report)]) == 4
        doc = json.loads(report.read_text())
        assert doc["schema"] == "repro.analysis.races/1"
        assert doc["exit_code"] == 4
        assert doc["counts"]["trace-race"] == 1

    def test_analyze_corrupt_trace_is_config_error(self, capsys,
                                                   tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text('{"traceEvents": [{"ph": "X", "na')  # truncated
        (tmp_path / "empty.py").write_text("x = 1\n")
        assert main(["analyze", str(tmp_path / "empty.py"), "--races",
                     "--trace", str(trace)]) == 2
        err = capsys.readouterr().err
        assert "truncated or corrupt" in err
        assert "Traceback" not in err

    def test_analyze_rejects_json_that_is_not_a_trace(self, capsys,
                                                      tmp_path, recorded):
        (tmp_path / "empty.py").write_text("x = 1\n")
        metrics = str(recorded / "metrics.json")
        assert main(["analyze", str(tmp_path / "empty.py"), "--races",
                     "--deadlocks", "--trace", metrics]) == 2
        err = capsys.readouterr().err
        assert metrics in err and "traceEvents" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name,data", [
        ("latin1.json", b'{"traceEvents": [{"name": "\xe9"}]}'),
        ("corrupt.json.gz", gzip.compress(b"{}", mtime=0)[:10] + b"\xff" * 20),
    ], ids=["not-utf8", "corrupt-gzip"])
    def test_analyze_unreadable_trace_is_config_error(self, capsys,
                                                      tmp_path, name, data):
        trace = tmp_path / name
        trace.write_bytes(data)
        (tmp_path / "empty.py").write_text("x = 1\n")
        assert main(["analyze", str(tmp_path / "empty.py"),
                     "--trace", str(trace)]) == 2
        err = capsys.readouterr().err
        assert f"cannot read trace {trace}" in err
        assert "Traceback" not in err

    def test_analyze_parses_the_trace_file_once(self, capsys, tmp_path,
                                                monkeypatch):
        from repro.obs import replay

        trace = self._racy_trace(tmp_path)
        parses = []
        parse = replay._parse

        def counting(raw, path):
            parses.append(path)
            return parse(raw, path)

        monkeypatch.setattr(replay, "_parse", counting)
        (tmp_path / "empty.py").write_text("x = 1\n")
        assert main(["analyze", str(tmp_path / "empty.py"), "--races",
                     "--deadlocks", "--trace", str(trace)]) == 4
        assert "trace-race" in capsys.readouterr().out
        assert len(parses) == 1

    def test_analyze_trace_replay_accepts_recorded_run(self, capsys,
                                                       tmp_path):
        out = str(tmp_path / "tr")
        main(["trace", "lbmhd", "--steps", "2", "--nprocs", "2",
              "--out", out])
        capsys.readouterr()
        (tmp_path / "empty.py").write_text("x = 1\n")
        assert main(["analyze", str(tmp_path / "empty.py"), "--trace",
                     str(tmp_path / "tr" / "trace.json")]) == 0


class TestReportCLI:
    def test_report_run_and_analyze(self, capsys, tmp_path):
        out = str(tmp_path / "rep")
        assert main(["report", "lbmhd", "--steps", "2", "--nprocs", "2",
                     "--out", out]) == 0
        text = capsys.readouterr().out
        assert "performance attribution" in text
        assert "critical path" in text
        assert "measured vs modeled" in text
        import json
        doc = json.loads((tmp_path / "rep" / "report.json").read_text())
        from repro.obs.profile import validate_report
        validate_report(doc)
        assert doc["app"] == "lbmhd"

    def test_report_offline_from_trace(self, capsys, tmp_path):
        out = str(tmp_path / "tr")
        assert main(["trace", "lbmhd", "--steps", "2", "--nprocs", "2",
                     "--out", out]) == 0
        capsys.readouterr()
        assert main(["report", "--trace", f"{out}/trace.json",
                     "--metrics", f"{out}/metrics.json",
                     "--out", str(tmp_path / "rep")]) == 0
        text = capsys.readouterr().out
        assert "performance attribution" in text
        assert "measured vs modeled" in text

    @pytest.mark.parametrize("name", ["events.jsonl", "trace.json.gz",
                                      "events.jsonl.gz"])
    def test_report_reads_every_trace_form(self, capsys, tmp_path,
                                           recorded, name):
        metrics = str(recorded / "metrics.json")
        for form, out in (("trace.json", "ref"), (name, "got")):
            assert main(["report", "--trace", str(recorded / form),
                         "--metrics", metrics,
                         "--out", str(tmp_path / out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert (tmp_path / "got" / "report.json").read_bytes() == \
            (tmp_path / "ref" / "report.json").read_bytes()

    def test_report_torn_event_log_is_typed_error(self, capsys, tmp_path,
                                                  recorded):
        lines = (recorded / "events.jsonl").read_text().splitlines(True)
        torn = tmp_path / "events.jsonl"
        torn.write_text("".join(lines[:2]) + lines[2][:20])
        assert main(["report", "--trace", str(torn),
                     "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert str(torn) in err and "line 3" in err
        assert "Traceback" not in err

    def test_report_spanfree_trace_is_typed_error(self, capsys, tmp_path):
        import json
        trace = tmp_path / "empty.json"
        trace.write_text(json.dumps({"traceEvents": [
            {"ph": "i", "pid": 0, "tid": 0, "ts": 0.0, "name": "mark",
             "cat": "phase", "s": "t"}]}))
        assert main(["report", "--trace", str(trace)]) == 2
        err = capsys.readouterr().err
        assert "repro report:" in err
        assert "no span events" in err
        assert "Traceback" not in err

    def test_report_without_app_or_trace_is_typed_error(self, capsys):
        assert main(["report"]) == 2
        assert "repro report:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["trace", "lbmhd", "--steps", "2", "--nprocs", "2"],
        ["report", "lbmhd", "--steps", "2", "--nprocs", "2"],
        ["report", "--trace", "{recorded}/trace.json"],
    ])
    def test_out_naming_a_file_is_typed_error(self, capsys, tmp_path,
                                              recorded, argv):
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory")
        argv = [a.format(recorded=recorded) for a in argv]
        assert main([*argv, "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert str(taken) in err
        assert len(err.strip().splitlines()) == 1
        assert taken.read_text() == "a file, not a directory"

    def test_trace_summary_writes_nothing(self, capsys, tmp_path,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "lbmhd", "--steps", "2", "--nprocs", "2",
                     "--summary"]) == 0
        text = capsys.readouterr().out
        assert "phase:collision" in text
        assert "wrote" not in text
        assert list(tmp_path.iterdir()) == []
