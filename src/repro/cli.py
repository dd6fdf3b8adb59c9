"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``tables``    regenerate Tables 1-7 + Figure 9 (model vs paper)
``table N``   one table only
``machines``  list the platform specs (Table 1)
``bands``     silicon band structure along L-Gamma-X
``amr``       run the AMR vector-performance study
``apps``      run a short validation pass of all four applications
``chaos``     run all four applications under a fault-injection plan
              (``--sdc`` switches to the silent-data-corruption +
              rollback pass)
``health``    run one application under its invariant monitors and
              print the health report (``--sdc`` injects a bit flip
              and demonstrates detection + rollback)
``trace``     run one application traced; write trace.json + metrics.json
``lint``      static SPMD-correctness lint of the source tree
              (``--check`` gates against the committed baseline)
``analyze``   communication-matching checks; ``--races``/``--deadlocks``
              add the happens-before race and wait-for-graph deadlock
              analyzers; ``--trace`` replays a recorded Chrome trace
              (or events.jsonl, optionally gzipped) and verifies the
              actual run
``campaign``  fault-tolerant experiment campaigns: ``run`` a sweep spec
              as a dependency DAG with retries + result caching,
              ``status`` a campaign directory, ``resume`` after a crash

Exit codes (stable contract — campaign steps classify these without
string matching; see :mod:`repro.resilience.failures`)::

    0  success
    1  generic error (unexpected exception)
    2  configuration error: bad spec / rule / trace input   -> fatal
    3  runtime failure: chaos/health run did not survive    -> transient
    4  check failure: perf regression, validation gate,
       lint/analyze findings, stale baseline under --check  -> persistent
    5  partial success: campaign finished degraded          -> persistent
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .apps import APPS
from .resilience.failures import EXIT_CHECK, EXIT_CONFIG, EXIT_RUN


def _cmd_tables(args: argparse.Namespace) -> int:
    from .experiments import run_all

    print(run_all(with_reference=not args.no_reference))
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from .experiments import BUILDERS
    from .experiments.summary import render_figure9, render_table7

    n = args.number
    if n == 7:
        print(render_table7())
    elif n == 9:
        print(render_figure9())
    else:
        built = BUILDERS[f"table{n}"]()
        print(built if isinstance(built, str) else built.render())
    return 0


def _cmd_machines(_: argparse.Namespace) -> int:
    from .experiments.tables import build_table1

    print(build_table1())
    return 0


def _cmd_bands(args: argparse.Namespace) -> int:
    from .apps.paratec import band_structure, silicon_primitive

    ha_to_ev = 27.2114
    bs = band_structure(silicon_primitive(), ecut=args.ecut,
                        points_per_segment=args.points)
    print("Silicon bands along L-Gamma-X (eV, valence top = 0):")
    shift = bs.valence_top
    for label, row in zip(bs.labels, bs.bands):
        ev = (row - shift) * ha_to_ev
        print(f"  {label:10} " + " ".join(f"{e:7.2f}" for e in ev))
    v, c = bs.gap_location()
    print(f"\n  indirect gap {bs.indirect_gap * ha_to_ev:.2f} eV "
          f"(valence max at {v}, conduction min at {c})")
    return 0


def _cmd_amr(args: argparse.Namespace) -> int:
    from .amr import (
        AMRAdvectionSolver,
        amr_vector_study,
        gaussian_pulse,
        render_study,
    )

    u0, dx = gaussian_pulse(args.size)
    solver = AMRAdvectionSolver(u0, dx, flag_threshold=0.08)
    solver.step(args.steps)
    print(render_study(amr_vector_study(solver.hierarchy),
                       solver.hierarchy))
    return 0


def _cmd_apps(_: argparse.Namespace) -> int:
    from .apps.catalogue import CATALOGUE

    for app in CATALOGUE.values():
        print(f"{app.title}: {app.validation} ...", end=" ", flush=True)
        _, summary = app.validate()
        print(f"ok ({summary})")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .runtime import BackendError

    if args.kill_rank is not None:
        import json

        from .resilience.chaos import run_kill_chaos

        apps = [a.lower() for a in args.app] if args.app else None
        try:
            outcomes, summary = run_kill_chaos(
                args.kill_rank, args.at_step, shrink=args.shrink,
                apps=apps, echo=print, backend=args.backend)
        except BackendError as err:
            print(f"repro chaos: {err}", file=sys.stderr)
            return EXIT_CONFIG
        failed = [o for o in outcomes if not o.ok]
        print(f"\nchaos: {len(outcomes) - len(failed)}/{len(outcomes)} "
              f"applications survived the rank kill "
              f"(recovered: {summary['recovered']})")
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(summary, fh, indent=2)
                fh.write("\n")
            print(f"wrote {args.json}")
        else:
            print(json.dumps(summary, indent=2))
        return EXIT_RUN if failed else 0

    from .resilience.chaos import run_chaos

    outcomes = run_chaos(seed=args.seed, echo=print, sdc=args.sdc,
                         backend=args.backend)
    failed = [o for o in outcomes if not o.ok]
    kind = "SDC plan" if args.sdc else "fault plan"
    print(f"\nchaos: {len(outcomes) - len(failed)}/{len(outcomes)} "
          f"applications survived the {kind}")
    return EXIT_RUN if failed else 0


def _cmd_health(args: argparse.Namespace) -> int:
    import tempfile

    from .obs.metrics import MetricsRegistry
    from .resilience.health import render_report, run_monitored

    with tempfile.TemporaryDirectory(prefix="repro-health-") as ckdir:
        run = run_monitored(args.app, ckdir=ckdir, sdc=args.sdc,
                            seed=args.seed,
                            check_every=args.check_every,
                            backend=args.backend)
    print(render_report(run))
    reg = MetricsRegistry()
    reg.ingest_recovery(run.policy)
    counters = reg.to_dict()["counters"]
    if counters:
        print("  metrics: " + ", ".join(
            f"{k}={v:g}" for k, v in sorted(counters.items())))
    if args.sdc:
        recovered = (run.policy.detections()
                     and run.policy.rollbacks() > 0
                     and run.rel_err <= 1e-10)
        print(f"  {'recovered' if recovered else 'UNRECOVERED'}: "
              f"rel err {run.rel_err:.1e} vs fault-free run")
        return 0 if recovered else EXIT_RUN
    clean = not run.log.violations()
    return 0 if clean else EXIT_RUN


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs.runner import trace_app

    try:
        run = trace_app(args.app, steps=args.steps, nprocs=args.nprocs,
                        outdir=None if args.summary else args.out,
                        backend=args.backend)
    except NotADirectoryError as err:
        print(f"repro trace: {err}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{run.app}: {run.nprocs} ranks x {run.steps} steps, "
          f"{run.report['events']} events")
    print()
    print(run.table())
    vt = run.report["virtual_time"]
    print(f"\nvirtual makespan {vt['makespan']:.6f} s, "
          f"imbalance {vt['imbalance']:.3f}")
    if args.summary:
        return 0
    for path in (run.trace_path, run.events_path, run.metrics_path):
        print(f"wrote {path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .obs.profile import ProfileError, render_report
    from .obs.runner import report_app, report_from_files

    try:
        if args.trace is not None:
            doc = report_from_files(
                args.trace, metrics=args.metrics, app=args.app,
                nprocs=args.nprocs, machine=args.machine,
                threshold=args.threshold, outdir=args.out)
            print(render_report(doc))
            if args.out is not None:
                print(f"\nwrote {args.out}/report.json")
            return 0
        if args.app is None:
            raise ProfileError(
                "nothing to profile: name an app (repro report lbmhd) "
                "or pass a recorded trace (--trace trace.json)")
        run, doc = report_app(
            args.app, steps=args.steps, nprocs=args.nprocs,
            machine=args.machine, threshold=args.threshold,
            outdir=args.out, backend=args.backend)
    except (ProfileError, NotADirectoryError) as err:
        print(f"repro report: {err}", file=sys.stderr)
        return EXIT_CONFIG
    print(render_report(doc))
    print(f"\nwrote {args.out}/trace.json, metrics.json, report.json")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from .perf.bench import (check_regression, format_report,
                             load_baseline, run_bench)

    only = args.only.split(",") if args.only else None
    doc = run_bench(quick=args.quick, only=only, backend=args.backend)
    print(format_report(doc))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    if args.check:
        baseline = load_baseline(args.check)
        failures = check_regression(doc, baseline,
                                    tolerance=args.tolerance)
        if failures:
            print("\nperf regression check FAILED:")
            for line in failures:
                print(f"  - {line}")
            return EXIT_CHECK
        print(f"\nperf regression check passed "
              f"(tolerance {args.tolerance:.0%} vs {args.check})")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    import json

    from .campaign.engine import (
        CampaignError,
        load_campaign_dir,
        run_campaign,
    )
    from .campaign.journal import JournalError, validate_journal
    from .campaign.spec import SpecError

    echo = None if args.quiet else print
    try:
        if args.action == "status":
            doc = load_campaign_dir(args.target)
            if args.json:
                print(json.dumps(doc, indent=2, sort_keys=True))
            else:
                print(f"campaign : {doc['campaign']}")
                print(f"spec     : {doc['spec_hash'][:16]}")
                print(f"sessions : {doc['sessions']}"
                      + ("  (torn tail)" if doc["torn_tail"] else ""))
                print(f"steps    : {doc['nsteps']} total, "
                      + "  ".join(f"{k}={v}"
                                  for k, v in doc["finished"].items()))
                print(f"store    : {doc['store_entries']} cached "
                      f"result(s)")
                if doc["in_flight"]:
                    print(f"in-flight: {', '.join(doc['in_flight'])}")
                if doc["incomplete"]:
                    print(f"todo     : {', '.join(doc['incomplete'])}")
                if doc.get("report_status"):
                    print(f"report   : {doc['report_status']}")
            problems = validate_journal(
                f"{args.target}/journal.jsonl")
            if problems:
                for line in problems:
                    print(f"journal problem: {line}", file=sys.stderr)
                return 1
            return 0
        if args.action == "resume":
            result = run_campaign(None, args.target, resume=True,
                                  workers=args.workers, echo=echo)
        else:                                       # run
            result = run_campaign(args.spec, args.out,
                                  workers=args.workers, echo=echo)
    except (SpecError, CampaignError, JournalError) as err:
        print(f"repro campaign: {err}", file=sys.stderr)
        return EXIT_CONFIG
    print()
    print((result.outdir / "report" / "campaign.txt")
          .read_text(encoding="utf-8"), end="")
    print(f"wrote {result.report_path}")
    return result.exit_code


def _lint_run(args: argparse.Namespace, *, tool: str,
              enable: list[str] | None) -> int:
    """Shared body of ``lint`` and ``analyze``."""
    from .analysis import (
        LintReport,
        TraceError,
        apply_baseline,
        check_trace,
        check_trace_deadlocks,
        check_trace_races,
        load_baseline,
        rule_names,
        run_lint,
        save_baseline,
    )

    paths = args.paths or ["src/repro"]
    if args.enable:
        enable = args.enable
    try:
        findings, nfiles = run_lint(paths, enable=enable,
                                    disable=args.disable or None)
    except ValueError as err:          # e.g. an unknown rule name
        print(f"{tool}: {err}", file=sys.stderr)
        return EXIT_CONFIG
    dropped = set(args.disable or [])
    rules = [r for r in (enable or rule_names()) if r not in dropped]
    if args.update_baseline:
        path = save_baseline(findings, args.baseline)
        print(f"{tool}: recorded {len(findings)} finding(s) from "
              f"{nfiles} file(s) into {path}")
        return 0
    baseline = load_baseline(None if args.no_baseline else args.baseline)
    # Judge staleness only against the rules this run executed: an
    # `analyze` pass must not call the lint-only entries stale.
    active = set(rules)
    baseline = type(baseline)({fp: n for fp, n in baseline.items()
                               if fp[0] in active})
    new, suppressed, stale = apply_baseline(findings, baseline)
    races = bool(getattr(args, "races", False))
    deadlocks = bool(getattr(args, "deadlocks", False))
    if getattr(args, "trace", None):
        try:
            new.extend(check_trace(args.trace, label=args.trace))
            if races:
                new.extend(check_trace_races(args.trace, label=args.trace))
            if deadlocks:
                new.extend(check_trace_deadlocks(args.trace,
                                                 label=args.trace))
        except TraceError as err:
            print(f"{tool}: {err}", file=sys.stderr)
            return EXIT_CONFIG
    schema = (f"repro.analysis.races/{1}" if races or deadlocks
              else f"repro.analysis.{tool}/{1}")
    report = LintReport(tool, new, suppressed=suppressed, stale=stale,
                        files=nfiles, rules=rules, schema=schema)
    code = 0
    if report.findings:
        code = EXIT_CHECK
    elif args.check and stale:
        code = EXIT_CHECK
    report.exit_code = code
    print(report.render())
    if args.json:
        report.write_json(args.json)
        print(f"wrote {args.json}")
    if not report.findings and args.check and stale:
        print(f"{tool}: baseline has {len(stale)} stale entr(ies) — "
              f"regenerate with --update-baseline")
    return code


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import resolve_rules

    if args.list_rules:
        for rule in resolve_rules():
            print(f"{rule.name:28} [{rule.severity}] {rule.description}")
        return 0
    return _lint_run(args, tool="lint", enable=None)


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import COMM_RULES, DEADLOCK_RULES, RACE_RULES

    enable = list(COMM_RULES)
    if args.races:
        enable += list(RACE_RULES)
    if args.deadlocks:
        enable += list(DEADLOCK_RULES)
    return _lint_run(args, tool="analyze", enable=enable)


def _add_lint_arguments(p: argparse.ArgumentParser, *,
                        with_trace: bool) -> None:
    from .analysis import DEFAULT_BASELINE

    p.add_argument("paths", nargs="*",
                   help="files or directories (default: src/repro)")
    p.add_argument("--enable", action="append", metavar="RULE",
                   help="restrict to these rules (repeatable)")
    p.add_argument("--disable", action="append", metavar="RULE",
                   help="drop these rules (repeatable)")
    p.add_argument("--baseline", default=DEFAULT_BASELINE,
                   help=f"baseline file (default {DEFAULT_BASELINE})")
    p.add_argument("--no-baseline", action="store_true",
                   help="report every finding, ignoring the baseline")
    p.add_argument("--update-baseline", action="store_true",
                   help="accept the current findings as the new baseline")
    p.add_argument("--check", action="store_true",
                   help="CI gate: also fail on stale baseline entries")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the machine-readable report")
    if with_trace:
        p.add_argument("--trace", default=None, metavar="TRACE_JSON",
                       help="replay a recorded trace (trace.json or "
                            "events.jsonl, optionally .gz) and verify "
                            "send/recv/collective matching")
        p.add_argument("--races", action="store_true",
                       help="add the static buffer-lifetime rules and, "
                            "with --trace, the happens-before race "
                            "check over recorded buffer epochs")
        p.add_argument("--deadlocks", action="store_true",
                       help="add the static comm-ordering rule and, "
                            "with --trace, the wait-for-graph deadlock "
                            "check over blocked ops")


def _add_backend_argument(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend", choices=("thread", "process"),
                   default="thread",
                   help="execution backend: deterministic in-process "
                        "threads (default) or real OS processes with "
                        "shared-memory zero-copy transport")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Scientific Computations on Modern "
                    "Parallel Vector Systems' (SC 2004)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="regenerate every exhibit")
    p.add_argument("--no-reference", action="store_true")
    p.set_defaults(fn=_cmd_tables)

    p = sub.add_parser("table", help="one table (1-7) or figure 9")
    p.add_argument("number", type=int, choices=(1, 2, 3, 4, 5, 6, 7, 9))
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("machines", help="platform specs")
    p.set_defaults(fn=_cmd_machines)

    p = sub.add_parser("bands", help="silicon band structure")
    p.add_argument("--ecut", type=float, default=6.0)
    p.add_argument("--points", type=int, default=4)
    p.set_defaults(fn=_cmd_bands)

    p = sub.add_parser("amr", help="AMR vector-performance study")
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--steps", type=int, default=10)
    p.set_defaults(fn=_cmd_amr)

    p = sub.add_parser("apps", help="validate the four applications")
    p.set_defaults(fn=_cmd_apps)

    p = sub.add_parser(
        "chaos",
        help="fault-injection + checkpoint/restart pass of the four apps")
    p.add_argument("--seed", type=int, default=2004,
                   help="fault plan seed (default 2004)")
    p.add_argument("--sdc", action="store_true",
                   help="silent-data-corruption pass: bit flips + "
                        "checkpoint damage, invariant detection, "
                        "rollback to a verified checkpoint")
    p.add_argument("--kill-rank", type=int, default=None, metavar="R",
                   help="online rank-failure pass: kill rank R mid-run "
                        "and recover in place (respawn from the spare "
                        "pool; no job restart)")
    p.add_argument("--at-step", type=int, default=3, metavar="S",
                   help="step the kill fires at (default 3)")
    p.add_argument("--shrink", action="store_true",
                   help="recover by shrinking over the survivors "
                        "instead of respawning a spare")
    p.add_argument("--app", action="append", default=None,
                   choices=APPS,
                   help="restrict the kill pass to one app "
                        "(repeatable; default all four)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the kill-pass summary JSON")
    _add_backend_argument(p)
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser(
        "health",
        help="run one app under invariant monitors; print the report")
    p.add_argument("app", choices=APPS)
    p.add_argument("--sdc", action="store_true",
                   help="inject a deterministic bit flip and show "
                        "detection + rollback")
    p.add_argument("--seed", type=int, default=2004,
                   help="SDC plan seed (default 2004)")
    p.add_argument("--check-every", type=int, default=1,
                   help="invariant check cadence in steps (default 1)")
    _add_backend_argument(p)
    p.set_defaults(fn=_cmd_health)

    p = sub.add_parser(
        "trace",
        help="run one app with tracing on; write trace.json + metrics.json")
    p.add_argument("app", choices=APPS)
    p.add_argument("--steps", type=int, default=None,
                   help="time steps (paratec: outer CG iterations)")
    p.add_argument("--nprocs", type=int, default=None,
                   help="simulated ranks (default: per-app small config)")
    p.add_argument("--out", default="trace-out",
                   help="output directory (default ./trace-out)")
    p.add_argument("--summary", action="store_true",
                   help="print the per-phase table only; write no files")
    _add_backend_argument(p)
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "report",
        help="cross-rank performance attribution: critical path, "
             "wait states, measured-vs-modeled roofline join")
    p.add_argument("app", nargs="?", default=None,
                   choices=APPS,
                   help="run this app traced, then analyze it")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="analyze a recorded trace.json/events.jsonl "
                        "instead of running an app")
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="metrics.json from the same run (supplies app "
                        "+ nprocs for the model join in --trace mode)")
    p.add_argument("--steps", type=int, default=None,
                   help="time steps (paratec: outer CG iterations)")
    p.add_argument("--nprocs", type=int, default=None,
                   help="simulated ranks (default: per-app small config)")
    p.add_argument("--machine", default="ES",
                   help="platform for the model join (default ES)")
    p.add_argument("--threshold", type=float, default=None,
                   help="divergence flag threshold on run-share "
                        "difference (default 0.25)")
    p.add_argument("--out", default="report-out",
                   help="output directory (default ./report-out)")
    _add_backend_argument(p)
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser(
        "bench",
        help="time optimized kernels vs naive references; compare "
             "speedup ratios against a committed baseline")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="write the benchmark document (BENCH_PERF.json)")
    p.add_argument("--check", default=None, metavar="BASELINE",
                   help="fail if any speedup falls below BASELINE by "
                        "more than the tolerance band")
    p.add_argument("--tolerance", type=float, default=0.30,
                   help="relative tolerance band for --check "
                        "(default 0.30)")
    p.add_argument("--quick", action="store_true",
                   help="smaller problems / fewer repeats (CI smoke)")
    p.add_argument("--only", default=None,
                   help="comma-separated subset of benchmarks")
    _add_backend_argument(p)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser(
        "campaign",
        help="fault-tolerant experiment campaigns: DAG sweeps with "
             "retries, result caching, crash-safe resume")
    csub = p.add_subparsers(dest="action", required=True)
    pr = csub.add_parser("run", help="run a campaign spec")
    pr.add_argument("spec", help="campaign spec file (YAML or JSON)")
    pr.add_argument("--out", default="campaign-out",
                    help="campaign directory (default ./campaign-out); "
                         "re-running into it resumes")
    pr.add_argument("--workers", type=int, default=None,
                    help="concurrent steps (default: spec's `workers`)")
    pr.add_argument("-q", "--quiet", action="store_true",
                    help="suppress per-step progress lines")
    pr.set_defaults(fn=_cmd_campaign)
    ps = csub.add_parser("status",
                         help="inspect a campaign directory")
    ps.add_argument("target", help="campaign directory")
    ps.add_argument("--json", action="store_true",
                    help="print the machine-readable status document")
    ps.set_defaults(fn=_cmd_campaign, quiet=True, workers=None)
    pz = csub.add_parser(
        "resume",
        help="resume an interrupted campaign from its journal + store")
    pz.add_argument("target", help="campaign directory")
    pz.add_argument("--workers", type=int, default=None,
                    help="concurrent steps (default: spec's `workers`)")
    pz.add_argument("-q", "--quiet", action="store_true",
                    help="suppress per-step progress lines")
    pz.set_defaults(fn=_cmd_campaign)

    p = sub.add_parser(
        "lint",
        help="static SPMD-correctness lint (all rules) against the "
             "committed baseline")
    p.add_argument("--list-rules", action="store_true",
                   help="print the registered rules and exit")
    _add_lint_arguments(p, with_trace=False)
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser(
        "analyze",
        help="communication-matching checks; --trace replays a "
             "recorded run")
    _add_lint_arguments(p, with_trace=True)
    p.set_defaults(fn=_cmd_analyze)

    args = parser.parse_args(argv)
    np.set_printoptions(suppress=True)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
