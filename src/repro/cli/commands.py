"""CLI command implementations.

Each command returns a process exit code (0 on success).  Commands print
human-readable progress to stdout; file outputs are JSONL (firehose,
corpus) or plain text (artifacts).  A ``ReproError`` or ``OSError`` a
command does not handle itself reaches :func:`repro.cli.main.main`,
which prints it as one ``error:`` line and exits 1.
"""

from __future__ import annotations

import argparse
from datetime import timedelta
from pathlib import Path

from repro.config import (
    AnalysisConfig,
    CollectionConfig,
    RelativeRiskConfig,
    UserClusteringConfig,
)
from repro.dataset.corpus import TweetCorpus
from repro.dataset.io import (
    read_jsonl,
    read_tweets_jsonl,
    write_jsonl,
    write_tweets_jsonl,
)
from repro.errors import ReproError
from repro.organs import Organ
from repro.pipeline.runner import CollectionPipeline
from repro.report.experiments import ExperimentSuite
from repro.sensor.rolling import RollingAwarenessSensor
from repro.synth.calibration import check_calibration
from repro.synth.scenarios import paper2016_scenario
from repro.synth.world import SyntheticWorld

_ARTIFACTS = ("table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7")


def cmd_generate(args: argparse.Namespace) -> int:
    """Synthesize a world and persist its firehose."""
    world = SyntheticWorld(paper2016_scenario(scale=args.scale, seed=args.seed))
    print(f"generating {world.n_users:,} users "
          f"(~{world.n_on_topic_tweets:,} on-topic tweets)…")
    count = write_tweets_jsonl(world.firehose(), args.output)
    print(f"wrote {count:,} tweets to {args.output}")
    return 0


def cmd_collect(args: argparse.Namespace) -> int:
    """Run the §III-A pipeline over a firehose file."""
    config = CollectionConfig(
        prefer_geotag=not args.no_geotag,
        min_confidence=args.min_confidence,
    )
    pipeline = CollectionPipeline(config=config)
    fault_plan = None
    if getattr(args, "chaos", False):
        from repro.twitter.faults import FaultPlan

        fault_plan = FaultPlan.chaos(seed=args.chaos_seed)
        print(f"chaos mode: {fault_plan.describe()}")
    worker_faults = None
    supervisor = None
    if getattr(args, "worker_chaos", False):
        from repro.faults.compute import WorkerFaultPlan
        from repro.supervise import SupervisorPolicy

        worker_faults = WorkerFaultPlan.chaos(seed=args.worker_chaos_seed)
        supervisor = SupervisorPolicy()
        print(f"worker chaos mode: {worker_faults.describe()}")
    fs = None
    if getattr(args, "disk_chaos", False):
        from repro.faults.storage import StorageFaultPlan
        from repro.storage.fs import FaultyFS

        fs = FaultyFS(StorageFaultPlan.chaos(seed=args.disk_chaos_seed))
        print(f"disk chaos mode: {fs.plan.describe()}")
    workers = getattr(args, "workers", 1)
    if workers > 1:
        print(f"sharding across {workers} worker processes")
    from repro.obs import NULL_TELEMETRY, Telemetry, activate

    tracing = getattr(args, "trace", False)
    telemetry = Telemetry() if tracing else NULL_TELEMETRY
    with activate(telemetry):
        corpus, report = pipeline.run(
            read_tweets_jsonl(args.firehose),
            fault_plan=fault_plan,
            workers=workers,
            supervisor=supervisor,
            worker_faults=worker_faults,
        )
        count = write_jsonl(corpus.records, args.output, fs=fs)
    for label, value in report.as_rows():
        print(f"{label}: {value}")
    if fs is not None:
        for label, value in fs.injected.as_rows():
            print(f"{label}: {value}")
    print(f"wrote {count:,} records to {args.output}")
    if tracing:
        from repro.obs.export import write_trace

        trace_path = Path(args.output).with_name(
            Path(args.output).name + ".trace.jsonl"
        )
        try:
            write_trace(
                telemetry, trace_path, fs=fs, source=str(args.firehose)
            )
        except (ReproError, OSError) as exc:
            # Telemetry is advisory: losing the trace must never fail a
            # collection whose corpus is already safely on disk.
            print(f"warning: could not write telemetry: {exc}")
        else:
            print(f"wrote telemetry to {trace_path}")
    return 0


def cmd_scrub(args: argparse.Namespace) -> int:
    """Verify manifested files; quarantine bitrot, repair from replicas."""
    from repro.storage.scrub import scrub_paths

    try:
        report = scrub_paths(
            list(args.paths),
            repair_from=args.repair_from,
            quarantine=not args.no_quarantine,
        )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}")
        return 2
    for result in report.results:
        detail = f" ({result.detail})" if result.detail else ""
        print(f"{result.path}: {result.status}{detail}")
    for label, value in report.as_rows():
        print(f"{label}: {value}")
    # Exit 0 only when no data was lost: clean, repaired, or a rebuilt
    # stale sidecar.  Quarantined records are preserved evidence, but
    # the corpus did lose them — operators must see that.
    ok = report.all_clean and report.records_quarantined == 0
    return 0 if ok else 1


def cmd_run(args: argparse.Namespace) -> int:
    """Execute (or resume) a journaled end-to-end analysis run."""
    from repro.pipeline.journal import RunParams, run_stages

    params = RunParams(
        scale=args.scale,
        seed=args.seed,
        workers=args.workers,
        k=args.k,
        alpha=args.alpha,
        chaos=args.chaos,
        chaos_seed=args.chaos_seed,
        worker_chaos=args.worker_chaos,
        worker_chaos_seed=args.worker_chaos_seed,
    )
    summary = run_stages(
        Path(args.run_dir),
        params,
        resume=args.resume,
        trace=getattr(args, "trace", False),
        log=print,
    )
    print(
        f"run complete: {len(summary.stages_run)} stages run, "
        f"{len(summary.stages_skipped)} skipped, artifacts in "
        f"{summary.run_dir}/"
    )
    for health in (summary.report.reliability, summary.report.compute):
        if health is not None:
            for label, value in health.as_rows():
                print(f"{label}: {value}")
    if getattr(args, "trace", False):
        print(
            f"telemetry in {summary.run_dir}/trace.jsonl "
            f"(inspect with: repro trace {summary.run_dir})"
        )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Summarize a run's telemetry from its trace JSONL."""
    import json

    from repro.errors import SerializationError
    from repro.obs.export import (
        TRACE_FILENAME,
        read_trace,
        summarize_trace,
        validate_trace,
    )

    target = Path(args.run_dir)
    if target.is_dir():
        target = target / TRACE_FILENAME
    if not target.exists():
        print(
            f"error: no trace at {target}; run with --trace to record one"
        )
        return 2
    try:
        records = read_trace(target)
    except (SerializationError, OSError) as exc:
        print(f"error: {exc}")
        return 2
    problems = validate_trace(records)
    if problems:
        for problem in problems:
            print(f"invalid trace: {problem}")
        return 1
    summary = summarize_trace(records)
    if args.format == "json":
        print(json.dumps(summary.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"trace: {target}")
    width = max(
        (len(label) for label, __ in summary.as_rows()), default=0
    )
    for label, value in summary.as_rows():
        print(f"  {label:<{width}}  {value}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve analysis queries from a run directory, overload-protected."""
    from repro.faults.load import LoadFaultPlan
    from repro.obs import NULL_TELEMETRY, Telemetry, activate
    from repro.serve import (
        QueryService,
        read_requests_jsonl,
        write_responses_jsonl,
    )

    run_dir = Path(args.run_dir)
    if not (run_dir / "corpus.jsonl").exists():
        print(f"error: no corpus.jsonl under {run_dir}")
        return 2
    requests_path = Path(args.requests)
    if not requests_path.exists():
        print(f"error: no request file at {requests_path}")
        return 2
    plan = None
    if args.load_chaos:
        plan = LoadFaultPlan.chaos(seed=args.load_chaos_seed)
        print(f"load chaos mode: {plan.describe()}")
    output = Path(
        args.output
        if args.output
        else requests_path.with_name(requests_path.name + ".responses.jsonl")
    )
    tracing = getattr(args, "trace", False)
    telemetry = Telemetry() if tracing else NULL_TELEMETRY
    requests, malformed = read_requests_jsonl(requests_path)
    with activate(telemetry):
        service = QueryService(run_dir, plan=plan)
        result = service.serve(requests, malformed)
    count = write_responses_jsonl(result.responses, output)
    for label, value in result.report.as_rows():
        print(f"{label}: {value}")
    print(f"wrote {count:,} responses to {output}")
    if tracing:
        from repro.obs.export import write_trace

        trace_path = output.with_name(output.name + ".trace.jsonl")
        try:
            write_trace(telemetry, trace_path, source=str(requests_path))
        except (ReproError, OSError) as exc:
            # Telemetry is advisory: losing the trace must never fail a
            # serve run whose responses are already safely on disk.
            print(f"warning: could not write telemetry: {exc}")
        else:
            print(f"wrote telemetry to {trace_path}")
    return 0 if result.report.accounted else 1


def cmd_analyze(args: argparse.Namespace) -> int:
    """Regenerate paper artifacts from a corpus file."""
    wanted = [name.strip() for name in args.artifacts.split(",") if name.strip()]
    unknown = sorted(set(wanted) - set(_ARTIFACTS))
    if unknown:
        print(f"error: unknown artifacts {unknown}; "
              f"choose from {', '.join(_ARTIFACTS)}")
        return 2
    corpus = TweetCorpus(read_jsonl(args.corpus))
    suite = ExperimentSuite(
        corpus,
        config=AnalysisConfig(
            relative_risk=RelativeRiskConfig(alpha=args.alpha),
            user_clustering=UserClusteringConfig(k=args.k),
        ),
    )
    runners = {
        "table1": lambda: suite.run_table1().render(),
        "fig2": lambda: suite.run_fig2().render(),
        "fig3": lambda: suite.run_fig3().render(),
        "fig4": lambda: suite.run_fig4().render(),
        "fig5": lambda: suite.run_fig5().render(),
        "fig6": lambda: suite.run_fig6().render(),
        "fig7": lambda: suite.run_fig7().render(),
    }
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for name in wanted:
        text = runners[name]()
        print(f"\n===== {name} =====")
        print(text)
        if out_dir is not None:
            from repro.storage.atomic import atomic_write_text

            atomic_write_text(out_dir / f"{name}.txt", text + "\n")
    if out_dir is not None:
        print(f"\nwrote {len(wanted)} artifacts to {out_dir}/")
    if args.csv is not None:
        from repro.report.export import export_all_csv

        paths = export_all_csv(suite, args.csv)
        print(f"wrote {len(paths)} CSV files to {args.csv}/")
    if args.svg is not None:
        from repro.viz.artifacts import export_all_svg

        paths = export_all_svg(suite, args.svg)
        print(f"wrote {len(paths)} SVG figures to {args.svg}/")
    return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    """Replay a firehose through the rolling awareness sensor."""
    sensor = RollingAwarenessSensor(
        window=timedelta(days=args.window_days),
        relative_risk=RelativeRiskConfig(min_users=args.min_users),
    )
    stream = read_tweets_jsonl(args.firehose)
    for snapshot in sensor.run(stream, emit_every=args.emit_every):
        spiking = ", ".join(
            f"{state}:{'+'.join(o.value for o in snapshot.highlights[state])}"
            for state in snapshot.emerging_states()
        ) or "-"
        organs = " ".join(
            f"{organ.value[:4]}={snapshot.users_by_organ[organ]}"
            for organ in Organ
        )
        print(
            f"{snapshot.window_end:%Y-%m-%d} "
            f"tweets={snapshot.n_tweets} users={snapshot.n_users} "
            f"{organs} spiking=[{spiking}]"
        )
    print(f"done: {sensor.seen:,} seen, {sensor.retained:,} retained")
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    """Run the full reproduction battery and print the verdict table."""
    from repro.report.verdicts import evaluate_reproduction

    world = SyntheticWorld(paper2016_scenario(scale=args.scale, seed=args.seed))
    print(f"generating world (scale={args.scale}) and running pipeline…")
    corpus, report = CollectionPipeline().run(world.firehose())
    print(f"retained {report.retained:,} US tweets "
          f"({report.us_yield:.1%} yield)\n")
    suite = ExperimentSuite(corpus, report)
    result = evaluate_reproduction(suite)
    print(result.render())
    return 0 if result.all_passed else 1


def cmd_replicate(args: argparse.Namespace) -> int:
    """Run the reproduction across seeds and print aggregate rates."""
    from repro.experiments.replication import replicate

    if args.seeds < 1:
        print("error: --seeds must be >= 1")
        return 2
    summary = replicate(
        seeds=tuple(range(1, args.seeds + 1)), scale=args.scale
    )
    print(summary.render())
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run reprolint; exit non-zero when any (unbaselined) finding survives.

    The file-local rules always run (unless ``--rules`` selects only
    interprocedural ids).  ``--ipa`` adds the whole-program pass, whose
    findings are filtered through the committed baseline ratchet:
    grandfathered findings are shown but do not fail the run, new ones
    do, and stale baseline entries are reported so the ratchet tightens.
    """
    import json

    from repro.lint import ALL_RULES, UnknownRuleError, run_lint, select_rules
    from repro.lint.ipa import IPA_RULE_CATALOG, IPA_RULE_IDS

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  {rule.summary}")
        for rule_id, summary in IPA_RULE_CATALOG:
            print(f"{rule_id}  {summary}  [--ipa]")
        return 0

    run_local = True
    ipa_rules: tuple[str, ...] | None = None
    run_ipa_pass = bool(args.ipa)
    try:
        if args.rules:
            requested = [
                part.strip()
                for part in args.rules.split(",")
                if part.strip()
            ]
            local_ids = [r for r in requested if r not in IPA_RULE_IDS]
            ipa_ids = tuple(r for r in requested if r in IPA_RULE_IDS)
            if ipa_ids:
                # Requesting an interprocedural rule implies --ipa.
                run_ipa_pass = True
                ipa_rules = ipa_ids
                run_local = bool(local_ids)
            rules = select_rules(local_ids if local_ids else None)
        else:
            rules = select_rules(None)
    except UnknownRuleError as exc:
        ipa_catalog = ", ".join(IPA_RULE_IDS)
        print(f"error: {exc}; interprocedural (--ipa) rules: {ipa_catalog}")
        return 2

    if args.graph and not run_ipa_pass:
        print("error: --graph requires --ipa (the call graph is built "
              "by the whole-program pass)")
        return 2
    if args.write_baseline and not run_ipa_pass:
        print("error: --write-baseline requires --ipa")
        return 2
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}")
        return 2

    findings = run_lint(args.paths, rules=rules) if run_local else []
    grandfathered: list = []
    stale: list[tuple[str, str, str]] = []
    if run_ipa_pass:
        from repro.lint.ipa import (
            BaselineError,
            graph_to_dot,
            graph_to_json,
            load_baseline,
            run_ipa,
            split_baselined,
            write_baseline,
        )

        result = run_ipa(list(args.paths), rules=ipa_rules)
        if args.graph:
            render = graph_to_dot if args.graph == "dot" else graph_to_json
            print(render(result.graph), end="")
            return 0
        if args.write_baseline:
            count = write_baseline(result.findings, args.baseline)
            noun = "entry" if count == 1 else "entries"
            print(f"reprolint: wrote {count} baseline {noun} to "
                  f"{args.baseline}")
            return 0
        try:
            baseline = load_baseline(args.baseline)
        except BaselineError as exc:
            print(f"error: {exc}")
            return 2
        new, grandfathered, stale = split_baselined(
            result.findings, baseline
        )
        findings = sorted(findings + new)

    if args.format == "json":
        print(json.dumps([finding.to_dict() for finding in findings],
                         indent=2))
    else:
        for finding in findings:
            print(finding.render())
        for finding in grandfathered:
            print(f"{finding.render()}  [baselined]")
        for rule, path, symbol in stale:
            print(f"stale baseline entry: {rule} {path} "
                  f"({symbol or 'module'}) no longer fires — regenerate "
                  "with --write-baseline")
        noun = "finding" if len(findings) == 1 else "findings"
        suffix = (
            f" ({len(grandfathered)} baselined)" if grandfathered else ""
        )
        print(f"reprolint: {len(findings)} {noun}{suffix}")
    return 1 if findings else 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    """Generate a world and verify Table I calibration."""
    world = SyntheticWorld(paper2016_scenario(scale=args.scale, seed=args.seed))
    corpus, report = CollectionPipeline().run(world.firehose())
    result = check_calibration(corpus, report)
    print(result.render())
    return 0 if result.ok else 1
