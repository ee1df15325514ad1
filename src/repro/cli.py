"""Command-line interface: ``python -m repro <command>``.

Commands
--------

* ``fig2``        -- the motivating example under every scheduler.
* ``table1``      -- the paradigm-compliance table.
* ``run``         -- one training job under one scheduler, with optional
                     timeline rendering and trace export.
* ``cluster``     -- a dynamic Poisson-arrival multi-tenant cluster.
* ``obs``         -- summarize a saved JSONL observability log.
* ``watch``       -- replay a saved JSONL log through the online AIOps
                     watch loop (streaming detectors + localization).
* ``aiops``       -- score the watch loop against the generated chaos
                     scenario suite (``repro aiops score``).
* ``diagnose``    -- critical path, tardiness attribution, and blame
                     from a saved JSONL event log (no re-simulation).
* ``diff``        -- attribute the per-job JCT delta between two event
                     logs of the same workload (the Fig. 2 diagnosis).
* ``schedulers``  -- list registered schedulers.
* ``models``      -- list the model zoo.

Observability (see docs/observability.md): every sim-running command
(``fig2``, ``table1``, ``run``, ``run-spec``, ``matrix``, ``cluster``)
accepts ``--emit-trace PATH`` (a Perfetto-loadable Chrome trace),
``--metrics-out PATH`` (a metrics summary JSON: scheduler invocations by
trigger cause, per-link peak/mean utilization, per-EchelonFlow
tardiness, diagnosis attribution), and ``--events-out PATH`` (a
structured JSONL event log for ``repro obs`` / ``repro diagnose`` /
``repro diff``). For example::

    python -m repro run --paradigm fsdp --emit-trace trace.json \
        --metrics-out metrics.json
    python -m repro fig2 --obs-scheduler coflow --events-out coflow.jsonl
    python -m repro diagnose coflow.jsonl
    python -m repro diff fair.jsonl coflow.jsonl
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from .analysis import (
    comp_finish_time,
    format_table,
    gpu_idleness,
    render_device_timeline,
    tardiness_report,
    write_trace,
)
from .core.units import gbps, megabytes
from .scheduling import make_scheduler, scheduler_names
from .simulator import Engine
from .topology import big_switch, linear_chain
from .workloads import (
    ClusterManager,
    JobTemplate,
    build_dp_allreduce,
    build_dp_ps,
    build_fsdp,
    build_pp_1f1b,
    build_pp_gpipe,
    build_pipeline_segment,
    build_tp_megatron,
    get_model,
    model_names,
    poisson_arrivals,
)
from .workloads.placement import ClusterPlacer

PARADIGMS = ("dp-allreduce", "dp-ps", "pp-gpipe", "pp-1f1b", "tp", "fsdp")

_OBS_FLAG_ATTRS = ("emit_trace", "metrics_out", "events_out")


def _add_obs_flags(parser) -> None:
    parser.add_argument(
        "--emit-trace",
        metavar="PATH",
        help="write a Chrome trace-event JSON (open in Perfetto)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write a metrics-summary JSON report",
    )
    parser.add_argument(
        "--events-out",
        metavar="PATH",
        help="write a structured JSONL event log (summarize with 'repro obs')",
    )


def _add_faults_flag(parser) -> None:
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        help="inject runtime faults (see docs/robustness.md), e.g. "
        "'link_down:h0-h1@2.0+1.0; degrade:h0-h1@4.0,factor=0.5'; the "
        "scheduler is wrapped in ResilientScheduler so crash_scheduler "
        "clauses degrade gracefully instead of aborting",
    )


def _validate_faults(args, topology) -> Optional[int]:
    """Parse --faults and validate its links against the built topology.

    On a bad spec, prints the offending clause (naming the unknown link)
    to stderr and returns exit code 2; on success, stores the parsed
    :class:`~repro.faults.FaultSchedule` back on ``args`` (the engine
    accepts it directly) and returns None.
    """
    spec = getattr(args, "faults", None)
    if not spec:
        return None
    from .faults import FaultSchedule, FaultSpecError

    try:
        schedule = (
            FaultSchedule.parse(spec) if isinstance(spec, str) else spec
        )
        schedule.validate_links(topology)
    except FaultSpecError as exc:
        print(f"bad --faults spec: {exc}", file=sys.stderr)
        return 2
    args.faults = schedule
    return None


def _wrap_resilient(args, scheduler):
    """Wrap ``scheduler`` for graceful degradation when --faults was given.

    Unconditional under --faults (not just for crash specs): a fault
    schedule is exactly the situation where one bad allocation should
    degrade to fair sharing rather than kill the run.
    """
    if not getattr(args, "faults", None):
        return scheduler
    from .faults import ResilientScheduler

    return ResilientScheduler(scheduler)


def _add_check_flag(parser) -> None:
    parser.add_argument(
        "--check",
        nargs="?",
        const="strict",
        default=None,
        metavar="SPEC",
        help="run under the repro.check sanitizer: bare --check means "
        "'strict'; also accepts 'collect' or a full spec such as "
        "'strict:twin=1.0'. Overrides the REPRO_CHECK env var.",
    )
    parser.add_argument(
        "--check-report",
        metavar="PATH",
        help="write the aggregated sanitizer violation report as JSON",
    )


def _configure_check(args) -> None:
    """Install the --check spec as the process default before the run."""
    spec = getattr(args, "check", None)
    if spec is not None:
        from . import check

        check.configure(spec)


def _finish_check(args, status: int) -> int:
    """Emit sanitizer summaries/reports after the command ran."""
    spec = getattr(args, "check", None)
    report_path = getattr(args, "check_report", None)
    if spec is None and report_path is None:
        return status
    from . import check

    config = check.default_config()
    stats = check.global_stats()
    if report_path:
        check.write_global_report(report_path)
        print(f"sanitizer report written to {report_path}")
    if config is not None and stats.sanitizers:
        print(
            f"sanitizer: mode={config.mode} engines={stats.sanitizers} "
            f"violations={stats.total}"
        )
        if stats.total:
            print(stats.log.render(limit=10))
    if spec is not None:
        check.clear_configuration()
    return status


def _obs_for(args):
    """An Instrumentation when any obs flag was given, else None.

    ``None`` keeps the engine's hot path entirely uninstrumented -- the
    zero-overhead default. ``--watch`` forces instrumentation: the watch
    loop consumes the live event log and needs per-link telemetry
    (``log_link_samples``) for its capacity/stall detectors.
    """
    watching = bool(getattr(args, "watch", False))
    if not watching and not any(
        getattr(args, attr, None) for attr in _OBS_FLAG_ATTRS
    ):
        return None
    from .obs import Instrumentation, JsonlEventLog

    # The Chrome exporter reads scheduler instants from the event log, so
    # keep one whenever a trace, an explicit log, or a watch loop was
    # requested.
    needs_log = watching or bool(
        getattr(args, "events_out", None) or getattr(args, "emit_trace", None)
    )
    return Instrumentation(
        event_log=JsonlEventLog() if needs_log else None,
        log_link_samples=watching,
    )


def _add_watch_flags(parser) -> None:
    parser.add_argument(
        "--watch",
        action="store_true",
        help="attach the online AIOps watch loop (streaming anomaly "
        "detection + fault localization; see docs/aiops.md)",
    )
    parser.add_argument(
        "--watch-heartbeat",
        type=float,
        metavar="SECONDS",
        default=None,
        help="sim-time heartbeat period for the watch loop's stall "
        "detectors (default: event-driven only)",
    )
    parser.add_argument(
        "--watch-mitigate",
        action="store_true",
        help="let the watch loop apply mitigations (cordon + reroute, "
        "pin fair-share fallback) on confident localizations",
    )


def _attach_watch(args, engine, obs):
    """Wire a WatchLoop onto a live engine when --watch was given."""
    if not getattr(args, "watch", False):
        return None
    from .obs.watch import WatchLoop

    return WatchLoop().attach(
        obs.event_log,
        engine=engine,
        mitigate=bool(getattr(args, "watch_mitigate", False)),
        heartbeat=getattr(args, "watch_heartbeat", None),
    )


def _print_watch_report(loop) -> None:
    if loop is None:
        return
    report = loop.report()
    rows = [
        ["events observed", report["events_seen"]],
        ["heartbeats", report["heartbeats"]],
        ["anomalies", len(report["anomalies"])],
    ]
    for anomaly in report["anomalies"][:8]:
        rows.append(
            [
                f"  {anomaly['detector']} @ {anomaly['t']:.4g}s",
                f"onset {anomaly['onset']:.4g}s "
                f"confidence {anomaly['confidence']:.2f}",
            ]
        )
    for localization in report["localizations"][:8]:
        best = localization["candidates"][:1]
        if best:
            rows.append(
                [
                    f"  root cause ({localization['detector']})",
                    f"{best[0]['kind']}:{best[0]['target']} "
                    f"(score {best[0]['score']:.2f})",
                ]
            )
    for action in report.get("mitigations", [])[:8]:
        rows.append(
            [
                f"  mitigation {action['action']}",
                f"{action['target']} applied={action['applied']}",
            ]
        )
    print()
    print(format_table(["watch", "value"], rows, title="AIOps watch loop"))


def _wrap_profiled(args, scheduler, obs):
    """Wrap ``scheduler`` for profiling when metrics or events were asked.

    The wrapper feeds the metrics report (``--metrics-out``) and emits
    ``scheduler_invocation`` events so saved logs (``--events-out``)
    carry wall-clock latency for ``repro obs`` percentiles.
    """
    if obs is None or not (
        getattr(args, "metrics_out", None) or getattr(args, "events_out", None)
    ):
        return scheduler, None
    from .obs import ProfiledScheduler

    profiled = ProfiledScheduler(
        scheduler, registry=obs.registry, event_log=obs.event_log
    )
    return profiled, profiled


def _emit_observability(
    args, trace, obs, profiler=None, scheduler_invocations=None, engine=None
) -> None:
    if obs is None:
        return
    from .obs import build_metrics_report, export_chrome_trace, write_metrics_report

    if getattr(args, "emit_trace", None):
        export_chrome_trace(trace, args.emit_trace, obs)
        print(f"chrome trace written to {args.emit_trace} (open in Perfetto)")
    if getattr(args, "metrics_out", None):
        report = build_metrics_report(
            trace,
            instrumentation=obs,
            profiler=profiler,
            scheduler_invocations=scheduler_invocations,
            sanitizer=getattr(engine, "check", None),
        )
        write_metrics_report(report, args.metrics_out)
        print(f"metrics report written to {args.metrics_out}")
    if getattr(args, "events_out", None) and obs.event_log is not None:
        obs.event_log.write(args.events_out)
        print(f"event log written to {args.events_out}")


def _build_job(args, workers: List[str]):
    model = get_model(args.model, batch_scale=args.batch_scale)
    if args.paradigm == "dp-allreduce":
        return build_dp_allreduce(
            "job",
            model,
            workers,
            bucket_bytes=megabytes(args.bucket_mb),
            iterations=args.iterations,
        )
    if args.paradigm == "dp-ps":
        return build_dp_ps(
            "job",
            model,
            workers[:-1],
            workers[-1],
            bucket_bytes=megabytes(args.bucket_mb),
            iterations=args.iterations,
        )
    if args.paradigm == "pp-gpipe":
        return build_pp_gpipe(
            "job", model, workers, args.micro_batches, iterations=args.iterations
        )
    if args.paradigm == "pp-1f1b":
        return build_pp_1f1b(
            "job", model, workers, args.micro_batches, iterations=args.iterations
        )
    if args.paradigm == "tp":
        return build_tp_megatron("job", model, workers, iterations=args.iterations)
    if args.paradigm == "fsdp":
        return build_fsdp("job", model, workers, iterations=args.iterations)
    raise ValueError(f"unknown paradigm {args.paradigm!r}")


def _topology_for(args, n_workers: int):
    if args.paradigm in ("pp-gpipe", "pp-1f1b"):
        return linear_chain(n_workers, gbps(args.bandwidth_gbps))
    return big_switch(n_workers, gbps(args.bandwidth_gbps))


def cmd_fig2(args) -> int:
    from .topology import two_hosts

    status = _validate_faults(args, two_hosts(1.0))
    if status is not None:
        return status
    # Observability flags instrument one run (--obs-scheduler, default
    # echelon -- the paper's policy); the others stay on the hot path.
    obs = _obs_for(args)
    rows = []
    for name in ("fair", "sjf", "coflow", "sincronia", "echelon"):
        job = build_pipeline_segment(
            "fig2", "h0", "h1", [0.0, 1.0, 2.0], [2.0] * 3, [2.0] * 3
        )
        observed = obs if name == args.obs_scheduler else None
        base = _wrap_resilient(args, make_scheduler(name))
        scheduler, profiler = (
            _wrap_profiled(args, base, observed)
            if observed is not None
            else (base, None)
        )
        engine = Engine(
            two_hosts(1.0),
            scheduler,
            instrumentation=observed,
            faults=args.faults,
        )
        job.submit_to(engine)
        trace = engine.run()
        rows.append([name, comp_finish_time(trace)])
        if observed is not None:
            _emit_observability(
                args,
                trace,
                observed,
                profiler=profiler,
                scheduler_invocations=engine.scheduler_invocations,
                engine=engine,
            )
    print(
        format_table(
            ["scheduler", "comp finish time"],
            rows,
            title="Fig. 2 motivating example (paper optimum: 8)",
        )
    )
    return 0


def cmd_table1(args) -> int:
    from .workloads import uniform_model

    model = uniform_model(
        "u8",
        8,
        param_bytes_per_layer=megabytes(40),
        activation_bytes=megabytes(20),
        forward_time=0.004,
    )
    hosts = [f"h{i}" for i in range(4)]
    cases = {
        "DP-AllReduce": (
            lambda: build_dp_allreduce("j", model, hosts, bucket_bytes=megabytes(80)),
            lambda: big_switch(4, gbps(10)),
        ),
        "DP-PS": (
            lambda: build_dp_ps("j", model, hosts, "h4", bucket_bytes=megabytes(80)),
            lambda: big_switch(5, gbps(10)),
        ),
        "PP": (
            lambda: build_pp_gpipe("j", model, hosts, 4),
            lambda: linear_chain(4, gbps(10)),
        ),
        "TP": (
            lambda: build_tp_megatron("j", model, hosts),
            lambda: big_switch(4, gbps(10)),
        ),
        "FSDP": (
            lambda: build_fsdp("j", model, hosts),
            lambda: big_switch(4, gbps(10)),
        ),
    }
    # Observability flags instrument a single cell of the table, chosen
    # by --obs-paradigm/--obs-scheduler; the rest stay uninstrumented.
    obs = _obs_for(args)
    rows = []
    for label, (build, topo) in cases.items():
        measured = {}
        for name in ("fair", "coflow", "echelon"):
            observed = (
                obs
                if obs is not None
                and label == args.obs_paradigm
                and name == args.obs_scheduler
                else None
            )
            scheduler, profiler = (
                _wrap_profiled(args, make_scheduler(name), observed)
                if observed is not None
                else (make_scheduler(name), None)
            )
            job = build()
            engine = Engine(topo(), scheduler, instrumentation=observed)
            job.submit_to(engine)
            trace = engine.run()
            measured[name] = comp_finish_time(trace)
            if observed is not None:
                _emit_observability(
                    args,
                    trace,
                    observed,
                    profiler=profiler,
                    scheduler_invocations=engine.scheduler_invocations,
                    engine=engine,
                )
        compliant = abs(measured["echelon"] - measured["coflow"]) <= 1e-6 * max(
            measured.values()
        )
        rows.append(
            [
                label,
                "yes" if compliant else "no",
                measured["fair"],
                measured["coflow"],
                measured["echelon"],
            ]
        )
    print(
        format_table(
            ["paradigm", "coflow-compliant", "fair", "coflow", "echelon"],
            rows,
            title="Table 1: Coflow compliance (measured)",
        )
    )
    return 0


def cmd_run(args) -> int:
    workers = [f"h{i}" for i in range(args.workers)]
    n_hosts = args.workers + (1 if args.paradigm == "dp-ps" else 0)
    topology = _topology_for(args, n_hosts)
    status = _validate_faults(args, topology)
    if status is not None:
        return status
    all_hosts = [f"h{i}" for i in range(n_hosts)]
    job = _build_job(args, all_hosts if args.paradigm == "dp-ps" else workers)
    obs = _obs_for(args)
    scheduler, profiler = _wrap_profiled(
        args, _wrap_resilient(args, make_scheduler(args.scheduler)), obs
    )
    engine = Engine(topology, scheduler, instrumentation=obs, faults=args.faults)
    job.submit_to(engine)
    loop = _attach_watch(args, engine, obs)
    trace = engine.run()

    report = tardiness_report(trace, job.echelonflows)
    idleness = gpu_idleness(trace, horizon=trace.end_time)
    print(
        format_table(
            ["metric", "value"],
            [
                ["paradigm", job.paradigm],
                ["scheduler", args.scheduler],
                ["comp finish time (s)", comp_finish_time(trace)],
                ["job completion (s)", trace.end_time],
                ["flows delivered", len(trace.flow_records)],
                ["worst EchelonFlow tardiness (s)", report.worst],
                ["sum tardiness (s)", report.total],
                [
                    "GPU idle share",
                    f"{1.0 - idleness.total_busy / (len(workers) * trace.end_time):.1%}",
                ],
            ],
            title=f"{args.model} / {args.paradigm} on {args.workers} workers",
        )
    )
    if args.timeline:
        print()
        print(render_device_timeline(trace, width=args.timeline_width))
    if args.trace:
        write_trace(trace, args.trace, fmt=args.trace_format)
        print(f"\ntrace written to {args.trace} ({args.trace_format})")
    _print_watch_report(loop)
    _emit_observability(
        args,
        trace,
        obs,
        profiler=profiler,
        scheduler_invocations=engine.scheduler_invocations,
        engine=engine,
    )
    return 0


def cmd_cluster(args) -> int:
    model = get_model(args.model, batch_scale=args.batch_scale)
    templates = [
        JobTemplate(
            "dp",
            lambda jid, ws: build_dp_allreduce(
                jid, model, ws, bucket_bytes=megabytes(args.bucket_mb)
            ),
            worker_count=args.job_workers,
            weight=2.0,
        ),
        JobTemplate(
            "fsdp",
            lambda jid, ws: build_fsdp(jid, model, ws),
            worker_count=args.job_workers,
            weight=1.0,
        ),
    ]
    topology = big_switch(args.hosts, gbps(args.bandwidth_gbps))
    status = _validate_faults(args, topology)
    if status is not None:
        return status
    obs = _obs_for(args)
    scheduler, profiler = _wrap_profiled(
        args, _wrap_resilient(args, make_scheduler(args.scheduler)), obs
    )
    engine = Engine(topology, scheduler, instrumentation=obs, faults=args.faults)
    manager = ClusterManager(engine, ClusterPlacer(topology))
    manager.schedule(poisson_arrivals(templates, args.rate, args.jobs, seed=args.seed))
    loop = _attach_watch(args, engine, obs)
    trace = engine.run()
    records = manager.completed_records()
    print(
        format_table(
            ["metric", "value"],
            [
                ["jobs completed", len(records)],
                ["mean JCT (s)", manager.mean_jct()],
                ["mean queueing delay (s)", manager.mean_queueing_delay()],
                ["makespan (s)", engine.now],
            ],
            title=(
                f"{args.jobs} Poisson arrivals at {args.rate}/s on "
                f"{args.hosts} hosts ({args.scheduler})"
            ),
        )
    )
    _print_watch_report(loop)
    _emit_observability(
        args,
        trace,
        obs,
        profiler=profiler,
        scheduler_invocations=engine.scheduler_invocations,
        engine=engine,
    )
    return 0


def cmd_matrix(args) -> int:
    from .analysis import run_matrix, standard_battery
    from .workloads import get_model

    model = None
    if args.model:
        model = get_model(args.model, batch_scale=args.batch_scale)
    schedulers = {
        name: (lambda name=name: make_scheduler(name))
        for name in args.schedulers.split(",")
    }
    cases = standard_battery(
        model=model,
        workers=args.workers,
        bandwidth=gbps(args.bandwidth_gbps),
        micro_batches=args.micro_batches,
    )
    obs = _obs_for(args)
    observe_cell = None
    if obs is not None:
        case_names = [case.name for case in cases]
        obs_case = args.obs_case or case_names[0]
        obs_scheduler = args.obs_scheduler or next(iter(schedulers))
        if obs_case not in case_names:
            print(
                f"error: --obs-case {obs_case!r} not in battery "
                f"({', '.join(case_names)})",
                file=sys.stderr,
            )
            return 1
        if obs_scheduler not in schedulers:
            print(
                f"error: --obs-scheduler {obs_scheduler!r} not in "
                f"--schedulers ({', '.join(schedulers)})",
                file=sys.stderr,
            )
            return 1
        observe_cell = (obs_case, obs_scheduler)
    result = run_matrix(
        cases,
        schedulers,
        metric=args.metric,
        instrumentation=obs,
        observe_cell=observe_cell,
        profile=bool(args.metrics_out or args.events_out),
    )
    print(result.to_table(title=f"{args.metric} across the standard battery"))
    if obs is not None and result.observed_trace is not None:
        print(f"observed cell: {result.observed_cell[0]} / {result.observed_cell[1]}")
        _emit_observability(
            args,
            result.observed_trace,
            obs,
            profiler=result.observed_profiler,
            scheduler_invocations=result.observed_invocations,
        )
    return 0


def cmd_run_spec(args) -> int:
    import json as _json

    from .faults import FaultSpecError
    from .workloads import run_spec_file

    obs = _obs_for(args)
    profiler = None
    try:
        if obs is not None:
            results, trace, engine = run_spec_file(
                args.spec,
                instrumentation=obs,
                profile=bool(args.metrics_out),
                faults=args.faults,
                detail=True,
            )
            if args.metrics_out:
                profiler = engine.scheduler
        else:
            results = run_spec_file(args.spec, faults=args.faults)
    except FaultSpecError as exc:
        print(f"bad faults spec: {exc}", file=sys.stderr)
        return 2
    rows = [
        [name, info["paradigm"], info["completion_time"], info["flows"]]
        for name, info in results["jobs"].items()
    ]
    print(
        format_table(
            ["job", "paradigm", "completion time (s)", "flows"],
            rows,
            title=(
                f"{args.spec}: makespan {results['makespan']:.4g}s, "
                f"{results['scheduler_invocations']} scheduler invocations"
            ),
        )
    )
    if args.json:
        print(_json.dumps(results, indent=2, sort_keys=True))
    if obs is not None:
        _emit_observability(
            args,
            trace,
            obs,
            profiler=profiler,
            scheduler_invocations=results["scheduler_invocations"],
            engine=engine,
        )
    return 0


def cmd_obs(args) -> int:
    import json as _json

    from .obs import summarize_jsonl

    try:
        summary = summarize_jsonl(args.log)
    except (OSError, ValueError) as exc:
        print(f"error: cannot summarize {args.log}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(summary, indent=2, sort_keys=True))
        return 0
    rows = [["events", summary["events"]]]
    span = summary.get("time_span")
    if span:
        rows.append(["time span (s)", f"{span['start']:g} .. {span['end']:g}"])
    for kind, count in summary["by_kind"].items():
        rows.append([f"events: {kind}", count])
    scheduler = summary["scheduler"]
    rows.append(["scheduler invocations", scheduler["invocations"]])
    for cause, count in scheduler["by_cause"].items():
        rows.append([f"  cause: {cause}", count])
    latency = scheduler.get("latency_seconds")
    if latency:
        rows.append(
            [
                "scheduler latency p50/p95/p99 (s)",
                f"{latency['p50']:.3g} / {latency['p95']:.3g} / "
                f"{latency['p99']:.3g}",
            ]
        )
        rows.append(["scheduler latency max (s)", f"{latency['max']:.3g}"])
    flows = summary["flows"]
    rows.append(["flows delivered", flows["delivered"]])
    if "worst_tardiness" in flows:
        rows.append(["worst tardiness (s)", flows["worst_tardiness"]])
        rows.append(["mean tardiness (s)", flows["mean_tardiness"]])
    links = summary.get("links")
    if links:
        rows.append(["links observed", links["count"]])
        for key, peak in list(links["peak_utilization"].items())[:8]:
            rows.append([f"  peak util {key}", f"{peak:.1%}"])
    robustness = summary.get("robustness")
    if robustness:
        rows.append(["faults injected", robustness["faults"]])
        for action, count in robustness["fault_actions"].items():
            rows.append([f"  fault: {action}", count])
        span = (
            f"{robustness['first_fault_time']:g} .. "
            f"{robustness['last_fault_time']:g}"
            if "first_fault_time" in robustness
            else "-"
        )
        rows.append(["fault time span (s)", span])
        rows.append(["scheduler fallbacks", robustness["scheduler_fallbacks"]])
        for kind, count in robustness["fallback_kinds"].items():
            rows.append([f"  fallback: {kind}", count])
        rows.append(["flow reroutes", robustness["flow_reroutes"]])
        rows.append(
            [
                "migrated / stranded flows",
                f"{robustness['migrated_flows']} / "
                f"{robustness['stranded_flows']}",
            ]
        )
        if "anomalies" in robustness:
            rows.append(["watch anomalies", robustness["anomalies"]])
            for detector, count in robustness["anomaly_detectors"].items():
                rows.append([f"  anomaly: {detector}", count])
    truncated = summary.get("truncated")
    if truncated:
        rows.append(
            [
                "log truncated (evicted events)",
                sum(truncated["by_kind"].values()),
            ]
        )
    print(format_table(["metric", "value"], rows, title=f"obs summary: {args.log}"))
    return 0


def cmd_watch(args) -> int:
    import json as _json

    from .obs.watch import WatchLoop

    loop = WatchLoop()
    try:
        loop.replay_jsonl(args.log)
    except (OSError, ValueError) as exc:
        print(f"error: cannot replay {args.log}: {exc}", file=sys.stderr)
        return 1
    report = loop.report()
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
        return 0
    rows = [
        ["events replayed", report["events_seen"]],
        ["anomalies", len(report["anomalies"])],
    ]
    for anomaly, localization in zip(
        report["anomalies"][: args.top], report["localizations"][: args.top]
    ):
        rows.append(
            [
                f"{anomaly['detector']} @ {anomaly['t']:.4g}s",
                f"onset {anomaly['onset']:.4g}s "
                f"confidence {anomaly['confidence']:.2f}",
            ]
        )
        for candidate in localization["candidates"][:3]:
            rows.append(
                [
                    f"  {candidate['kind']}:{candidate['target']}",
                    f"score {candidate['score']:.2f}",
                ]
            )
    print(
        format_table(
            ["finding", "detail"], rows, title=f"watch replay: {args.log}"
        )
    )
    return 0


def cmd_aiops(args) -> int:
    import json as _json

    from .obs.watch import (
        MULTI_FAULT_KINDS,
        MULTI_PARADIGMS,
        MULTI_SMOKE_PARADIGMS,
        NoiseSpecError,
        aiops_score,
        parse_noise_spec,
        render_score,
    )

    if args.noise:
        try:
            parse_noise_spec(args.noise)
        except NoiseSpecError as exc:
            print(f"bad --noise spec: {exc}", file=sys.stderr)
            return 2
    paradigms = kinds = None
    if args.multi:
        kinds = MULTI_FAULT_KINDS
        paradigms = MULTI_SMOKE_PARADIGMS if args.smoke else MULTI_PARADIGMS
    report = aiops_score(
        paradigms=paradigms,
        kinds=kinds,
        scheduler=args.scheduler,
        mitigate=not args.no_mitigate,
        smoke=args.smoke and not args.multi,
        noise=args.noise,
        seed=args.seed,
    )
    if args.out:
        with open(args.out, "w") as handle:
            _json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"aiops score written to {args.out}")
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_score(report))
    return 0


def cmd_system(args) -> int:
    import json as _json

    from .system.runtime import (
        SCENARIO_NAMES,
        format_chaos_table,
        run_chaos_suite,
    )

    names = None
    if args.scenario:
        unknown = [n for n in args.scenario if n not in SCENARIO_NAMES]
        if unknown:
            print(
                f"unknown scenario(s) {', '.join(unknown)}; "
                f"options: {', '.join(SCENARIO_NAMES)}",
                file=sys.stderr,
            )
            return 2
        names = list(args.scenario)
    report = run_chaos_suite(
        smoke=args.smoke,
        seed=args.seed,
        inflation_bound=args.inflation_bound,
        names=names,
    )
    if args.out:
        with open(args.out, "w") as handle:
            _json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"chaos report written to {args.out}")
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_chaos_table(report))
    return 0 if report["ok"] else 1


def _render_whatif(result) -> str:
    """Human-readable summary of one what-if answer."""
    lines = [
        format_table(
            ["metric", "baseline", "variant", "delta"],
            [
                [
                    "makespan (s)",
                    f"{result.baseline_makespan:.4f}",
                    f"{result.variant_makespan:.4f}",
                    f"{result.makespan_delta:+.4f}",
                ],
            ],
            title=f"{result.query.describe()}  [{result.mode}, "
            f"t={result.time:.4f}s, {result.wall_clock * 1000:.0f}ms]",
        )
    ]
    jct_rows = []
    for job_id, triple in sorted(result.jct.items()):
        jct_rows.append(
            [
                job_id,
                "-" if triple["baseline"] is None else f"{triple['baseline']:.4f}",
                "-" if triple["variant"] is None else f"{triple['variant']:.4f}",
                "-" if triple["delta"] is None else f"{triple['delta']:+.4f}",
            ]
        )
    lines.append(
        format_table(["job", "JCT base", "JCT variant", "delta"], jct_rows)
    )
    moved = [
        (gid, t["delta"])
        for gid, t in result.tardiness.items()
        if t["delta"] is not None and abs(t["delta"]) > 1e-9
    ]
    if moved:
        moved.sort(key=lambda item: -abs(item[1]))
        lines.append(
            format_table(
                ["EchelonFlow group", "tardiness delta (s)"],
                [[gid, f"{delta:+.4f}"] for gid, delta in moved[:10]],
                title="groups whose tardiness moved",
            )
        )
    if result.added_jobs:
        lines.append("added jobs: " + ", ".join(result.added_jobs))
    if result.removed_jobs:
        lines.append("removed jobs: " + ", ".join(result.removed_jobs))
    return "\n".join(lines)


def cmd_whatif(args) -> int:
    import json as _json

    from .whatif import (
        WhatIfError,
        WhatIfQueryError,
        WhatIfService,
        parse_batch,
        parse_query,
    )

    if not args.batch and not args.query:
        print("error: give a query or --batch FILE", file=sys.stderr)
        return 1
    try:
        if args.batch:
            with open(args.batch) as handle:
                queries = parse_batch(handle.read())
        else:
            queries = [parse_query(args.query)]
    except OSError as exc:
        print(f"error: cannot read {args.batch}: {exc}", file=sys.stderr)
        return 1
    except WhatIfQueryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not queries:
        print("error: batch file contains no queries", file=sys.stderr)
        return 1

    service = WhatIfService.build(
        hosts=args.hosts,
        jobs=args.jobs,
        iterations=args.iterations,
        scheduler=args.scheduler,
    )
    detail = "deltas" if args.deltas_only else "full"
    results = []
    failures = 0
    for query in queries:
        try:
            results.append(service.run_query(query, mode=args.mode, detail=detail))
        except WhatIfError as exc:
            failures += 1
            print(f"error: {exc}", file=sys.stderr)
    if args.json:
        print(
            _json.dumps(
                [result.to_json() for result in results],
                indent=2,
                sort_keys=True,
                default=str,
            )
        )
    else:
        print(
            f"baseline: {args.jobs} jobs on {args.hosts} hosts, makespan "
            f"{service.baseline_makespan:.4f}s "
            f"(simulated in {service.baseline_wall_clock:.2f}s)"
        )
        for result in results:
            print()
            print(_render_whatif(result))
    return 1 if failures and not results else 0


def cmd_diagnose(args) -> int:
    import json as _json

    from .obs.diagnosis import RunArtifacts, diagnose, render_diagnosis

    try:
        artifacts = RunArtifacts.from_jsonl(args.log)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load {args.log}: {exc}", file=sys.stderr)
        return 1
    report = diagnose(artifacts, top=args.top)
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        print(render_diagnosis(report, top=args.top))
    return 0


def cmd_diff(args) -> int:
    import json as _json

    from .obs.diagnosis import RunArtifacts, diff_runs, render_diff

    try:
        run_a = RunArtifacts.from_jsonl(args.run_a)
        run_b = RunArtifacts.from_jsonl(args.run_b)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load event logs: {exc}", file=sys.stderr)
        return 1
    report = diff_runs(run_a, run_b, top=args.top)
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        print(render_diff(report, top=args.top))
    return 0


def cmd_schedulers(args) -> int:
    for name in scheduler_names():
        print(name)
    return 0


def cmd_models(args) -> int:
    for name in model_names():
        model = get_model(name)
        params_m = model.total_param_bytes / 4.0 / 1e6
        print(f"{name}: {model.num_layers} layers, {params_m:.1f}M parameters")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EchelonFlow (HotNets '22) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig2 = sub.add_parser("fig2", help="run the Fig. 2 motivating example")
    fig2.add_argument(
        "--obs-scheduler",
        choices=("fair", "sjf", "coflow", "sincronia", "echelon"),
        default="echelon",
        help="which scheduler's run the obs flags instrument",
    )
    _add_obs_flags(fig2)
    _add_check_flag(fig2)
    _add_faults_flag(fig2)

    table1 = sub.add_parser(
        "table1", help="reproduce the Table 1 compliance matrix"
    )
    table1.add_argument(
        "--obs-paradigm",
        choices=("DP-AllReduce", "DP-PS", "PP", "TP", "FSDP"),
        default="PP",
        help="which paradigm row the obs flags instrument",
    )
    table1.add_argument(
        "--obs-scheduler",
        choices=("fair", "coflow", "echelon"),
        default="echelon",
        help="which scheduler column the obs flags instrument",
    )
    _add_obs_flags(table1)
    _add_check_flag(table1)

    sub.add_parser("schedulers", help="list registered schedulers")
    sub.add_parser("models", help="list the model zoo")

    obs = sub.add_parser(
        "obs", help="summarize a saved JSONL observability log"
    )
    obs.add_argument("log", help="path to a JSONL log (from --events-out)")
    obs.add_argument("--json", action="store_true", help="dump raw JSON")

    watch = sub.add_parser(
        "watch",
        help="replay a saved JSONL log through the AIOps watch loop "
        "(streaming anomaly detection + root-cause localization)",
    )
    watch.add_argument("log", help="path to a JSONL log (from --events-out)")
    watch.add_argument("--json", action="store_true", help="dump raw JSON")
    watch.add_argument(
        "--top", type=int, default=10, help="anomalies to print (default 10)"
    )

    aiops = sub.add_parser(
        "aiops", help="AIOps watch-loop scoring (see docs/aiops.md)"
    )
    aiops_sub = aiops.add_subparsers(dest="aiops_command", required=True)
    score = aiops_sub.add_parser(
        "score",
        help="grade the watch loop against the chaos scenario suite: "
        "detection latency, localization accuracy, FP rate, recovered JCT",
    )
    score.add_argument(
        "--smoke",
        action="store_true",
        help="CI subset: pp/dp/ls fabrics, clean + link_down + degrade",
    )
    score.add_argument(
        "--scheduler",
        default="echelon",
        choices=scheduler_names(),
        help="scheduler under test (default echelon)",
    )
    score.add_argument(
        "--no-mitigate",
        action="store_true",
        help="skip the paired mitigation runs (faster; no recovered-JCT column)",
    )
    score.add_argument(
        "--multi",
        action="store_true",
        help="grade the multi-fault grid instead (concurrent faults, "
        "correlated flaps, cascades, hot-neighbour tenants; scored as "
        "per-fault precision/recall over claimed fault sets)",
    )
    score.add_argument(
        "--noise",
        metavar="SPEC",
        help="degrade the telemetry channel between engine and loop. "
        "SPEC is comma-separated key=value pairs: sample=K (keep 1-in-K "
        "link_sample/flow_rates events), drop=P (i.i.d. loss), "
        "burst=PxL (burst loss: gates at rate P, each burst eats L "
        "events), delay=S (delay with jitter up to S seconds, bounded "
        "reordering), dup=P (duplication), e.g. "
        "'sample=4,drop=0.1,burst=0.02x5,delay=0.001,dup=0.01'; "
        "'off' disables",
    )
    score.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="channel RNG seed; each scenario mixes in its name, so one "
        "seed reproduces the whole grid (default 0)",
    )
    score.add_argument("--json", action="store_true", help="dump raw JSON")
    score.add_argument(
        "--out", metavar="PATH", help="also write the report JSON to PATH"
    )

    system = sub.add_parser(
        "system", help="fault-tolerant control-plane runtime tools"
    )
    system_sub = system.add_subparsers(dest="system_command", required=True)
    chaos = system_sub.add_parser(
        "chaos",
        help="run the scored control-plane chaos suite: crash/partition/"
        "noise scenarios graded on completion, JCT inflation, "
        "determinism, and the baseline's pinned trace digest "
        "(see docs/control_plane.md)",
    )
    chaos.add_argument(
        "--smoke",
        action="store_true",
        help="CI subset: baseline + crash_coordinator + rpc_noise",
    )
    chaos.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="run only the named scenario(s); repeatable",
    )
    chaos.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="RPC channel RNG seed (default 0); the suite runs every "
        "scenario twice and asserts digest equality per (spec, seed)",
    )
    chaos.add_argument(
        "--inflation-bound",
        type=float,
        default=1.5,
        metavar="X",
        help="max tolerated per-job JCT inflation over the fault-free "
        "baseline (default 1.5)",
    )
    chaos.add_argument("--json", action="store_true", help="dump raw JSON")
    chaos.add_argument(
        "--out", metavar="PATH", help="also write the report JSON to PATH"
    )
    _add_check_flag(chaos)

    whatif = sub.add_parser(
        "whatif",
        help="warm-started counterfactual queries against a baseline "
        "cluster run (see docs/whatif.md)",
    )
    whatif.add_argument(
        "query",
        nargs="?",
        help="one query, e.g. 'kill_link:h0-core@40%%+10%%' or "
        "'submit_job:fsdp@25%%' ('%%' = fraction of baseline makespan)",
    )
    whatif.add_argument(
        "--batch",
        metavar="FILE",
        help="answer every query in FILE (one per line, # comments)",
    )
    whatif.add_argument("--hosts", type=int, default=16)
    whatif.add_argument("--jobs", type=int, default=8)
    whatif.add_argument(
        "--iterations", type=int, default=2, help="training iterations per job"
    )
    whatif.add_argument(
        "--scheduler", default="echelon", choices=scheduler_names()
    )
    whatif.add_argument(
        "--mode",
        choices=("warm", "cold"),
        default="warm",
        help="warm: fork the baseline and delta-resimulate (default); "
        "cold: replay from scratch (benchmark control)",
    )
    whatif.add_argument(
        "--deltas-only",
        action="store_true",
        help="skip the per-flow run-diff report (much faster on batches)",
    )
    whatif.add_argument("--json", action="store_true", help="dump raw JSON")

    diagnose = sub.add_parser(
        "diagnose",
        help="critical path, tardiness attribution, and contention blame "
        "from a saved JSONL event log",
    )
    diagnose.add_argument("log", help="path to a JSONL log (from --events-out)")
    diagnose.add_argument("--json", action="store_true", help="dump raw JSON")
    diagnose.add_argument(
        "--top", type=int, default=10, help="rows per section (default 10)"
    )

    diff = sub.add_parser(
        "diff",
        help="attribute the JCT delta between two event logs of the same "
        "workload under different schedulers",
    )
    diff.add_argument("run_a", metavar="RUN_A", help="baseline JSONL event log")
    diff.add_argument("run_b", metavar="RUN_B", help="comparison JSONL event log")
    diff.add_argument("--json", action="store_true", help="dump raw JSON")
    diff.add_argument(
        "--top", type=int, default=10, help="rows per section (default 10)"
    )

    run = sub.add_parser("run", help="run one training job")
    run.add_argument("--paradigm", choices=PARADIGMS, default="pp-gpipe")
    run.add_argument("--scheduler", default="echelon")
    run.add_argument("--model", default="bert_large")
    run.add_argument("--workers", type=int, default=4)
    run.add_argument("--micro-batches", type=int, default=4)
    run.add_argument("--iterations", type=int, default=1)
    run.add_argument("--bucket-mb", type=float, default=50.0)
    run.add_argument("--bandwidth-gbps", type=float, default=10.0)
    run.add_argument("--batch-scale", type=float, default=1.0)
    run.add_argument("--timeline", action="store_true", help="render ASCII Gantt")
    run.add_argument("--timeline-width", type=int, default=72)
    run.add_argument("--trace", help="write the trace to this path")
    run.add_argument(
        "--trace-format", choices=("json", "csv", "chrome"), default="json"
    )
    _add_obs_flags(run)
    _add_check_flag(run)
    _add_faults_flag(run)
    _add_watch_flags(run)

    matrix = sub.add_parser(
        "matrix", help="run the standard workload battery across schedulers"
    )
    matrix.add_argument(
        "--schedulers", default="fair,sjf,coflow,sincronia,echelon"
    )
    matrix.add_argument("--model", default=None)
    matrix.add_argument("--workers", type=int, default=4)
    matrix.add_argument("--micro-batches", type=int, default=4)
    matrix.add_argument("--bandwidth-gbps", type=float, default=10.0)
    matrix.add_argument("--batch-scale", type=float, default=1.0)
    matrix.add_argument(
        "--metric", choices=("comp_finish", "completion"), default="comp_finish"
    )
    matrix.add_argument(
        "--obs-case",
        default=None,
        help="battery case the obs flags instrument (default: first case)",
    )
    matrix.add_argument(
        "--obs-scheduler",
        default=None,
        help="scheduler the obs flags instrument (default: first listed)",
    )
    _add_obs_flags(matrix)
    _add_check_flag(matrix)

    run_spec = sub.add_parser(
        "run-spec", help="run a declarative JSON experiment spec"
    )
    run_spec.add_argument("spec", help="path to the JSON spec file")
    run_spec.add_argument("--json", action="store_true", help="also dump raw JSON")
    _add_obs_flags(run_spec)
    _add_check_flag(run_spec)
    _add_faults_flag(run_spec)

    cluster = sub.add_parser("cluster", help="dynamic multi-tenant cluster")
    cluster.add_argument("--scheduler", default="echelon")
    cluster.add_argument("--model", default="resnet50")
    cluster.add_argument("--jobs", type=int, default=16)
    cluster.add_argument("--rate", type=float, default=10.0)
    cluster.add_argument("--hosts", type=int, default=12)
    cluster.add_argument("--job-workers", type=int, default=4)
    cluster.add_argument("--bucket-mb", type=float, default=50.0)
    cluster.add_argument("--bandwidth-gbps", type=float, default=10.0)
    cluster.add_argument("--batch-scale", type=float, default=1.0)
    cluster.add_argument("--seed", type=int, default=0)
    _add_obs_flags(cluster)
    _add_check_flag(cluster)
    _add_faults_flag(cluster)
    _add_watch_flags(cluster)
    return parser


_COMMANDS = {
    "fig2": cmd_fig2,
    "table1": cmd_table1,
    "run": cmd_run,
    "run-spec": cmd_run_spec,
    "matrix": cmd_matrix,
    "cluster": cmd_cluster,
    "obs": cmd_obs,
    "watch": cmd_watch,
    "aiops": cmd_aiops,
    "system": cmd_system,
    "whatif": cmd_whatif,
    "diagnose": cmd_diagnose,
    "diff": cmd_diff,
    "schedulers": cmd_schedulers,
    "models": cmd_models,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _configure_check(args)
    status = _COMMANDS[args.command](args)
    return _finish_check(args, status)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
