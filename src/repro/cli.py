"""Command-line interface.

``stmaker demo`` builds a deterministic city scenario, simulates a trip and
prints its summaries at several granularities (the Fig. 6 experience);
``stmaker summarize`` runs the pipeline on a user-supplied CSV trajectory
recorded inside the synthetic city (with ``--sanitize``/``--strict``/
``--max-retries``/``--deadline`` resilience controls — see
``docs/ROBUSTNESS.md`` — ``--workers``/``--shard-size``/
``--executor`` sharded serving controls — see ``docs/SERVING.md`` — and
``--max-shard-retries``/``--breaker``/``--max-in-flight``/
``--max-queued-items``/``--shed-policy`` failure-containment controls);
``stmaker experiment``
regenerates any of the paper's evaluation figures from the command line;
``stmaker report`` summarizes a batch of simulated trips (optionally
sharded) and writes a joined :class:`~repro.obs.RunReport`
artifact (JSON + Markdown).

Every subcommand also takes the observability flags:

* ``-v``/``-vv`` — diagnostic logging to stderr (INFO / DEBUG);
* ``--trace`` — trace the pipeline and dump the span tree as JSON
  (stderr, or ``--trace-out FILE``);
* ``--trace-chrome FILE`` — write the trace as Chrome trace-event JSON
  (load it in Perfetto / ``chrome://tracing``; implies ``--trace``);
* ``--metrics-out FILE`` — write the metrics snapshot as JSON;
* ``--metrics-prom FILE`` — write the metrics in Prometheus text
  exposition format;
* ``--events-out FILE`` — stream pipeline events (stage start/end,
  degradation, retry, quarantine, sanitization, progress) as JSONL;
* ``--ops-port PORT`` — serve live ``/metrics``, ``/healthz``,
  ``/readyz``, ``/status`` and ``/events`` over HTTP while the command
  runs (``stmaker ops-serve`` keeps the surface up as a long-lived loop);
* ``--flight-dir DIR`` — run the black-box flight recorder; every
  quarantine/degradation dumps the recent event/span tail to DIR;
* ``--profile`` — print a cProfile report of the command to stderr.

Primary command output (summary text, experiment tables) stays on stdout;
diagnostics go through the ``repro.cli`` logger and stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import sys

from repro.exceptions import ReproError

logger = logging.getLogger("repro.cli")


def _build_scenario(seed: int, training: int):
    from repro.simulate import CityScenario, ScenarioConfig

    logger.info("building scenario (seed=%d, training trips=%d) ...", seed, training)
    return CityScenario.build(
        ScenarioConfig(seed=seed, n_training_trips=training)
    )


def _cmd_demo(args: argparse.Namespace) -> int:
    scenario = _build_scenario(args.seed, args.training)
    trip = scenario.simulate_trip(depart_time=args.hour * 3600.0)
    logger.info(
        "simulated trip: %d GPS samples, %d stop(s), %d U-turn(s)",
        len(trip.raw), len(trip.stops), len(trip.u_turns),
    )
    for k in (1, 2, 3):
        summary = scenario.stmaker.summarize(trip.raw, k=k)
        print(f"k = {k}:")
        print(f"  {summary.text}\n")

    if not args.no_map:
        from repro.viz import render_summary_map

        summary = scenario.stmaker.summarize(trip.raw, k=2)
        canvas = render_summary_map(
            scenario.network, trip.raw, summary, scenario.landmarks
        )
        print(canvas.text())
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.artifact import save_artifact

    scenario = _build_scenario(args.seed, args.training)
    info = save_artifact(scenario.stmaker, args.out, format=args.format)
    print(
        f"trained model written to {info.path} "
        f"({info.format}, {info.size_bytes} bytes, "
        f"fingerprint {info.fingerprint[:16]})"
    )
    return 0


def _progress_printer():
    """A ``summarize_many`` progress callback writing one line per item."""

    def callback(snapshot) -> None:
        print(f"progress: {snapshot.describe()}", file=sys.stderr)

    return callback


def _containment_kwargs(args: argparse.Namespace) -> dict:
    """Map the failure-containment flags to ``summarize_many`` kwargs.

    Returns ``{}``-valued defaults (``None``/``False``) when no flag was
    given, so flag-less invocations behave exactly as before.
    """
    from repro.serving import AdmissionPolicy, ShardRetryPolicy

    shard_retry = None
    if args.max_shard_retries is not None:
        shard_retry = ShardRetryPolicy(max_retries=args.max_shard_retries)
    admission = None
    if args.max_queued_items is not None or args.max_in_flight is not None:
        admission = AdmissionPolicy(
            max_queued_items=args.max_queued_items,
            max_in_flight_shards=args.max_in_flight,
            shed=args.shed_policy,
        )
    return {
        "shard_retry": shard_retry,
        "breaker": True if args.breaker else None,
        "admission": admission,
    }


def _add_pool_flags(
    parser: argparse.ArgumentParser, *, shard_size: bool = False
) -> None:
    """The batch pool-shape flags (``docs/SERVING.md``)."""
    group = parser.add_argument_group("serving")
    group.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes under --executor process (default: 1, "
        "serial; no effect under thread)",
    )
    if shard_size:
        group.add_argument(
            "--shard-size", type=int, default=None, metavar="N",
            help="items per shard under --executor process (shards even "
            "with --workers 1; no effect under thread)",
        )
    group.add_argument(
        "--executor", choices=["thread", "process"], default="thread",
        help="batch backend: 'thread' (default) runs the batch serially in "
        "the calling thread, 'process' shards it across worker processes "
        "serving from a city-model artifact",
    )


def _add_containment_flags(parser: argparse.ArgumentParser) -> None:
    """The failure-containment flag group (``docs/ROBUSTNESS.md``)."""
    group = parser.add_argument_group("failure containment")
    group.add_argument(
        "--max-shard-retries", type=int, default=None, metavar="N",
        help="retries for a shard lost to a worker crash before it is "
        "bisected down to the poison item (process executor; default: 2)",
    )
    group.add_argument(
        "--breaker", action="store_true",
        help="arm the process executor's circuit breaker: crash storms "
        "route shards to a degraded in-parent path until the pool recovers",
    )
    group.add_argument(
        "--max-in-flight", type=int, default=None, metavar="N",
        help="max shards in flight inside the pool at once (admission "
        "control; default: 2x workers)",
    )
    group.add_argument(
        "--max-queued-items", type=int, default=None, metavar="N",
        help="max items admitted per batch; over budget the --shed-policy "
        "applies (default: unbounded)",
    )
    group.add_argument(
        "--shed-policy", choices=["reject", "degrade"], default="reject",
        help="over budget: 'reject' fails fast with OverloadError, "
        "'degrade' serves the batch at k=1 (default: reject)",
    )


def _write_run_report(args: argparse.Namespace, summaries=(), batches=()) -> None:
    from repro import obs

    report = obs.build_run_report(
        summaries,
        batches=batches,
        registry=obs.metrics(),
        collector=obs.get_collector(),
    )
    json_path, md_path = report.write(args.report_out)
    logger.info("run report written to %s and %s", json_path, md_path)


def _cmd_summarize(args: argparse.Namespace) -> int:
    from repro.exceptions import SummarizationError
    from repro.resilience import RetryPolicy
    from repro.trajectory import read_trajectory_csv

    # Read the input before the (expensive) model build so malformed files
    # fail fast with a one-line diagnostic.
    trajectory = read_trajectory_csv(args.csv)
    logger.debug(
        "read %d points from %s (trajectory %s)",
        len(trajectory.points), args.csv, trajectory.trajectory_id,
    )
    if args.model:
        from repro.artifact import load_artifact

        logger.info("loading model from %s ...", args.model)
        stmaker, _ = load_artifact(args.model)
    else:
        stmaker = _build_scenario(args.seed, args.training).stmaker
    from repro import obs

    obs.mark_ready()  # model is warm; flip /readyz when --ops-port is up

    if args.strict:
        summary = stmaker.summarize(
            trajectory, k=args.k, strict=True, sanitize=args.sanitize
        )
        if args.report_out:
            _write_run_report(args, summaries=[summary])
    else:
        result = stmaker.summarize_many(
            [trajectory], k=args.k, sanitize=args.sanitize,
            retry=RetryPolicy(max_retries=args.max_retries),
            deadline_s=args.deadline,
            progress=_progress_printer() if args.progress else None,
            workers=args.workers, shard_size=args.shard_size,
            executor=args.executor,
            # A process pool can serve straight from the file the model
            # was loaded from instead of re-publishing it.
            artifact=(
                args.model
                if args.executor == "process" and args.model
                else None
            ),
            **_containment_kwargs(args),
        )
        if args.report_out:
            _write_run_report(args, batches=[result])
        if result.quarantined:
            entry = result.quarantined[0]
            raise SummarizationError(
                f"trajectory {entry.trajectory_id!r} quarantined after "
                f"{entry.attempts} attempt(s): {entry.error}"
            )
        summary = result.summaries[0]
        if args.sanitize and (report := result.sanitization[0]) and not report.clean:
            logger.info("input sanitized: %r", report)
        if summary.degradation.degraded:
            logger.warning(
                "summary degraded (stages: %s)",
                ", ".join(summary.degradation.stages()),
            )
    print(summary.text)
    return 0


def _simulate_trips(scenario, count: int, depart_hour, start: int = 0) -> list:
    """*count* simulated trips with the distinct ids ``test-<n>``.

    Trip *n* (numbered from *start*) departs at ``depart_hour(n)``
    o'clock.  ``simulate_trip`` numbers every call from 0, so the ids are
    set here; without them every trip of a batch would be ``test-0``.
    """
    trips = []
    for n in range(start, start + count):
        raw = scenario.simulate_trip(depart_time=depart_hour(n) * 3600.0).raw
        raw.trajectory_id = f"test-{n}"
        trips.append(raw)
    return trips


def _rotating_hour(n: int) -> float:
    """Departure hours of the serving loops: 06:00 onwards in 15-minute
    steps, wrapping after 16 hours."""
    return 6.0 + (n % 64) * 0.25


def _cmd_report(args: argparse.Namespace) -> int:
    from repro import obs

    scenario = _build_scenario(args.seed, args.training)
    obs.mark_ready()  # model is warm; flip /readyz when --ops-port is up
    trips = _simulate_trips(scenario, args.trips, lambda n: 8.0 + 0.2 * n)
    # The report joins metrics and traces, so both sinks must be live even
    # when the user did not pass --trace/--metrics-out (main() enabled them
    # in that case; these calls then reuse the active sinks).
    registry = obs.enable_metrics()
    collector = obs.get_collector() or obs.enable_tracing()
    logger.info("summarizing %d simulated trips ...", len(trips))
    result = scenario.stmaker.summarize_many(
        trips, k=args.k,
        progress=_progress_printer() if args.progress else None,
        workers=args.workers, shard_size=args.shard_size,
        executor=args.executor,
        **_containment_kwargs(args),
    )
    report = obs.build_run_report(
        batches=[result], registry=registry, collector=collector
    )
    json_path, md_path = report.write(args.out)
    print(report.to_markdown(), end="")
    print(f"\nrun report written to {json_path} and {md_path}", file=sys.stderr)
    return 0


def _cmd_ops_serve(args: argparse.Namespace) -> int:
    """A long-lived serving loop behind the live ops surface.

    Builds the scenario once, marks the surface ready, then keeps
    summarizing batches of simulated trips until ``--duration`` elapses
    (or forever, until Ctrl-C) — a self-contained way to exercise
    ``/metrics``, ``/status`` and the flight recorder against a process
    that is actually doing work.
    """
    import time as _time

    from repro import obs

    # The surface is the point of this command: metrics and events are
    # always on here, and the server was started by main() (--ops-port
    # is implied by the subcommand's --port).
    obs.enable_metrics()
    obs.enable_events()
    scenario = _build_scenario(args.seed, args.training)
    obs.mark_ready()
    server = obs.active_ops_server()
    if server is not None:
        print(f"ops surface listening on {server.url}", file=sys.stderr)
    started = _time.monotonic()
    batch = 0
    try:
        while args.duration is None or _time.monotonic() - started < args.duration:
            trips = _simulate_trips(
                scenario, args.trips, _rotating_hour, start=batch * args.trips
            )
            result = scenario.stmaker.summarize_many(
                trips, k=args.k, workers=args.workers, executor=args.executor,
            )
            batch += 1
            logger.info(
                "batch %d: ok=%d quarantined=%d",
                batch, result.ok_count, result.quarantined_count,
            )
            if args.duration is not None:
                remaining = args.duration - (_time.monotonic() - started)
                if remaining <= 0:
                    break
                _time.sleep(min(args.interval, max(remaining, 0.0)))
            elif args.interval > 0:
                _time.sleep(args.interval)
    except KeyboardInterrupt:
        logger.info("interrupted; shutting down ops loop")
    print(f"served {batch} batch(es)", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """The request front-end behind the live ops surface.

    Builds the scenario, starts a :class:`repro.server.SummarizationServer`,
    and pushes batches of simulated trips through it from a rotation of
    tenants — the ``ops-serve`` loop upgraded from driving
    ``summarize_many`` directly to going through the queue, admission,
    and hot caches, so ``/status`` shows the ``server`` block and
    ``/events`` the ``request_enqueued``/``request_done`` stream.
    """
    from repro import obs
    from repro.server import ServerConfig, SummarizationServer

    obs.enable_metrics()
    obs.enable_events()
    scenario = _build_scenario(args.seed, args.training)
    tenants = [f"tenant-{i}" for i in range(args.tenants)]
    config = ServerConfig(
        consumers=args.consumers,
        workers=args.workers,
        executor=args.executor,
        default_deadline_s=args.deadline,
        # The rotation's first tenant gets double weight, so the WRR
        # fairness machinery is visibly exercised on the event stream.
        tenant_weights={tenants[0]: 2} if len(tenants) > 1 else {},
    )
    server = SummarizationServer(scenario.stmaker, config)
    server.start()  # registers the /status "server" block, flips /readyz
    ops_server = obs.active_ops_server()
    if ops_server is not None:
        print(f"ops surface listening on {ops_server.url}", file=sys.stderr)
    handles = []
    try:
        for batch in range(args.requests):
            trips = _simulate_trips(
                scenario, args.trips, _rotating_hour, start=batch * args.trips
            )
            handles.append(server.submit(
                trips, tenant=tenants[batch % len(tenants)], k=args.k
            ))
        ok = quarantined = 0
        for handle in handles:
            result = handle.result(timeout=args.timeout)
            ok += result.ok_count
            quarantined += result.quarantined_count
    except KeyboardInterrupt:
        logger.info("interrupted; shutting down the request front-end")
        server.stop(drain=False)
        return 130
    finally:
        if server.running:
            server.stop()
    stats = server.stats()
    caches = server.caches
    print(
        f"served {stats['served']}/{stats['submitted']} request(s) from "
        f"{len(tenants)} tenant(s): ok={ok} quarantined={quarantined}",
        file=sys.stderr,
    )
    print(
        "hot caches: routes "
        f"{caches.routes.stats()['hit_rate']:.0%} hit rate, anchors "
        f"{caches.anchors.stats()['hit_rate']:.0%} hit rate",
        file=sys.stderr,
    )
    return 0 if stats["failed"] == 0 else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro import experiments as exp

    scenario = _build_scenario(args.seed, args.training)
    name = args.figure
    logger.info("running experiment %s (size=%d)", name, args.size)
    if name == "fig8":
        result = exp.run_time_of_day(scenario, trips_per_bin=args.size)
        print(exp.format_ff_table(
            result.bin_labels, result.ff_by_bin, result.feature_keys,
            "time bin", "Fig. 8 — feature frequency across the day",
        ))
    elif name == "fig9":
        result = exp.run_landmark_usage(scenario, n_trips=args.size)
        rows = [
            [f"top {i * 10}-{i * 10 + 10}%", share]
            for i, share in enumerate(result.decile_share)
        ]
        print(exp.format_table(
            ["significance group", "usage share"], rows,
            "Fig. 9 — landmark usage by significance decile",
        ))
    elif name == "fig10a":
        result = exp.run_feature_weight_sweep(scenario, n_trips=args.size)
        print(exp.format_ff_table(
            [f"w(Spe)={w}" for w in result.weights], result.ff_by_weight,
            result.feature_keys, "weight", "Fig. 10(a) — effect of feature weight",
        ))
    elif name == "fig10b":
        result = exp.run_partition_size_sweep(scenario, n_trips=args.size)
        print(exp.format_ff_table(
            [f"k={k}" for k in result.ks], result.ff_by_k,
            result.feature_keys, "k", "Fig. 10(b) — effect of partition size",
        ))
    elif name == "fig11":
        result = exp.run_user_study_experiment(scenario, n_summaries=args.size)
        rows = [[f"level {lvl}", share] for lvl, share in sorted(result.histogram.items())]
        print(exp.format_table(
            ["understanding", "fraction"], rows, "Fig. 11 — simulated user study",
        ))
    elif name == "fig12":
        result = exp.run_efficiency(scenario, n_trips=args.size)
        print(exp.format_table(
            ["|T| bucket", "mean ms"], result.by_size, "Fig. 12(a) — time vs |T|",
        ))
        print()
        print(exp.format_table(
            ["k", "mean ms"], result.by_k, "Fig. 12(b) — time vs k",
        ))
    else:  # pragma: no cover - argparse restricts choices
        raise ReproError(f"unknown figure {name!r}")
    return 0


def _cmd_obs_analyze(args: argparse.Namespace) -> int:
    from repro import obs

    spans = obs.load_spans(args.trace_file) if args.trace_file else []
    events = obs.load_events(args.events_file) if args.events_file else []
    if not spans and not events:
        raise ReproError(
            "nothing to analyze: pass --trace and/or --events artifacts "
            "(from --trace-out / --events-out / flight-recorder dumps)"
        )
    print(obs.render_analysis(spans, events, top=args.top))
    return 1 if args.check and obs.trace_problems(spans) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stmaker",
        description="STMaker trajectory summarization (ICDE 2015 reproduction)",
    )
    parser.add_argument("--seed", type=int, default=7, help="scenario seed")
    parser.add_argument(
        "--training", type=int, default=400, help="training corpus size"
    )

    # Observability flags, shared by every subcommand.
    obs_flags = argparse.ArgumentParser(add_help=False)
    group = obs_flags.add_argument_group("observability")
    group.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="diagnostic logging to stderr (-v INFO, -vv DEBUG)",
    )
    group.add_argument(
        "--trace", action="store_true",
        help="trace the pipeline and dump the span tree as JSON to stderr",
    )
    group.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write the JSON trace dump to FILE instead of stderr (implies --trace)",
    )
    group.add_argument(
        "--trace-chrome", metavar="FILE", default=None,
        help="write the trace as Chrome trace-event JSON to FILE "
        "(Perfetto-loadable; implies --trace)",
    )
    group.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="write the metrics snapshot as JSON to FILE",
    )
    group.add_argument(
        "--metrics-prom", metavar="FILE", default=None,
        help="write the metrics in Prometheus text exposition format to FILE",
    )
    group.add_argument(
        "--events-out", metavar="FILE", default=None,
        help="stream pipeline events (stage/degradation/retry/quarantine/"
        "sanitization/progress) as JSONL to FILE",
    )
    group.add_argument(
        "--ops-port", type=int, default=None, metavar="PORT",
        help="serve live /metrics, /healthz, /readyz, /status and /events "
        "on 127.0.0.1:PORT for the duration of the command (0 = ephemeral)",
    )
    group.add_argument(
        "--flight-dir", metavar="DIR", default=None,
        help="enable the black-box flight recorder; quarantines and "
        "degradations dump the recent event/span tail as JSONL into DIR",
    )
    group.add_argument(
        "--slo", action="append", metavar="SPEC", default=None,
        help="enforce a service-level objective while the command runs "
        "(repeatable; e.g. 'p95_ms=500' or 'success=0.99,window=60'); "
        "breaches emit slo_breach events and are summarized on stderr",
    )
    group.add_argument(
        "--profile", action="store_true",
        help="print a cProfile report of the command to stderr",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser(
        "demo", parents=[obs_flags],
        help="summarize a simulated trip at k=1,2,3",
    )
    demo.add_argument("--hour", type=float, default=8.5, help="departure hour")
    demo.add_argument(
        "--no-map", action="store_true", help="skip the ASCII route map"
    )
    demo.set_defaults(func=_cmd_demo)

    train = sub.add_parser(
        "train", parents=[obs_flags],
        help="train a model and save it as a city-model artifact",
    )
    train.add_argument("--out", default="stmaker-model.json", help="output path")
    train.add_argument(
        "--format", choices=["json", "binary"], default=None,
        help="artifact codec (default: by extension — *.json is JSON, "
        "anything else the compact binary format)",
    )
    train.set_defaults(func=_cmd_train)

    summ = sub.add_parser(
        "summarize", parents=[obs_flags],
        help="summarize a CSV trajectory",
    )
    summ.add_argument("csv", help="CSV file: latitude,longitude,timestamp")
    summ.add_argument("-k", type=int, default=None, help="partition count")
    summ.add_argument(
        "--model", default=None,
        help="trained model JSON (from 'stmaker train'); skips the rebuild, "
        "and --executor process serves from it",
    )
    resilience = summ.add_argument_group("resilience")
    resilience.add_argument(
        "--sanitize", action="store_true",
        help="clean the input (dedup/sort timestamps, clip teleports) first",
    )
    resilience.add_argument(
        "--strict", action="store_true",
        help="raise on the first stage error instead of degrading gracefully",
    )
    resilience.add_argument(
        "--max-retries", type=int, default=1, metavar="N",
        help="retries for transient stage errors (default: 1)",
    )
    resilience.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; the trajectory is quarantined when exceeded",
    )
    _add_pool_flags(summ, shard_size=True)
    _add_containment_flags(summ)
    summ.add_argument(
        "--progress", action="store_true",
        help="print live progress/throughput lines to stderr",
    )
    summ.add_argument(
        "--report-out", metavar="PREFIX", default=None,
        help="write a run report to PREFIX.json and PREFIX.md",
    )
    summ.set_defaults(func=_cmd_summarize)

    expe = sub.add_parser(
        "experiment", parents=[obs_flags],
        help="regenerate a paper figure",
    )
    expe.add_argument(
        "figure",
        choices=["fig8", "fig9", "fig10a", "fig10b", "fig11", "fig12"],
    )
    expe.add_argument("--size", type=int, default=50, help="workload size")
    expe.set_defaults(func=_cmd_experiment)

    rep = sub.add_parser(
        "report", parents=[obs_flags],
        help="summarize a batch of simulated trips and write a run report",
    )
    rep.add_argument("--trips", type=int, default=20, help="batch size")
    rep.add_argument("-k", type=int, default=None, help="partition count")
    _add_pool_flags(rep, shard_size=True)
    _add_containment_flags(rep)
    rep.add_argument(
        "--out", metavar="PREFIX", default="run-report",
        help="artifact prefix: writes PREFIX.json and PREFIX.md "
        "(default: run-report)",
    )
    rep.add_argument(
        "--progress", action="store_true",
        help="print live progress/throughput lines to stderr",
    )
    rep.set_defaults(func=_cmd_report)

    ops = sub.add_parser(
        "ops-serve", parents=[obs_flags],
        help="run a serving loop behind the live HTTP ops surface",
    )
    ops.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="ops surface port on 127.0.0.1 (default: 0, ephemeral)",
    )
    ops.add_argument(
        "--trips", type=int, default=5, help="simulated trips per batch"
    )
    ops.add_argument("-k", type=int, default=None, help="partition count")
    _add_pool_flags(ops)
    ops.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="pause between batches (default: 1.0)",
    )
    ops.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="stop after SECONDS (default: run until Ctrl-C)",
    )
    ops.set_defaults(func=_cmd_ops_serve)

    serve = sub.add_parser(
        "serve", parents=[obs_flags],
        help="run the request front-end (queue + hot caches) behind the "
        "live HTTP ops surface",
    )
    serve.add_argument(
        "--port", type=int, default=0, metavar="PORT",
        help="ops surface port on 127.0.0.1 (default: 0, ephemeral)",
    )
    serve.add_argument(
        "--requests", type=int, default=8, metavar="N",
        help="simulated requests to push through the server (default: 8)",
    )
    serve.add_argument(
        "--trips", type=int, default=5, help="simulated trips per request"
    )
    serve.add_argument(
        "--tenants", type=int, default=2, metavar="N",
        help="simulated tenants submitting round-robin (default: 2)",
    )
    serve.add_argument("-k", type=int, default=None, help="partition count")
    serve.add_argument(
        "--consumers", type=int, default=1, metavar="N",
        help="queue consumer threads (default: 1)",
    )
    _add_pool_flags(serve)
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-request deadline budget, counted from enqueue",
    )
    serve.add_argument(
        "--timeout", type=float, default=300.0, metavar="SECONDS",
        help="max wait for each response (default: 300)",
    )
    serve.set_defaults(func=_cmd_serve)

    obs_cmd = sub.add_parser(
        "obs",
        help="offline analysis of recorded observability artifacts",
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    analyze = obs_sub.add_parser(
        "analyze",
        help="reconstruct traces, critical paths, and latency tables "
        "from span/event artifacts",
    )
    # dest= keeps these clear of the run-command obs flags main() probes
    # with getattr (a file path in args.trace would read as --trace).
    analyze.add_argument(
        "--trace", dest="trace_file", metavar="FILE", default=None,
        help="span artifact: a --trace-out JSON dump, span JSONL, or a "
        "flight-recorder capture",
    )
    analyze.add_argument(
        "--events", dest="events_file", metavar="FILE", default=None,
        help="event artifact: a --events-out JSONL stream or a "
        "flight-recorder capture",
    )
    analyze.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="traces/items to show in the ranked sections (default: 10)",
    )
    analyze.add_argument(
        "--check", action="store_true",
        help="exit non-zero when any trace is malformed "
        "(multiple roots, duplicate span ids, parent cycles)",
    )
    analyze.set_defaults(func=_cmd_obs_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``stmaker`` console script."""
    from repro import obs

    args = build_parser().parse_args(argv)
    obs.configure_logging(getattr(args, "verbose", 0))

    trace_out = getattr(args, "trace_out", None)
    trace_chrome = getattr(args, "trace_chrome", None)
    want_trace = (
        getattr(args, "trace", False)
        or trace_out is not None
        or trace_chrome is not None
    )
    metrics_out = getattr(args, "metrics_out", None)
    metrics_prom = getattr(args, "metrics_prom", None)
    events_out = getattr(args, "events_out", None)
    report_out = getattr(args, "report_out", None)
    collector = obs.enable_tracing() if want_trace else None
    if want_trace or metrics_out or metrics_prom or report_out:
        obs.enable_metrics()
    if report_out and collector is None:
        # A run report joins stage times from the trace, so --report-out
        # turns tracing on even without an explicit --trace (no dump).
        obs.enable_tracing()
    event_sink = None
    if events_out:
        event_sink = obs.JsonlEventSink(events_out)
        obs.enable_events().subscribe(event_sink)
    slo_specs = getattr(args, "slo", None) or []
    slo = None
    if slo_specs:
        try:
            objectives = [obs.parse_slo(spec) for spec in slo_specs]
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        # Implies the event stream: objectives watch item_end events.
        bus = obs.enable_events()
        slo = bus.subscribe(obs.SLOEngine(objectives, bus=bus))
    flight_dir = getattr(args, "flight_dir", None)
    ops_port = getattr(args, "ops_port", None)
    if ops_port is None and args.command in ("ops-serve", "serve"):
        ops_port = args.port
    recorder = None
    if flight_dir is not None:
        recorder = obs.FlightRecorder(dump_dir=flight_dir)
    elif ops_port is not None:
        # Tail-only ring for /events: no triggers, no dumps.
        recorder = obs.FlightRecorder(capacity=1024, trigger_kinds=frozenset())
    if recorder is not None:
        obs.enable_events().subscribe(recorder)
    ops_server = None
    if ops_port is not None:
        # /metrics and /status need live sinks to be worth scraping (the
        # recorder above already turned the event stream on).
        obs.enable_metrics()
        ops_server = obs.start_ops_server(
            port=ops_port, recorder=recorder, slo=slo
        )
        logger.info("ops surface listening on %s", ops_server.url)
    profile_cm = (
        obs.profiled(limit=25)
        if getattr(args, "profile", False)
        else contextlib.nullcontext()
    )

    profile_report = None
    try:
        with profile_cm as profile_report:
            return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if profile_report is not None:
            print("--- cProfile report ---", file=sys.stderr)
            print(profile_report.text, file=sys.stderr)
        if collector is not None:
            if trace_out:
                try:
                    collector.export(trace_out)
                    logger.info("trace written to %s", trace_out)
                except OSError as exc:
                    print(f"error: cannot write trace: {exc}", file=sys.stderr)
            elif not trace_chrome:
                print(collector.to_json(), file=sys.stderr)
            if trace_chrome:
                try:
                    obs.write_chrome_trace(collector, trace_chrome)
                    logger.info("chrome trace written to %s", trace_chrome)
                except OSError as exc:
                    print(
                        f"error: cannot write chrome trace: {exc}", file=sys.stderr
                    )
        registry = obs.metrics()
        if isinstance(registry, obs.MetricsRegistry):
            if metrics_out:
                try:
                    registry.export(metrics_out)
                    logger.info("metrics snapshot written to %s", metrics_out)
                except OSError as exc:
                    print(f"error: cannot write metrics: {exc}", file=sys.stderr)
            if metrics_prom:
                try:
                    obs.write_prometheus(registry, metrics_prom)
                    logger.info("prometheus metrics written to %s", metrics_prom)
                except OSError as exc:
                    print(
                        f"error: cannot write prometheus metrics: {exc}",
                        file=sys.stderr,
                    )
        if event_sink is not None:
            event_sink.close()
            logger.info(
                "%d events written to %s", event_sink.written, events_out
            )
        if slo is not None:
            for entry in slo.snapshot()["objectives"]:
                breaches = entry.get("breaches", 0)
                if breaches:
                    print(
                        f"slo: objective {entry['objective']['name']!r} "
                        f"breached {breaches} time(s)",
                        file=sys.stderr,
                    )
        if ops_server is not None:
            obs.stop_ops_server()
        if flight_dir is not None and recorder.dump_paths:
            logger.info(
                "%d flight recorder dump(s) in %s",
                len(recorder.dump_paths), flight_dir,
            )
        # Dropping the bus detaches every sink subscribed to it.
        obs.disable_events()
        obs.disable_tracing()
        obs.disable_metrics()


if __name__ == "__main__":
    sys.exit(main())
