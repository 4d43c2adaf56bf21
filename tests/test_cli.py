"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.simulate import CityScenario, ScenarioConfig
from repro.trajectory import write_trajectory_csv


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.seed == 7
        assert args.hour == 8.5

    def test_experiment_choices(self):
        args = build_parser().parse_args(["experiment", "fig9"])
        assert args.figure == "fig9"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_resilience_flag_defaults(self):
        args = build_parser().parse_args(["summarize", "x.csv"])
        assert args.sanitize is False
        assert args.strict is False
        assert args.max_retries == 1
        assert args.deadline is None

    def test_resilience_flags_parse(self):
        args = build_parser().parse_args([
            "summarize", "x.csv", "--sanitize", "--strict",
            "--max-retries", "3", "--deadline", "2.5",
        ])
        assert args.sanitize and args.strict
        assert args.max_retries == 3
        assert args.deadline == 2.5


class TestCommands:
    def test_demo_prints_summaries(self, capsys):
        code = main(["--training", "40", "demo"])
        out = capsys.readouterr().out
        assert code == 0
        assert "k = 1:" in out and "k = 3:" in out
        assert "The car started from" in out

    def test_summarize_csv(self, tmp_path, capsys):
        # Produce a CSV from the same seed the CLI will rebuild.
        scenario = CityScenario.build(ScenarioConfig(seed=7, n_training_trips=40))
        trip = scenario.simulate_trip(depart_time=10 * 3600.0)
        path = tmp_path / "trip.csv"
        write_trajectory_csv(trip.raw, path)
        code = main(["--training", "40", "summarize", str(path), "-k", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "The car started from" in out

    def test_train_then_summarize_with_model(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main(["--training", "40", "train", "--out", str(model_path)]) == 0
        assert model_path.exists()
        scenario = CityScenario.build(ScenarioConfig(seed=7, n_training_trips=40))
        trip = scenario.simulate_trip(depart_time=11 * 3600.0)
        csv_path = tmp_path / "trip.csv"
        write_trajectory_csv(trip.raw, csv_path)
        capsys.readouterr()
        code = main(["summarize", str(csv_path), "--model", str(model_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "The car started from" in out

    def test_error_reported_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,trajectory\n")
        code = main(["--training", "40", "summarize", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err
        assert "Traceback" not in err

    def test_unsummarizable_input_is_quarantined(self, tmp_path, capsys):
        # A trajectory far outside the scenario map cannot be calibrated
        # even by the geometric fallback; the batch layer quarantines it
        # and the CLI turns that into a one-line diagnostic.
        from repro.trajectory import RawTrajectory, TrajectoryPoint

        scenario = CityScenario.build(ScenarioConfig(seed=7, n_training_trips=40))
        projector = scenario.network.projector
        off_map = RawTrajectory(
            [
                TrajectoryPoint(
                    projector.to_point(90_000.0 + i * 50.0, 90_000.0), i * 5.0
                )
                for i in range(20)
            ],
            "offmap",
        )
        path = tmp_path / "offmap.csv"
        write_trajectory_csv(off_map, path)
        code = main(["--training", "40", "summarize", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "quarantined" in err
        assert "Traceback" not in err

    def test_strict_flag_raises_without_quarantine(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("91.5,116.3,100\n")
        code = main(["--training", "40", "summarize", str(bad), "--strict"])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "quarantined" not in err

    def test_nan_deadline_is_a_config_error(self, tmp_path, capsys):
        """Not an item quarantined as ``DeadlineExceeded``."""
        trip = tmp_path / "trip.csv"
        trip.write_text("39.910,116.400,0\n39.911,116.401,5\n")
        code = main([
            "--training", "40", "summarize", str(trip), "--deadline", "nan",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "deadline budget must be >= 0" in err
        assert "quarantined" not in err


class TestObservabilityFlags:
    def test_trace_and_metrics_out(self, tmp_path, capsys):
        import json

        scenario = CityScenario.build(ScenarioConfig(seed=7, n_training_trips=40))
        trip = scenario.simulate_trip(depart_time=10 * 3600.0)
        csv_path = tmp_path / "trip.csv"
        write_trajectory_csv(trip.raw, csv_path)
        metrics_path = tmp_path / "m.json"
        capsys.readouterr()

        code = main([
            "--training", "40", "summarize", str(csv_path),
            "--trace", "--metrics-out", str(metrics_path),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "The car started from" in captured.out

        # The trace dump lands on stderr as JSON with all five stage spans.
        trace = json.loads(captured.err[captured.err.index("{"):])
        names = {span["name"] for span in trace["spans"]}
        for stage in ("calibrate", "extract", "partition", "select", "realize"):
            assert stage in names

        # The metrics snapshot holds a healthy number of distinct series.
        snapshot = json.loads(metrics_path.read_text())
        assert len(snapshot) >= 8
        assert snapshot["summarize.calls"]["value"] == 1.0

    def test_trace_out_writes_file(self, tmp_path, capsys):
        import json

        scenario = CityScenario.build(ScenarioConfig(seed=7, n_training_trips=40))
        trip = scenario.simulate_trip(depart_time=10 * 3600.0)
        csv_path = tmp_path / "trip.csv"
        write_trajectory_csv(trip.raw, csv_path)
        trace_path = tmp_path / "trace.json"
        capsys.readouterr()

        code = main([
            "--training", "40", "summarize", str(csv_path),
            "--trace-out", str(trace_path),
        ])
        captured = capsys.readouterr()
        assert code == 0
        names = {s["name"] for s in json.loads(trace_path.read_text())["spans"]}
        assert "summarize" in names
        assert "{" not in captured.err  # dump went to the file, not stderr

    def test_obs_disabled_after_run(self, tmp_path, capsys):
        from repro import obs

        scenario = CityScenario.build(ScenarioConfig(seed=7, n_training_trips=40))
        trip = scenario.simulate_trip(depart_time=10 * 3600.0)
        csv_path = tmp_path / "trip.csv"
        write_trajectory_csv(trip.raw, csv_path)
        assert main(["--training", "40", "summarize", str(csv_path), "--trace"]) == 0
        capsys.readouterr()
        assert not obs.tracing_enabled()
        assert not obs.metrics_enabled()

    def test_verbose_flag_parses(self):
        args = build_parser().parse_args(["summarize", "x.csv", "-vv"])
        assert args.verbose == 2
        args = build_parser().parse_args(["demo"])
        assert args.verbose == 0 and args.trace is False

    def test_exporter_flags_parse(self):
        args = build_parser().parse_args([
            "summarize", "x.csv",
            "--trace-chrome", "t.json", "--metrics-prom", "m.prom",
            "--events-out", "e.jsonl", "--report-out", "run", "--progress",
        ])
        assert args.trace_chrome == "t.json"
        assert args.metrics_prom == "m.prom"
        assert args.events_out == "e.jsonl"
        assert args.report_out == "run"
        assert args.progress is True


class TestExporters:
    @pytest.fixture
    def csv_path(self, tmp_path):
        scenario = CityScenario.build(ScenarioConfig(seed=7, n_training_trips=40))
        trip = scenario.simulate_trip(depart_time=10 * 3600.0)
        path = tmp_path / "trip.csv"
        write_trajectory_csv(trip.raw, path)
        return path

    def test_chrome_trace_and_prometheus_files(self, csv_path, tmp_path, capsys):
        import json

        chrome_path = tmp_path / "trace.json"
        prom_path = tmp_path / "metrics.prom"
        code = main([
            "--training", "40", "summarize", str(csv_path),
            "--trace-chrome", str(chrome_path), "--metrics-prom", str(prom_path),
        ])
        captured = capsys.readouterr()
        assert code == 0
        trace = json.loads(chrome_path.read_text())
        assert isinstance(trace["traceEvents"], list) and trace["traceEvents"]
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert "summarize" in names
        assert "{" not in captured.err  # no raw span dump when only --trace-chrome
        prom = prom_path.read_text()
        assert "summarize_calls_total 1" in prom
        assert 'le="+Inf"' in prom

    def test_events_out_jsonl(self, csv_path, tmp_path, capsys):
        import json

        events_path = tmp_path / "events.jsonl"
        code = main([
            "--training", "40", "summarize", str(csv_path),
            "--events-out", str(events_path),
        ])
        capsys.readouterr()
        assert code == 0
        events = [json.loads(line) for line in events_path.read_text().splitlines()]
        assert events
        kinds = {e["kind"] for e in events}
        assert {"batch_start", "item_end", "batch_end"} <= kinds
        from repro import obs

        assert not obs.events_enabled()  # cleaned up after the run

    def test_report_out_writes_pair(self, csv_path, tmp_path, capsys):
        import json

        prefix = tmp_path / "run-report"
        code = main([
            "--training", "40", "summarize", str(csv_path),
            "--report-out", str(prefix),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "The car started from" in captured.out
        report = json.loads((tmp_path / "run-report.json").read_text())
        assert report["quality"]["summaries"] == 1
        assert report["metrics"], "report embeds the metrics snapshot"
        md = (tmp_path / "run-report.md").read_text()
        assert md.startswith("# STMaker run report")

    def test_progress_flag_prints_to_stderr(self, csv_path, capsys):
        code = main([
            "--training", "40", "summarize", str(csv_path), "--progress",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "progress:" in captured.err
        assert "items/s" in captured.err


class TestOpsSurface:
    def test_ops_flags_parse(self):
        args = build_parser().parse_args([
            "summarize", "x.csv", "--ops-port", "0", "--flight-dir", "fl",
        ])
        assert args.ops_port == 0
        assert args.flight_dir == "fl"
        args = build_parser().parse_args(["demo"])
        assert args.ops_port is None and args.flight_dir is None

    def test_ops_serve_parser_defaults(self):
        args = build_parser().parse_args(["ops-serve"])
        assert args.port == 0
        assert args.trips == 5
        assert args.duration is None
        assert args.interval == 1.0

    def test_summarize_with_ops_port_serves_and_tears_down(
        self, tmp_path, capsys, monkeypatch
    ):
        import urllib.request

        from repro import obs
        from repro.cli import _cmd_summarize

        scenario = CityScenario.build(ScenarioConfig(seed=7, n_training_trips=40))
        trip = scenario.simulate_trip(depart_time=10 * 3600.0)
        csv_path = tmp_path / "trip.csv"
        write_trajectory_csv(trip.raw, csv_path)
        scraped = {}
        original = _cmd_summarize

        def probing(args):
            # The server is up before the command body runs; scrape now.
            server = obs.active_ops_server()
            assert server is not None
            scraped["healthz"] = urllib.request.urlopen(
                server.url + "/healthz", timeout=5.0
            ).status
            code = original(args)
            # mark_ready() ran after the model build inside the command.
            scraped["readyz"] = urllib.request.urlopen(
                server.url + "/readyz", timeout=5.0
            ).status
            body = urllib.request.urlopen(
                server.url + "/metrics", timeout=5.0
            ).read().decode("utf-8")
            scraped["families"] = obs.parse_prometheus(body)
            return code

        monkeypatch.setattr("repro.cli._cmd_summarize", probing)
        # parser binds func=_cmd_summarize at build time, so go through a
        # rebuilt parser rather than main()'s default wiring
        from repro.cli import main as cli_main

        code = cli_main([
            "--training", "40", "summarize", str(csv_path), "--ops-port", "0",
        ])
        capsys.readouterr()
        assert code == 0
        assert scraped["healthz"] == 200
        assert scraped["readyz"] == 200
        assert "summarize_calls_total" in scraped["families"]
        assert obs.active_ops_server() is None, "server torn down after the run"

    def test_ops_serve_loop_runs_batches(self, capsys):
        from repro import obs
        from repro.cli import main as cli_main

        code = cli_main([
            "--training", "40", "ops-serve",
            "--duration", "0.1", "--interval", "0", "--trips", "1",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "ops surface listening on" in captured.err
        assert "served" in captured.err and "batch(es)" in captured.err
        assert obs.active_ops_server() is None
        assert not obs.metrics_enabled() and not obs.events_enabled()

    def test_flight_dir_dumps_on_quarantine(self, tmp_path, capsys):
        from repro.trajectory import RawTrajectory, TrajectoryPoint

        scenario = CityScenario.build(ScenarioConfig(seed=7, n_training_trips=40))
        projector = scenario.network.projector
        off_map = RawTrajectory(
            [
                TrajectoryPoint(
                    projector.to_point(90_000.0 + i * 50.0, 90_000.0), i * 5.0
                )
                for i in range(20)
            ],
            "offmap",
        )
        csv_path = tmp_path / "offmap.csv"
        write_trajectory_csv(off_map, csv_path)
        flight_dir = tmp_path / "flight"
        code = main([
            "--training", "40", "summarize", str(csv_path),
            "--flight-dir", str(flight_dir),
        ])
        capsys.readouterr()
        assert code == 1, "the quarantine still fails the command"
        dumps = list(flight_dir.glob("flight-*.jsonl"))
        assert dumps, "the quarantine left a flight-recorder dump"
        import json

        records = [json.loads(line) for line in dumps[0].read_text().splitlines()]
        assert records[0]["record"] == "flight"
        kinds = {r["kind"] for r in records if r["record"] == "event"}
        assert "quarantine" in kinds
        from repro import obs

        assert not obs.events_enabled(), "recorder detached with the bus"

    @pytest.mark.parametrize("flight", [False, True], ids=["tail", "flight-dir"])
    def test_ops_port_serves_event_tail_and_slo_block(
        self, flight, tmp_path, capsys, monkeypatch
    ):
        import json
        import urllib.request

        from repro import obs
        from repro.cli import _cmd_summarize

        scenario = CityScenario.build(ScenarioConfig(seed=7, n_training_trips=40))
        csv_path = tmp_path / "trip.csv"
        write_trajectory_csv(
            scenario.simulate_trip(depart_time=10 * 3600.0).raw, csv_path
        )
        scraped = {}

        def probing(args):
            code = _cmd_summarize(args)
            url = obs.active_ops_server().url
            for path in ("/events", "/status"):
                with urllib.request.urlopen(url + path, timeout=5.0) as resp:
                    scraped[path] = json.loads(resp.read())
            return code

        monkeypatch.setattr("repro.cli._cmd_summarize", probing)
        argv = [
            "--training", "40", "summarize", str(csv_path),
            "--ops-port", "0", "--slo", "p95_ms=5000",
        ]
        if flight:
            argv += ["--flight-dir", str(tmp_path / "flight")]
        code = main(argv)
        capsys.readouterr()
        assert code == 0
        kinds = [e["kind"] for e in scraped["/events"]["events"]]
        assert "batch_start" in kinds and "item_end" in kinds
        assert scraped["/status"]["slo"]["samples"] == 1
        assert obs.active_ops_server() is None and not obs.events_enabled()


class TestReportCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.trips == 20
        assert args.out == "run-report"
        assert args.progress is False

    def test_report_command_end_to_end(self, tmp_path, capsys):
        import json

        prefix = tmp_path / "rr"
        code = main([
            "--training", "40", "report", "--trips", "3",
            "--out", str(prefix), "--progress",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "# STMaker run report" in captured.out
        assert "progress:" in captured.err
        report = json.loads((tmp_path / "rr.json").read_text())
        assert report["quality"]["summaries"] == 3
        assert report["stages"], "report command runs with tracing enabled"
        stage_names = {s["name"] for s in report["stages"]}
        assert "summarize_many" in stage_names
        from repro import obs

        assert not obs.metrics_enabled() and not obs.tracing_enabled()

    def test_report_trips_have_distinct_ids(self, tmp_path, capsys):
        import json

        events_path = tmp_path / "events.jsonl"
        code = main([
            "--training", "40", "report", "--trips", "3",
            "--out", str(tmp_path / "rr"), "--events-out", str(events_path),
        ])
        capsys.readouterr()
        assert code == 0
        events = [json.loads(line) for line in events_path.read_text().splitlines()]
        item_ends = [e for e in events if e["kind"] == "item_end"]
        assert len(item_ends) == 3
        assert len({e["trajectory_id"] for e in item_ends}) == 3
