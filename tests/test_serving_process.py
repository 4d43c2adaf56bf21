"""Process-executor specifics: telemetry relay, artifact wiring, pre-checks.

The differential suite (``test_serving_differential.py``) already proves
``executor="process"`` element-wise identical to serial when run with
``SERVING_TEST_EXECUTOR=process``; this file pins what is *unique* to the
process path — worker telemetry merged across the pickle boundary, the
explicit-artifact workflow, and the fail-fast checks for state that
cannot cross a process boundary.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro

from repro import obs
from repro.exceptions import ConfigError
from repro.obs.metrics import MetricsRegistry
from repro.serving import EXECUTORS, ItemOptions, run_sharded


@pytest.fixture()
def stmaker(scenario):
    return scenario.stmaker


@pytest.fixture()
def trips(scenario):
    rng = np.random.default_rng(4321)
    return [
        t.raw
        for t in scenario.simulate_trips(8, depart_time=9 * 3600.0, rng=rng)
    ]


@pytest.fixture()
def clean_obs():
    yield
    obs.disable_metrics()
    obs.disable_tracing()
    obs.disable_events()


def _deterministic_view(snapshot: dict) -> dict:
    """Counters and non-timing histogram buckets — the series that must be
    bit-identical between serial and process-sharded runs (same filter as
    the shard differential in ``test_obs_aggregate.py``)."""
    out = {}
    for name, data in snapshot.items():
        if name.startswith("serving.") or name.startswith("artifact."):
            continue  # pool/artifact bookkeeping only exists when sharded
        if data["type"] == "counter":
            out[name] = ("counter", data["value"])
        elif data["type"] == "histogram":
            if "latency" in name or name.endswith("_ms"):
                out[name] = ("histogram", data["count"])
            else:
                out[name] = ("histogram", data["count"], dict(data["buckets"]))
    return out


class TestMergedTelemetry:
    def test_merged_metrics_equal_serial_registry(self, stmaker, trips, clean_obs):
        serial = obs.enable_metrics(MetricsRegistry())
        stmaker.summarize_many(trips, k=2)
        serial_view = _deterministic_view(serial.snapshot())
        obs.disable_metrics()

        merged = obs.enable_metrics(MetricsRegistry())
        stmaker.summarize_many(trips, k=2, workers=3, executor="process")
        merged_view = _deterministic_view(merged.snapshot())

        assert merged_view == serial_view
        assert merged_view["summarize.calls"] == ("counter", float(len(trips)))

    def test_worker_events_relayed_with_source(self, stmaker, trips, clean_obs):
        log = obs.EventLog()
        obs.enable_events().subscribe(log)
        stmaker.summarize_many(trips, k=2, workers=2, shard_size=4,
                               executor="process")

        shard_ends = log.events("shard_end")
        assert len(shard_ends) == 2
        # Worker-emitted events arrive through EventBus.relay: re-sequenced
        # on the parent bus, provenance preserved in relay_* payload keys.
        for event in shard_ends:
            assert event.payload["relay_source"].startswith("shard-")
        # Items settle in the parent as each shard folds in: one item_end
        # per trip, emitted locally, never relayed.
        item_ends = log.events("item_end")
        assert len(item_ends) == len(trips)
        for event in item_ends:
            assert "relay_source" not in event.payload
        # Parent-side lifecycle events are emitted locally, not relayed.
        (batch_start,) = log.events("batch_start")
        assert "relay_source" not in batch_start.payload
        assert len(log.events("progress")) == len(trips)

    def test_worker_spans_grafted_into_parent_trace(self, stmaker, trips, clean_obs):
        collector = obs.enable_tracing()
        stmaker.summarize_many(trips, k=2, workers=2, shard_size=4,
                               executor="process")
        spans = collector.to_dicts()
        names = [s["name"] for s in spans]
        assert names.count("shard") == 2
        assert names.count("summarize") == len(trips)
        assert "summarize_many" in names
        # Grafted span ids were remapped into the parent's id space: unique,
        # and every shard span's children resolve within the batch.
        ids = [s["span_id"] for s in spans]
        assert len(ids) == len(set(ids))


    def test_shard_rows_describe_the_latest_batch(self, stmaker, trips, clean_obs):
        """A sharded batch drops the per-shard gauges of the one before.

        Rows are not filtered by ``serving.shards``: supervisor bisection
        gives halves ids past the planned count, and those rows belong to
        the batch that bisected.
        """
        registry = obs.enable_metrics(MetricsRegistry())
        stmaker.summarize_many(trips[:4], k=2, workers=4, executor="process")
        second = stmaker.summarize_many(
            trips[:2], k=2, workers=2, executor="process"
        )
        serving = obs.build_run_report(batches=[second], registry=registry).serving
        assert serving["shard_count"] == 2
        assert [row["shard_id"] for row in serving["shards"]] == [0, 1]
        assert sum(row["items"] for row in serving["shards"]) == 2


class TestExplicitArtifact:
    def test_explicit_artifact_path_equals_serial(self, stmaker, trips, tmp_path):
        from repro.artifact import save_artifact

        info = save_artifact(stmaker, tmp_path / "model.stm")
        serial = stmaker.summarize_many(trips, k=2)
        parallel = stmaker.summarize_many(
            trips, k=2, workers=2, executor="process",
            artifact=str(tmp_path / "model.stm"),
        )
        assert [s.text for s in parallel.summaries] == [
            s.text for s in serial.summaries
        ]
        assert info.fingerprint  # the file the workers actually served from

    def test_artifact_with_thread_executor_rejected(self, stmaker, trips, tmp_path):
        with pytest.raises(ConfigError, match="executor='process'"):
            stmaker.summarize_many(
                trips, k=2, workers=2, artifact=str(tmp_path / "m.stm")
            )

    def test_unknown_executor_rejected(self, stmaker, trips):
        with pytest.raises(ConfigError, match="unknown executor"):
            stmaker.summarize_many(trips, k=2, workers=2, executor="ray")
        assert EXECUTORS == ("thread", "process")


class TestProcessPreChecks:
    def test_unpicklable_sleeper_rejected_fast(self, stmaker, trips):
        with pytest.raises(ConfigError, match="picklable sleeper"):
            run_sharded(
                stmaker, trips, ItemOptions(k=2, sleeper=lambda s: None),
                workers=2, executor="process",
            )

    def test_custom_feature_registry_rejected(self, scenario, trips):
        from repro.features import (
            FeatureDefinition,
            FeatureDtype,
            FeatureKind,
            default_registry,
        )

        registry = default_registry()
        registry.register(FeatureDefinition(
            key="custom_zeros",
            short_label="zeros",
            kind=FeatureKind.MOVING,
            dtype=FeatureDtype.NUMERIC,
            description="a custom extractor that cannot cross processes",
            extractor=lambda ctx: 0.0,
        ))
        custom = scenario.stmaker
        sibling = type(custom)(
            custom.network, custom.landmarks, custom.transfers,
            custom.feature_map, config=custom.config, registry=registry,
            calibrator=custom.calibrator,
        )
        with pytest.raises(ConfigError, match="custom feature"):
            sibling.summarize_many(trips, k=2, workers=2, executor="process")


class TestDefaultPoolShape:
    def test_run_sharded_and_summarize_many_default_to_one_worker(
        self, stmaker, trips, clean_obs
    ):
        """Both entry points default to ``workers=1``, so a process batch
        with no pool shape runs serially: neither emits a shard event."""
        bus = obs.enable_events()
        shard_events = []
        for call in (
            lambda: stmaker.summarize_many(trips[:2], k=2, executor="process"),
            lambda: run_sharded(
                stmaker, trips[:2], ItemOptions(k=2), executor="process"
            ),
        ):
            log = bus.subscribe(obs.EventLog())
            batch = call()
            bus.unsubscribe(log)
            assert batch.ok_count == 2
            shard_events.append(
                [e.kind for e in log if e.kind in ("shard_start", "shard_end")]
            )
        assert shard_events == [[], []]


#: A script with no ``if __name__ == "__main__"`` guard that runs two
#: process batches at module level: argv is the artifact and the pickled
#: trips; it prints each batch's verdict counts and live pool children.
UNGUARDED_SCRIPT = """
import json, multiprocessing, pickle, sys
from repro.artifact import load_artifact
stmaker, _ = load_artifact(sys.argv[1])
with open(sys.argv[2], "rb") as handle:
    trips = pickle.load(handle)
report = []
for _ in range(2):
    batch = stmaker.summarize_many(trips, k=2, workers=2, executor="process")
    report.append({
        "ok": batch.ok_count,
        "quarantined": len(batch.quarantined),
        "children": sorted(p.pid for p in multiprocessing.active_children()),
    })
print(json.dumps(report))
"""


class TestWarmPoolAcrossCalls:
    def test_unguarded_script_runs_two_process_batches(
        self, stmaker, trips, tmp_path
    ):
        """The second batch of a single-threaded script reuses the first
        batch's workers.  (A pool per call left the first pool's threads
        alive, so the second pool started under ``forkserver``, which
        re-imports the unguarded ``__main__`` in its workers.)"""
        from repro.artifact import save_artifact

        artifact = tmp_path / "model.stm"
        save_artifact(stmaker, artifact)
        trips_file = tmp_path / "trips.pkl"
        trips_file.write_bytes(pickle.dumps(trips[:4]))
        script = tmp_path / "two_batches.py"
        script.write_text(UNGUARDED_SCRIPT)
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        env.pop("REPRO_MP_START_METHOD", None)
        out, err = tmp_path / "stdout.txt", tmp_path / "stderr.txt"
        # Files, not pipes, and a process group of its own: whatever the
        # script leaves running can neither hold the test's pipes open nor
        # outlive the test.
        with out.open("w") as stdout, err.open("w") as stderr:
            script_run = subprocess.Popen(
                [sys.executable, str(script), str(artifact), str(trips_file)],
                env=env, cwd=tmp_path, stdout=stdout, stderr=stderr,
                start_new_session=True,
            )
        try:
            returncode = script_run.wait(timeout=300)
            leftovers = True
            for _ in range(100):
                try:
                    os.killpg(script_run.pid, 0)
                except ProcessLookupError:
                    leftovers = False
                    break
                time.sleep(0.1)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(script_run.pid, signal.SIGKILL)
        assert returncode == 0, err.read_text()
        first, second = json.loads(out.read_text().splitlines()[-1])
        for batch in (first, second):
            assert (batch["ok"], batch["quarantined"]) == (4, 0)
        assert len(first["children"]) == 2
        assert second["children"] == first["children"]
        assert not leftovers, "the script's workers outlived it"
