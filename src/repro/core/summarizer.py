"""STMaker: the end-to-end partition-and-summarization facade.

``STMaker.train`` learns the historical knowledge (transfer network for
popular routes, historical feature map for regular moving behaviour) from a
training corpus of raw trajectories; ``STMaker.summarize`` then runs the
full pipeline of Fig. 3 on a single trajectory:

1. calibrate the raw trajectory into a symbolic trajectory;
2. extract routing and moving features per segment;
3. partition the symbolic trajectory (CRF potential + dynamic programming);
4. select the most irregular features per partition;
5. realize the summary text from the templates.

By default every stage degrades gracefully instead of failing: a stage
error triggers the stage's documented fallback and is recorded in the
summary's :class:`~repro.resilience.DegradationReport` (``strict=True``
restores raise-on-first-error).  ``STMaker.summarize_many`` adds per-item
error isolation, bounded retry, deadline budgets and a quarantine list on
top — see ``docs/ROBUSTNESS.md`` for the full degradation ladder — by
forwarding to the one batch runner in :mod:`repro.serving`, which runs
serially in the calling thread or on a sharded process pool
(element-wise identical results; ``docs/SERVING.md``) and settles every
item in the caller's process.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Iterable

from repro.calibration import AnchorCalibrator, CalibrationConfig
from repro.core.config import SummarizerConfig
from repro.core.partition import optimal_k_partition, optimal_partition
from repro.core.selection import FeatureSelector, PartitionAssessment
from repro.core.similarity import segment_similarities
from repro.core.templates import partition_sentence, summary_text
from repro.core.types import PartitionSpan, PartitionSummary, TrajectorySummary
from repro.exceptions import (
    CalibrationError,
    DeadlineExceeded,
    PartitionError,
    ReproError,
    TransientError,
    WorkerCrashError,
)
from repro.features import (
    GRADE_OF_ROAD,
    ROAD_WIDTH,
    TRAFFIC_DIRECTION,
    FeatureKind,
    FeaturePipeline,
    FeatureRegistry,
    RoutingFeatures,
    SegmentFeatures,
    default_registry,
    normalized_vectors,
)
from repro.landmarks import LandmarkIndex
from repro.obs import (
    TraceContext,
    emit_event,
    metrics,
    span,
    span_listener,
    use_trace,
    wall_clock_of,
)
from repro.resilience import (
    BatchProgress,
    BatchResult,
    Deadline,
    DegradationEvent,
    DegradationReport,
    ItemOutcome,
    LatencyBreakdown,
    QuarantineEntry,
    RetryPolicy,
)
from repro.roadnet import RoadGrade, RoadNetwork, TrafficDirection
from repro.routes import HistoricalFeatureMap, PopularRouteMiner, TransferNetwork
from repro.trajectory import (
    RawTrajectory,
    SanitizationReport,
    SanitizerConfig,
    SymbolicEntry,
    SymbolicTrajectory,
    sanitize_trajectory,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience import FaultInjector
    from repro.serving import (
        AdmissionController,
        AdmissionPolicy,
        CircuitBreaker,
        ItemOptions,
        ShardRetryPolicy,
    )


class STMaker:
    """Summarizes raw trajectories into short descriptive texts."""

    def __init__(
        self,
        network: RoadNetwork,
        landmarks: LandmarkIndex,
        transfers: TransferNetwork,
        feature_map: HistoricalFeatureMap,
        config: SummarizerConfig | None = None,
        registry: FeatureRegistry | None = None,
        calibrator: AnchorCalibrator | None = None,
        pipeline: FeaturePipeline | None = None,
    ) -> None:
        self.network = network
        self.landmarks = landmarks
        self.transfers = transfers
        self.feature_map = feature_map
        self.config = config or SummarizerConfig()
        self.registry = registry or default_registry()
        self.calibrator = calibrator or AnchorCalibrator(landmarks)
        self.pipeline = pipeline or FeaturePipeline(network, landmarks, self.registry)
        self.popular_routes = PopularRouteMiner(
            transfers, min_support=self.config.popular_route_min_support
        )
        self.selector = FeatureSelector(
            self.registry, self.config, self.pipeline,
            self.popular_routes, feature_map, landmarks,
        )
        #: Chaos hook: when set, consulted at every stage boundary.  Use
        #: :meth:`repro.resilience.FaultInjector.installed` to scope it.
        self.fault_injector: "FaultInjector | None" = None

    # -- training -----------------------------------------------------------------

    @classmethod
    def train(
        cls,
        network: RoadNetwork,
        landmarks: LandmarkIndex,
        training: Iterable[RawTrajectory],
        config: SummarizerConfig | None = None,
        registry: FeatureRegistry | None = None,
        calibrator: AnchorCalibrator | None = None,
        calibration_config: CalibrationConfig | None = None,
    ) -> "STMaker":
        """Build an STMaker whose historical knowledge comes from *training*.

        Every training trajectory is calibrated; its landmark transitions
        feed the transfer network (popular routes) and its per-segment
        moving features feed the historical feature map.  Trajectories that
        fail calibration (too far from every landmark) are skipped — real
        GPS corpora always contain some junk.
        """
        registry = registry or default_registry()
        calibrator = calibrator or AnchorCalibrator(landmarks, calibration_config)

        def calibrated() -> Iterable[tuple[RawTrajectory, SymbolicTrajectory]]:
            for raw in training:
                try:
                    yield raw, calibrator.calibrate(raw)
                except CalibrationError:
                    continue  # junk trajectory: real corpora contain them too

        return cls.train_calibrated(
            network, landmarks, calibrated(),
            config=config, registry=registry, calibrator=calibrator,
        )

    @classmethod
    def train_calibrated(
        cls,
        network: RoadNetwork,
        landmarks: LandmarkIndex,
        training: Iterable[tuple[RawTrajectory, SymbolicTrajectory]],
        config: SummarizerConfig | None = None,
        registry: FeatureRegistry | None = None,
        calibrator: AnchorCalibrator | None = None,
    ) -> "STMaker":
        """Like :meth:`train`, for trajectories already calibrated upstream."""
        registry = registry or default_registry()
        pipeline = FeaturePipeline(network, landmarks, registry)
        transfers = TransferNetwork()
        feature_map = HistoricalFeatureMap()
        n_trajectories = 0
        n_segments = 0
        with span("train"):
            for raw, symbolic in training:
                transfers.add_trajectory(symbolic)
                n_trajectories += 1
                for segment in symbolic.segments():
                    values, _ = pipeline.extract_moving(raw, segment)
                    feature_map.add_observation(
                        segment.start_landmark, segment.end_landmark, values
                    )
                    n_segments += 1
        m = metrics()
        m.counter("train.trajectories").inc(n_trajectories)
        m.counter("train.segments").inc(n_segments)
        return cls(
            network, landmarks, transfers, feature_map,
            config=config, registry=registry, calibrator=calibrator,
            pipeline=pipeline,
        )

    def with_config(self, config: SummarizerConfig) -> "STMaker":
        """A sibling STMaker sharing all trained state but using *config*.

        Cheap: the historical structures are shared, not copied.  Used by
        the parameter-sweep experiments (Fig. 10).  An installed
        ``fault_injector`` carries over too (shared, not copied — fire
        counters stay global across siblings), so chaos armed on a model
        is not silently disarmed by a config sweep.
        """
        sibling = STMaker(
            self.network, self.landmarks, self.transfers, self.feature_map,
            config=config, registry=self.registry, calibrator=self.calibrator,
            pipeline=self.pipeline,
        )
        sibling.fault_injector = self.fault_injector
        return sibling

    # -- summarization ---------------------------------------------------------------

    def summarize(
        self,
        raw: RawTrajectory,
        k: int | None = None,
        *,
        strict: bool = False,
        sanitize: bool = False,
        sanitizer_config: SanitizerConfig | None = None,
    ) -> TrajectorySummary:
        """Summarize one raw trajectory.

        With ``k=None`` the CRF-optimal partition is used (Sec. IV-C);
        otherwise the trajectory is split into exactly ``k`` partitions
        (Sec. IV-D).  A requested ``k`` larger than the number of segments
        is clamped — the finest possible granularity is one partition per
        segment.

        By default each stage failure triggers that stage's fallback and is
        recorded in ``summary.degradation``; :class:`TransientError` s
        propagate so callers can retry.  ``strict=True`` disables every
        fallback and raises on the first error; both modes run the same
        stage code.  ``sanitize=True`` runs
        :func:`repro.trajectory.sanitize_trajectory` before calibration
        and records a repaired input as the ``sanitize`` stage's
        ``cleaned_input`` event, strict or not.
        """
        with span("summarize", trajectory_id=raw.trajectory_id, k=k) as sp:
            report = DegradationReport()
            if sanitize:
                raw, cleaned = _sanitize(raw, sanitizer_config)
                if not cleaned.clean:
                    report.add(DegradationEvent(
                        "sanitize", "cleaned_input",
                        f"repaired input: {cleaned!r}",
                    ))
            summary = self._run_stages(raw, k, report, strict=strict)
        m = metrics()
        m.counter("summarize.calls").inc()
        m.histogram("summarize.latency_ms").observe(sp.duration_ms)
        m.histogram(
            "summarize.partitions", buckets=(1, 2, 3, 5, 8, 13, 21)
        ).observe(summary.partition_count)
        if summary.degradation.degraded:
            m.counter("resilience.degraded_summaries").inc()
        return summary

    def summarize_calibrated(
        self,
        raw: RawTrajectory,
        symbolic: SymbolicTrajectory,
        k: int | None = None,
    ) -> TrajectorySummary:
        """Summarize a trajectory whose calibration is already available.

        Runs the last four stages strictly (raise on the first error),
        exactly as ``summarize(raw, k, strict=True)`` would after
        calibrating *raw* into *symbolic*.
        """
        return self._run_stages(
            raw, k, DegradationReport(), strict=True, symbolic=symbolic
        )

    def summarize_many(
        self,
        trajectories: Iterable[RawTrajectory],
        k: int | None = None,
        *,
        sanitize: bool = True,
        sanitizer_config: SanitizerConfig | None = None,
        strict: bool = False,
        retry: RetryPolicy | None = None,
        deadline_s: float | None = None,
        sleeper: Callable[[float], None] = time.sleep,
        progress: Callable[[BatchProgress], None] | None = None,
        workers: int = 1,
        shard_size: int | None = None,
        executor: str = "thread",
        artifact: "str | None" = None,
        shard_retry: "ShardRetryPolicy | None" = None,
        breaker: "CircuitBreaker | bool | None" = None,
        admission: "AdmissionPolicy | AdmissionController | None" = None,
        tenant: str | None = None,
        priority: int = 0,
    ) -> BatchResult:
        """Summarize a batch with per-item error isolation.

        Each item is sanitized (on by default here — batches are the
        serving path), summarized, and retried with deterministic backoff
        when the failure is a :class:`TransientError`.  Items that still
        fail — including degradation failures and items not started before
        the ``deadline_s`` budget ran out — are quarantined, never raised,
        so one malformed trajectory cannot take down the batch.  With
        ``strict=True`` the first error raises instead (and no fallbacks
        run inside the items either).

        Every call is served by the one batch runner,
        :func:`repro.serving.run_sharded`.  ``executor`` is one of
        :data:`repro.serving.EXECUTORS`: ``"thread"`` (default) runs the
        batch serially in the calling thread, sharing this model's memory
        and one ``deadline_s`` clock; ``workers`` and ``shard_size`` are
        accepted and have no effect there.  ``"process"`` with
        ``workers > 1`` (or an explicit ``shard_size``) splits the batch
        into contiguous shards served by worker processes — true
        multi-core for the pure-Python CPU-bound pipeline — with
        element-wise identical results in input order, each shard with
        its own full ``deadline_s`` budget; workers rebuild the model
        from a city-model artifact (pass ``artifact=`` a path saved with
        :func:`repro.artifact.save_artifact` to reuse a published file,
        or leave it ``None`` to auto-publish this model to a session
        temp artifact).  The pool-shape options are validated for every
        call, serial included, before admission.

        Each item settles once, in this process, as its outcome arrives:
        the ``resilience.batch.*`` counters, the
        ``resilience.item.latency_ms`` histogram, the ``quarantine`` and
        ``item_end`` events, then progress.  A ``progress`` callback
        receives a :class:`BatchProgress` snapshot after every item; the
        live rate and ETA are also mirrored into the
        ``resilience.batch.items_per_s`` / ``.eta_s`` gauges and onto the
        event stream.

        Failure containment (``docs/ROBUSTNESS.md``): *shard_retry* bounds
        how the process executor retries/bisects shards lost to worker
        crashes, *breaker* (``True`` or a
        :class:`repro.serving.CircuitBreaker`) trips process shards to a
        degraded in-parent path under crash storms, and *admission* bounds
        the intake — over budget, it either raises
        :class:`~repro.exceptions.OverloadError` (``shed="reject"``) or
        serves the batch at a cheaper ``k`` (``shed="degrade"``), with
        *tenant*/*priority* consulted by per-tenant budgets and bypass.
        """
        from repro.serving import ItemOptions, run_sharded

        options = ItemOptions(
            k=k, sanitize=sanitize, sanitizer_config=sanitizer_config,
            strict=strict, retry=retry or RetryPolicy(),
            deadline_s=deadline_s, sleeper=sleeper,
        )
        return run_sharded(
            self, trajectories, options, progress=progress,
            workers=workers, shard_size=shard_size,
            executor=executor, artifact=artifact,
            shard_retry=shard_retry, breaker=breaker,
            admission=admission, tenant=tenant, priority=priority,
        )

    def _summarize_item(
        self,
        index: int,
        raw: RawTrajectory,
        options: "ItemOptions",
        *,
        deadline: Deadline,
        shard_id: int | None = None,
        trace: TraceContext | None = None,
    ) -> ItemOutcome:
        """One batch item end to end: sanitize, summarize, retry, quarantine.

        Called only from the one shard loop,
        :func:`repro.serving.executor.run_shard`, which every executor
        (serial included) runs — what makes ``workers=N`` element-wise
        identical to ``workers=1`` by construction.  Raises
        only in ``strict`` mode; otherwise every failure becomes the
        outcome's quarantine entry.  *shard_id* is pure provenance for
        that entry (``None`` on the serial path).  It only computes the
        outcome: the batch runner settles it in the caller's process
        (counters, latency histogram, ``quarantine`` and ``item_end``
        events), so a worker process records none of those.

        *deadline* is the task's clock of ``options.deadline_s``.  *trace*
        is the item's request identity: it is activated around the whole
        item, so every span recorded inside — in whichever process —
        carries its ``trace_id``, rooted at the ``item`` span opened here.
        A :class:`~repro.resilience.LatencyBreakdown` is always recorded
        and attached to the outcome.  It is read from the item's spans once
        the ``item`` span closes: ``total_s`` is that span, ``exec_s`` the
        sum of its ``attempt`` spans, ``stages_s`` its subtree summed per
        span name, and queue wait runs from ``trace.anchor_unix_s`` to the
        span's start.
        """
        breakdown = LatencyBreakdown(
            trace_id=trace.trace_id if trace is not None else None,
        )
        attempts = 0
        retries = 0
        sanitization = None
        summary = None
        error: ReproError | None = None
        if deadline.expired:
            picked_up_unix_s = time.time()
            error = DeadlineExceeded(
                f"batch deadline budget of {deadline.budget_s:g}s exhausted "
                f"before item {index}"
            )
        else:
            with use_trace(trace), span(
                "item", index=index, trajectory_id=raw.trajectory_id,
                shard_id=shard_id,
            ) as item_span:
                try:
                    with span_listener(breakdown.note_span):
                        if options.sanitize:
                            raw, sanitization = _sanitize(raw, options.sanitizer_config)
                        while True:
                            attempts += 1
                            try:
                                with span("attempt", attempt=attempts):
                                    summary = self.summarize(
                                        raw, k=options.k, strict=options.strict
                                    )
                                break
                            except TransientError as exc:
                                if attempts > options.retry.max_retries:
                                    raise
                                delay = options.retry.delay_s(attempts)
                                if delay >= deadline.remaining_s():
                                    raise  # backing off would blow the budget
                                metrics().counter("resilience.batch.retries").inc()
                                retries += 1
                                emit_event(
                                    "retry", trajectory_id=raw.trajectory_id,
                                    attempt=attempts, delay_s=delay,
                                    error=f"{type(exc).__name__}: {exc}",
                                )
                                if delay > 0.0:
                                    options.sleeper(delay)
                                    breakdown.backoff_s += delay
                except ReproError as exc:
                    if options.strict:
                        raise
                    item_span.set_tag("quarantined", True)
                    error = exc
            # Read once the item span has closed: every duration here is
            # a span's.
            picked_up_unix_s = wall_clock_of(item_span.start_s)
            breakdown.total_s = item_span.duration_ms / 1000.0
            breakdown.exec_s = breakdown.stages_s.get("attempt", 0.0)
        if trace is not None and trace.anchor_unix_s > 0.0:
            breakdown.queue_wait_s = max(
                0.0, picked_up_unix_s - trace.anchor_unix_s
            )
        breakdown.attempts = attempts
        if error is None:
            return ItemOutcome(
                index, summary, None, sanitization, retries, latency=breakdown,
            )
        return ItemOutcome(index, None, QuarantineEntry(
            index, raw.trajectory_id, type(error).__name__, str(error), attempts,
            total_duration_s=breakdown.total_s,
            shard_id=shard_id, latency=breakdown,
        ), sanitization, retries, latency=breakdown)

    def partition(
        self,
        symbolic: SymbolicTrajectory,
        segment_features: list[SegmentFeatures],
        k: int | None = None,
    ) -> list[PartitionSpan]:
        """The partition step alone (useful for analysis and tests)."""
        n_segments = len(segment_features)
        with span("partition", segments=n_segments, k=k):
            self._inject("partition", symbolic.trajectory_id)
            if n_segments != symbolic.segment_count:
                raise PartitionError(
                    f"{n_segments} feature rows for {symbolic.segment_count} segments"
                )
            if n_segments == 1:
                return [PartitionSpan(0, 0)]
            vectors = normalized_vectors(segment_features, self.registry)
            weights = [self.config.weight(key) for key in self.registry.keys()]
            similarities = segment_similarities(vectors.tolist(), weights)
            boundary_scores = [
                self.config.ca
                * self.landmarks.get(symbolic[i + 1].landmark).significance
                for i in range(n_segments - 1)
            ]
            if k is None:
                return optimal_partition(similarities, boundary_scores)
            k = max(1, min(k, n_segments))
            return optimal_k_partition(similarities, boundary_scores, k)

    # -- the stage pipeline and its fallbacks -------------------------------------

    def _run_stages(
        self,
        raw: RawTrajectory,
        k: int | None,
        report: DegradationReport,
        *,
        strict: bool,
        symbolic: SymbolicTrajectory | None = None,
    ) -> TrajectorySummary:
        """The five stages of Fig. 3, each with its fallback.

        A stage's :class:`ReproError` triggers that stage's fallback and is
        recorded in *report* (see docs/ROBUSTNESS.md) unless
        :func:`_propagates` says it must be raised.  A given *symbolic*
        skips calibration.
        """
        if symbolic is None:
            try:
                with span(
                    "calibrate", trajectory_id=raw.trajectory_id,
                    points=len(raw.points),
                ) as sp:
                    self._inject("calibrate", raw.trajectory_id)
                    symbolic = self.calibrator.calibrate(raw)
                    sp.set_tag("anchors", len(symbolic))
            except ReproError as exc:
                if _propagates(exc, strict):
                    raise
                symbolic = self._geometric_calibrate(raw)
                self._record(report, "calibrate", "geometric_anchors", exc)

        include_routing = True
        try:
            with span("extract", segments=symbolic.segment_count):
                self._inject("extract", raw.trajectory_id)
                segment_features = self.pipeline.extract(raw, symbolic)
        except ReproError as exc:
            if _propagates(exc, strict):
                raise
            segment_features = self._extract_moving_only(raw, symbolic)
            include_routing = False
            self._record(report, "extract", "moving_features_only", exc)

        try:
            spans = self.partition(symbolic, segment_features, k=k)
        except ReproError as exc:
            if _propagates(exc, strict):
                raise
            spans = [PartitionSpan(0, symbolic.segment_count - 1)]
            self._record(report, "partition", "single_partition", exc)

        def landmark_name(entry_index: int, default: str) -> str:
            try:
                return self.landmarks.get(symbolic[entry_index].landmark).name
            except ReproError:
                if strict:
                    raise
                return default

        partitions = []
        for i, part_span in enumerate(spans):
            is_first = i == 0
            try:
                with span("select", segments=part_span.segment_count) as sp:
                    self._inject("select", symbolic.trajectory_id)
                    assessment = self.selector.assess(
                        symbolic, segment_features, part_span,
                        include_routing=include_routing,
                    )
                    sp.set_tag("selected", len(assessment.selected))
            except ReproError as exc:
                if _propagates(exc, strict):
                    raise
                assessment = PartitionAssessment(part_span, [], [])
                self._record(report, "select", "no_features", exc)

            source = landmark_name(
                part_span.start_landmark_index, "origin of the trip"
            )
            destination = landmark_name(
                part_span.end_landmark_index, "destination"
            )
            try:
                with span("realize", selected=len(assessment.selected)):
                    self._inject("realize", symbolic.trajectory_id)
                    sentence = partition_sentence(
                        source, destination, assessment.selected,
                        self.registry, is_first,
                    )
            except ReproError as exc:
                if _propagates(exc, strict):
                    raise
                opener = "The car started from" if is_first else "Then it moved from"
                sentence = f"{opener} the {source} to the {destination}."
                self._record(report, "realize", "generic_sentence", exc)
            metrics().counter("realize.sentences").inc()
            partitions.append(PartitionSummary(
                part_span, source, destination,
                assessment.assessments, assessment.selected, sentence,
            ))
        return TrajectorySummary(
            raw.trajectory_id, summary_text(partitions), partitions, report
        )

    def _geometric_calibrate(
        self, raw: RawTrajectory, max_waypoints: int = 64
    ) -> SymbolicTrajectory:
        """Calibration fallback: snap waypoints to their nearest landmarks.

        Ignores route geometry entirely — each sampled waypoint simply
        adopts the closest landmark within a generous radius.  Cruder than
        anchor calibration but survives sparse, noisy, or partly off-map
        input.  Raises :class:`CalibrationError` when even this yields
        fewer than two anchors (e.g. fully off-map trajectories).
        """
        radius_m = max(500.0, 4.0 * self.calibrator.config.search_radius_m)
        step = max(1, len(raw) // max_waypoints)
        waypoints = list(raw.points[::step])
        if waypoints[-1] is not raw.points[-1]:
            waypoints.append(raw.points[-1])
        entries: list[SymbolicEntry] = []
        for point in waypoints:
            hit = self.landmarks.nearest(point.point, radius_m)
            if hit is None:
                continue
            landmark = hit[1]
            if entries and entries[-1].landmark == landmark.landmark_id:
                continue
            entries.append(SymbolicEntry(landmark.landmark_id, point.t))
        if len(entries) < 2:
            raise CalibrationError(
                f"trajectory {raw.trajectory_id!r} yields {len(entries)} "
                f"geometric anchor(s) within {radius_m:.0f} m; cannot summarize"
            )
        metrics().counter("resilience.geometric_calibrations").inc()
        return SymbolicTrajectory(entries, raw.trajectory_id)

    def _extract_moving_only(
        self, raw: RawTrajectory, symbolic: SymbolicTrajectory
    ) -> list[SegmentFeatures]:
        """Extraction fallback: moving features only, no map matching.

        Routing features get constant placeholder values so the partition
        matrix stays complete; the selector is told to skip routing
        assessments entirely, so the placeholders never reach the text.
        """
        placeholder = RoutingFeatures(RoadGrade.FEEDER, 0.0, TrafficDirection.TWO_WAY, "")
        routing_defaults = {
            GRADE_OF_ROAD: float(int(placeholder.grade)),
            ROAD_WIDTH: placeholder.width_m,
            TRAFFIC_DIRECTION: float(int(placeholder.direction)),
        }
        out = []
        for segment in symbolic.segments():
            values, moving = self.pipeline.extract_moving(raw, segment)
            for definition in self.registry:
                if definition.kind is FeatureKind.ROUTING:
                    values[definition.key] = routing_defaults.get(definition.key, 0.0)
            out.append(SegmentFeatures(segment, values, placeholder, moving))
        metrics().counter("resilience.moving_only_extractions").inc()
        return out

    def _inject(self, stage: str, trajectory_id: str | None = None) -> None:
        """Fault-injection hook: no-op unless an injector is installed.

        *trajectory_id* lets item-targeted specs
        (:class:`repro.resilience.FaultSpec` with ``trajectory_id=``)
        fire only for the poison item, deterministically under any
        shard scheduling.
        """
        injector = self.fault_injector
        if injector is not None:
            injector.before(stage, trajectory_id)

    def _record(
        self, report: DegradationReport, stage: str, fallback: str, exc: Exception
    ) -> None:
        report.add(DegradationEvent(
            stage, fallback, f"{type(exc).__name__}: {exc}"
        ))
        emit_event(
            "degradation", stage,
            fallback=fallback, reason=f"{type(exc).__name__}: {exc}",
        )
        m = metrics()
        m.counter(f"resilience.fallback.{stage}").inc()
        m.counter("resilience.fallbacks").inc()


def _propagates(exc: ReproError, strict: bool) -> bool:
    """Whether a stage error must propagate instead of taking the fallback.

    Every error does under *strict*.  A :class:`TransientError` always
    does: it is expected to succeed on retry (``summarize_many`` retries
    it), so degrading on it would permanently lose summary quality.  A
    :class:`WorkerCrashError` always does: a crash is item-fatal, and
    letting it reach the quarantine path keeps a serial run's verdict for
    a poison item identical to the supervised process pool's.
    """
    return strict or isinstance(exc, (TransientError, WorkerCrashError))


def _sanitize(
    raw: RawTrajectory, config: SanitizerConfig | None
) -> tuple[RawTrajectory, SanitizationReport]:
    """Run the sanitizer; a repaired input is announced as a ``sanitization`` event."""
    with span("sanitize", trajectory_id=raw.trajectory_id):
        raw, cleaned = sanitize_trajectory(raw, config)
    if not cleaned.clean:
        emit_event(
            "sanitization", "sanitize", raw.trajectory_id,
            dropped=cleaned.dropped_total, reordered=cleaned.reordered,
        )
    return raw, cleaned
