"""Feature selection by irregular rate (paper Sec. V).

A feature enters the summary of a partition only when its *irregular rate*
Γ_f(TP) clears the threshold η:

* **Routing features** (Sec. V-A) compare the partition's per-segment
  feature sequence against the same feature sequence on the most popular
  historical route between the partition endpoints, with an
  edit-distance-like measure whose substitution cost is the absolute
  difference for numeric features and 0/1 for categorical ones.
* **Moving features** (Sec. V-B) compare each segment's value against the
  regular value of the same landmark hop read off the historical feature
  map, averaging the normalized deviation over the partition.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SummarizerConfig
from repro.core.types import FeatureAssessment, PartitionSpan
from repro.exceptions import FeatureError
from repro.features import (
    GRADE_OF_ROAD,
    ROAD_WIDTH,
    SPEED,
    SPEED_CHANGES,
    STAY_POINTS,
    TRAFFIC_DIRECTION,
    U_TURNS,
    FeatureDtype,
    FeatureKind,
    FeaturePipeline,
    FeatureRegistry,
    RoutingFeatures,
    SegmentFeatures,
    normalize_sequence,
)
from repro.landmarks import LandmarkIndex
from repro.obs import metrics
from repro.roadnet import RoadGrade, TrafficDirection
from repro.routes import HistoricalFeatureMap, PopularRouteMiner
from repro.trajectory import SymbolicTrajectory


def routing_feature_distance(
    seq_a: list[float], seq_b: list[float], dtype: FeatureDtype
) -> float:
    """Edit-distance-like measure between two feature-value sequences.

    Insertions and deletions cost 1; a substitution costs ``|a - b|`` for
    numeric features (on normalized values) and 0/1 for categorical ones.
    Implemented as the standard O(n·m) dynamic program.
    """
    n, m = len(seq_a), len(seq_b)
    if n == 0:
        return float(m)
    if m == 0:
        return float(n)
    numeric = dtype is FeatureDtype.NUMERIC
    prev = [float(j) for j in range(m + 1)]
    for i, a in enumerate(seq_a, 1):
        # ``diag`` is cell (i-1, j-1), ``up`` cell (i-1, j), ``left`` (i, j-1).
        left = float(i)
        cur = [left]
        for b, diag, up in zip(seq_b, prev, prev[1:]):
            if numeric:
                sub_cost = abs(a - b)
            else:
                sub_cost = 0.0 if a == b else 1.0
            left = min(
                diag + sub_cost,  # substitution / match
                up + 1.0,         # deletion
                left + 1.0,       # insertion
            )
            cur.append(left)
        prev = cur
    return prev[m]


def routing_irregular_rate(
    observed: list[float],
    popular: list[float],
    dtype: FeatureDtype,
    weight: float,
) -> float:
    """Γ_f for a routing feature (Sec. V-A).

    Numeric sequences are normalized by their own maxima before the distance
    (the paper's ``norm``); categorical sequences compare raw category codes
    (see DESIGN.md — max-scaling category codes would corrupt the equality
    test of Eq. 7).
    """
    if not observed and not popular:
        return 0.0
    if dtype is FeatureDtype.NUMERIC:
        observed = normalize_sequence(observed)
        popular = normalize_sequence(popular)
    distance = routing_feature_distance(observed, popular, dtype)
    return weight * distance / max(len(observed), len(popular))


def moving_irregular_rate(
    observed: list[float], regular: list[float], weight: float
) -> float:
    """Γ_f for a moving feature (Sec. V-B).

    The normalization constant is the largest observed value on the
    partition, exactly as the paper specifies.  When the partition observes
    only zeros there is nothing to normalize against and the rate is 0 —
    the summary reports unusual *presence* of behaviour, never its absence
    (reporting "zero U-turns" whenever the regular value is a tiny positive
    mean would select rare-event features on almost every partition).
    """
    if len(observed) != len(regular):
        raise FeatureError(
            f"observed/regular length mismatch: {len(observed)} vs {len(regular)}"
        )
    if not observed:
        return 0.0
    scale = max(abs(v) for v in observed)
    if scale == 0.0:
        return 0.0
    total = sum(abs(o - r) / scale for o, r in zip(observed, regular))
    return weight * total / len(observed)


@dataclass(frozen=True, slots=True)
class PartitionAssessment:
    """All feature assessments of one partition plus the selected subset."""

    span: PartitionSpan
    assessments: list[FeatureAssessment]
    selected: list[FeatureAssessment]


class FeatureSelector:
    """Computes irregular rates and selects summary features per partition."""

    def __init__(
        self,
        registry: FeatureRegistry,
        config: SummarizerConfig,
        pipeline: FeaturePipeline,
        popular_routes: PopularRouteMiner,
        feature_map: HistoricalFeatureMap,
        landmarks: LandmarkIndex,
    ) -> None:
        self.registry = registry
        self.config = config
        self.pipeline = pipeline
        self.popular_routes = popular_routes
        self.feature_map = feature_map
        self.landmarks = landmarks

    # -- public API -------------------------------------------------------------

    def assess(
        self,
        symbolic: SymbolicTrajectory,
        segment_features: list[SegmentFeatures],
        span: PartitionSpan,
        include_routing: bool = True,
    ) -> PartitionAssessment:
        """Assess every registered feature on one partition.

        With ``include_routing=False`` routing features are skipped
        entirely — the moving-features-only mode the summarizer degrades to
        when map matching is unavailable for the trajectory.
        """
        segments = [segment_features[i] for i in span.segment_indexes()]
        popular_hops: list[RoutingFeatures] = []
        if include_routing:
            src = symbolic[span.start_landmark_index].landmark
            dst = symbolic[span.end_landmark_index].landmark
            popular_hops = self._popular_hops(src, dst)

        assessments = []
        for definition in self.registry:
            if definition.kind is FeatureKind.ROUTING:
                if not include_routing:
                    continue
                assessment = self._assess_routing(definition, segments, popular_hops)
            else:
                assessment = self._assess_moving(definition, symbolic, span, segments)
            assessments.append(assessment)
        selected = [
            a
            for a in assessments
            if a.irregular_rate >= self.config.irregular_threshold
        ]
        m = metrics()
        m.counter("selection.features_assessed").inc(len(assessments))
        m.counter("selection.features_selected").inc(len(selected))
        return PartitionAssessment(span, assessments, selected)

    # -- popular route ------------------------------------------------------------

    def _popular_hops(self, src: int, dst: int) -> list[RoutingFeatures]:
        """Routing features of each hop of the popular route from src to dst.

        When history records no route between the endpoints, the direct
        network path stands in — "most drivers drive straight there".
        """
        route = self.popular_routes.popular_route(src, dst)
        if route is None or len(route) < 2:
            route = [src, dst]
        hops = []
        for a, b in zip(route, route[1:]):
            try:
                hops.append(self.pipeline.hop_features(a, b))
            except FeatureError:
                continue  # unreachable hop: skip rather than abort the summary
        return hops

    # -- routing features ----------------------------------------------------------

    def _hop_value(self, definition, hop: RoutingFeatures) -> float | None:
        builtin = {
            GRADE_OF_ROAD: float(int(hop.grade)),
            ROAD_WIDTH: hop.width_m,
            TRAFFIC_DIRECTION: float(int(hop.direction)),
        }
        if definition.key in builtin:
            return builtin[definition.key]
        if definition.hop_value is not None:
            return float(definition.hop_value(hop))
        return None

    def _assess_routing(
        self,
        definition,
        segments: list[SegmentFeatures],
        popular_hops: list[RoutingFeatures],
    ) -> FeatureAssessment:
        observed_seq = [seg.values[definition.key] for seg in segments]
        popular_seq = [
            value
            for hop in popular_hops
            if (value := self._hop_value(definition, hop)) is not None
        ]
        if popular_seq:
            rate = routing_irregular_rate(
                observed_seq, popular_seq, definition.dtype,
                self.config.weight(definition.key),
            )
        else:
            rate = 0.0  # no basis for comparison: nothing irregular to report
        observed_rep = self._routing_representative(definition, observed_seq, segments)
        regular_rep = self._routing_regular_representative(definition, popular_seq)
        extras = self._routing_extras(definition, segments, popular_hops)
        return FeatureAssessment(
            definition.key, definition.kind, observed_rep, regular_rep, rate, extras
        )

    def _routing_representative(
        self, definition, observed_seq: list[float], segments: list[SegmentFeatures]
    ) -> float:
        if definition.dtype is FeatureDtype.CATEGORICAL:
            return _duration_weighted_mode(
                observed_seq, [s.segment.duration_s for s in segments]
            )
        durations = [s.segment.duration_s for s in segments]
        return _weighted_mean(observed_seq, durations)

    def _routing_regular_representative(
        self, definition, popular_seq: list[float]
    ) -> float:
        if not popular_seq:
            return 0.0
        if definition.dtype is FeatureDtype.CATEGORICAL:
            return _duration_weighted_mode(popular_seq, [1.0] * len(popular_seq))
        return sum(popular_seq) / len(popular_seq)

    def _routing_extras(
        self,
        definition,
        segments: list[SegmentFeatures],
        popular_hops: list[RoutingFeatures],
    ) -> dict[str, object]:
        extras: dict[str, object] = {}
        if definition.key == GRADE_OF_ROAD:
            dominant = max(
                segments, key=lambda s: s.segment.duration_s
            ).routing
            extras["observed_road_name"] = dominant.road_name
            extras["observed_grade"] = dominant.grade
            if popular_hops:
                longest = popular_hops[0]
                extras["regular_road_name"] = longest.road_name
                extras["regular_grade"] = _mode_grade(popular_hops)
        return extras

    # -- moving features -------------------------------------------------------------

    def _assess_moving(
        self,
        definition,
        symbolic: SymbolicTrajectory,
        span: PartitionSpan,
        segments: list[SegmentFeatures],
    ) -> FeatureAssessment:
        key = definition.key
        observed_seq = [seg.values[key] for seg in segments]
        regular_seq = []
        for seg in segments:
            regular = self.feature_map.regular_value(
                seg.segment.start_landmark, seg.segment.end_landmark, key
            )
            regular_seq.append(regular if regular is not None else seg.values[key])
        rate = moving_irregular_rate(
            observed_seq, regular_seq, self.config.weight(key)
        )
        if key in (STAY_POINTS, U_TURNS, SPEED_CHANGES):
            # Event counts add up across the partition.
            observed_rep = sum(observed_seq)
            regular_rep = sum(regular_seq)
        else:
            # Intensive quantities (speed, user-defined rates/fractions)
            # average over the partition, weighted by segment duration.
            durations = [s.segment.duration_s for s in segments]
            observed_rep = _weighted_mean(observed_seq, durations)
            regular_rep = _weighted_mean(regular_seq, durations)
        extras = self._moving_extras(key, segments)
        return FeatureAssessment(
            key, definition.kind, observed_rep, regular_rep, rate, extras
        )

    def _moving_extras(self, key: str, segments: list[SegmentFeatures]) -> dict[str, object]:
        extras: dict[str, object] = {}
        stay_points = [p for s in segments for p in s.moving.stay_points]
        u_turns = [u for s in segments for u in s.moving.u_turns]
        if stay_points:
            extras["stay_points"] = stay_points
            extras["stay_total_s"] = sum(p.duration_s for p in stay_points)
        if u_turns:
            extras["u_turns"] = u_turns
            extras["u_turn_places"] = [
                hit[1].name
                for u in u_turns
                if (hit := self.landmarks.nearest(u.location)) is not None
            ]
        return extras


def _weighted_mean(values: list[float], weights: list[float]) -> float:
    total_weight = sum(weights)
    if total_weight <= 0.0:
        return sum(values) / len(values) if values else 0.0
    return sum(v * w for v, w in zip(values, weights)) / total_weight


def _duration_weighted_mode(values: list[float], weights: list[float]) -> float:
    tally: dict[float, float] = {}
    for value, weight in zip(values, weights):
        tally[value] = tally.get(value, 0.0) + max(weight, 1e-9)
    return max(tally, key=lambda v: (tally[v], -v))


def _mode_grade(hops: list[RoutingFeatures]) -> RoadGrade:
    tally: dict[RoadGrade, int] = {}
    for hop in hops:
        tally[hop.grade] = tally.get(hop.grade, 0) + 1
    return max(tally, key=lambda g: (tally[g], -int(g)))
