"""Per-segment feature extraction pipeline.

Given a raw trajectory and its calibrated symbolic trajectory, the pipeline
produces, for every trajectory segment, the numeric value of every
registered feature (``f(TS)`` in the paper) plus the by-products the
templates need.  Categorical features are encoded as their integer codes,
exactly as the paper assigns integers to categorical values.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import FeatureError, MapMatchError
from repro.features.base import (
    GRADE_OF_ROAD,
    ROAD_WIDTH,
    SPEED,
    SPEED_CHANGES,
    STAY_POINTS,
    TRAFFIC_DIRECTION,
    U_TURNS,
    FeatureKind,
    FeatureRegistry,
    default_registry,
)
from repro.features.moving import MovingFeatureExtractor, MovingFeatures
from repro.features.routing import RoutingFeatureComputer, RoutingFeatures
from repro.landmarks import LandmarkIndex
from repro.obs import metrics
from repro.roadnet import RoadNetwork
from repro.trajectory import (
    RawTrajectory,
    SymbolicTrajectory,
    TrajectoryPoint,
    TrajectorySegment,
)


@dataclass(frozen=True, slots=True)
class ExtractionContext:
    """What a user-defined feature extractor gets to look at.

    ``routing`` is ``None`` during historical-feature-map training, where
    only moving features are recorded; moving-feature extractors must not
    depend on it.
    """

    points: list[TrajectoryPoint]
    routing: RoutingFeatures | None
    moving: MovingFeatures
    network: RoadNetwork


@dataclass(frozen=True, slots=True)
class SegmentFeatures:
    """All feature values (and extraction by-products) of one segment."""

    segment: TrajectorySegment
    values: dict[str, float]
    routing: RoutingFeatures
    moving: MovingFeatures


class FeaturePipeline:
    """Extracts every registered feature for every segment of a trajectory."""

    def __init__(
        self,
        network: RoadNetwork,
        landmarks: LandmarkIndex,
        registry: FeatureRegistry | None = None,
        moving_extractor: MovingFeatureExtractor | None = None,
        routing_computer: RoutingFeatureComputer | None = None,
    ) -> None:
        self.network = network
        self.landmarks = landmarks
        self.registry = registry or default_registry()
        self.moving_extractor = moving_extractor or MovingFeatureExtractor(
            network.projector
        )
        self.routing_computer = routing_computer or RoutingFeatureComputer(network)

    def extract(
        self, raw: RawTrajectory, symbolic: SymbolicTrajectory
    ) -> list[SegmentFeatures]:
        """Feature values for every segment of *symbolic*."""
        out = [self.extract_segment(raw, seg) for seg in symbolic.segments()]
        metrics().counter("features.segments_extracted").inc(len(out))
        return out

    def extract_segment(
        self, raw: RawTrajectory, segment: TrajectorySegment
    ) -> SegmentFeatures:
        """Feature values for one segment.

        Moving features are computed on the raw samples inside the segment's
        time window; routing features come from map-matching those samples,
        falling back to the network shortest path between the two landmarks
        when the window is too sparse to match.
        """
        points = raw.slice_time(segment.t_start, segment.t_end)
        points = self._ensure_endpoints(points, segment)
        moving = self.moving_extractor.extract(points)
        routing = self._segment_routing(points, segment)
        values = self._encode(points, routing, moving)
        return SegmentFeatures(segment, values, routing, moving)

    def extract_moving(
        self, raw: RawTrajectory, segment: TrajectorySegment
    ) -> tuple[dict[str, float], MovingFeatures]:
        """Moving-feature values only (no map matching) for one segment.

        This is the fast path used when building the historical feature map
        over tens of thousands of training segments, where routing features
        are not needed.
        """
        points = raw.slice_time(segment.t_start, segment.t_end)
        points = self._ensure_endpoints(points, segment)
        moving = self.moving_extractor.extract(points)
        known: dict[str, float] = {
            SPEED: moving.speed_kmh,
            STAY_POINTS: float(moving.stay_count),
            U_TURNS: float(moving.u_turn_count),
            SPEED_CHANGES: float(moving.speed_change_count),
        }
        values: dict[str, float] = {}
        context: ExtractionContext | None = None
        for definition in self.registry:
            key = definition.key
            if definition.kind is not FeatureKind.MOVING:
                continue
            if key in known:
                values[key] = known[key]
                continue
            if definition.extractor is None:
                raise FeatureError(f"moving feature {key!r} has no extractor")
            if context is None:
                context = ExtractionContext(points, None, moving, self.network)
            values[key] = float(definition.extractor(context))
        return values, moving

    def hop_features(self, src_landmark: int, dst_landmark: int) -> RoutingFeatures:
        """Routing features of the presumed road connection of one hop.

        Used for popular-route segments, where no raw samples exist.
        """
        a = self.landmarks.get(src_landmark).point
        b = self.landmarks.get(dst_landmark).point
        return self.routing_computer.between_points(a, b)

    # -- internals -------------------------------------------------------------

    def _ensure_endpoints(
        self, points: list[TrajectoryPoint], segment: TrajectorySegment
    ) -> list[TrajectoryPoint]:
        """Guarantee at least two samples spanning the segment window.

        Sparse sampling can leave a window with fewer than two raw samples;
        the landmark anchor positions themselves then stand in, which keeps
        speed well-defined (landmark distance over segment duration).
        """
        if len(points) >= 2:
            return points
        start = TrajectoryPoint(
            self.landmarks.get(segment.start_landmark).point, segment.t_start
        )
        end = TrajectoryPoint(
            self.landmarks.get(segment.end_landmark).point, segment.t_end
        )
        if len(points) == 1:
            mid = points[0]
            if segment.t_start < mid.t < segment.t_end:
                return [start, mid, end]
        return [start, end]

    def _segment_routing(
        self, points: list[TrajectoryPoint], segment: TrajectorySegment
    ) -> RoutingFeatures:
        try:
            return self.routing_computer.from_samples(points)
        except (MapMatchError, FeatureError):
            return self.hop_features(segment.start_landmark, segment.end_landmark)

    def _encode(
        self,
        points: list[TrajectoryPoint],
        routing: RoutingFeatures,
        moving: MovingFeatures,
    ) -> dict[str, float]:
        """Numeric value of every registered feature, in registry order."""
        known: dict[str, float] = {
            GRADE_OF_ROAD: float(int(routing.grade)),
            ROAD_WIDTH: routing.width_m,
            TRAFFIC_DIRECTION: float(int(routing.direction)),
            SPEED: moving.speed_kmh,
            STAY_POINTS: float(moving.stay_count),
            U_TURNS: float(moving.u_turn_count),
            SPEED_CHANGES: float(moving.speed_change_count),
        }
        values = {}
        context: ExtractionContext | None = None
        for definition in self.registry:
            key = definition.key
            if key in known:
                values[key] = known[key]
                continue
            if definition.extractor is None:
                raise FeatureError(
                    f"feature {key!r} has no built-in extractor and no "
                    "user-defined one; see FeatureDefinition.extractor"
                )
            if context is None:
                context = ExtractionContext(points, routing, moving, self.network)
            values[key] = float(definition.extractor(context))
        return values
