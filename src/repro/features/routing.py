"""Routing-feature extraction: grade of road, road width, traffic direction.

Routing features come from the digital map (paper Sec. III-A).  For an
*observed* trajectory segment they are aggregated over the edges found by
map matching, weighted by travelled length so a brushed intersection edge
cannot dominate.  For a *hypothetical* hop (e.g. a popular-route segment)
they are aggregated over the network shortest path between the two
landmarks — the roads the historical traffic is presumed to use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import FeatureError, NoPathError
from repro.geo import GeoPoint
from repro.mapmatch import HMMMapMatcher, MapMatchConfig
from repro.roadnet import RoadEdge, RoadGrade, RoadNetwork, TrafficDirection, dijkstra
from repro.trajectory import TrajectoryPoint


@dataclass(frozen=True, slots=True)
class RoutingFeatures:
    """Routing-feature values and template by-products for one segment."""

    grade: RoadGrade
    width_m: float
    direction: TrafficDirection
    #: Name of the length-dominant road (used in summary phrases).
    road_name: str


def aggregate_edges(weighted_edges: list[tuple[RoadEdge, float]]) -> RoutingFeatures:
    """Collapse length-weighted edges into one set of routing features.

    Grade and direction are the length-dominant category; width is the
    length-weighted mean; the road name is the name travelled the longest.
    Zero-weight touches (intersection brushes) get a tiny epsilon weight so
    a degenerate all-zero input still resolves deterministically.
    """
    if not weighted_edges:
        raise FeatureError("cannot aggregate an empty edge list")
    eps = 1e-9
    grade_weight: dict[RoadGrade, float] = {}
    direction_weight: dict[TrafficDirection, float] = {}
    name_weight: dict[str, float] = {}
    width_sum = 0.0
    total = 0.0
    for edge, weight in weighted_edges:
        w = max(weight, eps)
        grade_weight[edge.grade] = grade_weight.get(edge.grade, 0.0) + w
        direction_weight[edge.direction] = direction_weight.get(edge.direction, 0.0) + w
        name_weight[edge.name] = name_weight.get(edge.name, 0.0) + w
        width_sum += edge.width_m * w
        total += w
    grade = max(grade_weight, key=lambda g: (grade_weight[g], -int(g)))
    direction = max(direction_weight, key=lambda d: (direction_weight[d], -int(d)))
    name = max(name_weight, key=lambda n: (name_weight[n], n))
    return RoutingFeatures(grade, width_sum / total, direction, name)


@dataclass
class RoutingFeatureComputer:
    """Computes routing features for observed segments and landmark hops."""

    network: RoadNetwork
    match_config: MapMatchConfig = field(default_factory=MapMatchConfig)

    def __post_init__(self) -> None:
        self._matcher = HMMMapMatcher(self.network, self.match_config)

    def from_samples(self, points: list[TrajectoryPoint]) -> RoutingFeatures:
        """Routing features of an observed segment via map matching."""
        if len(points) < 2:
            raise FeatureError("need at least two samples to map-match a segment")
        result = self._matcher.match(points)
        return aggregate_edges(result.edge_traversals(self.network))

    def between_points(self, a: GeoPoint, b: GeoPoint) -> RoutingFeatures:
        """Routing features of the network shortest path from *a* to *b*.

        Used for hypothetical hops (popular-route segments).  Results are
        cached per coordinate pair on the network
        (:meth:`~repro.roadnet.RoadNetwork.hop_features`) because popular
        routes repeat heavily across a summary dataset; the network drops
        them when it mutates.
        """
        hop_cache = self.network.hop_features()
        key = (a.lat, a.lon, b.lat, b.lon)
        cached = hop_cache.get(key)
        if cached is not None:
            return cached
        node_a = self.network.nearest_node(a)
        node_b = self.network.nearest_node(b)
        if node_a is None or node_b is None:
            raise FeatureError("landmark lies too far from the road network")
        if node_a.node_id == node_b.node_id:
            edges = self.network.incident_edges(node_a.node_id)
            if not edges:
                raise FeatureError(f"isolated node {node_a.node_id}")
            features = aggregate_edges([(edges[0], edges[0].length_m)])
        else:
            try:
                _, path = dijkstra(self.network, node_a.node_id, node_b.node_id)
            except NoPathError as exc:
                raise FeatureError(
                    f"no road path between nodes {node_a.node_id} and {node_b.node_id}"
                ) from exc
            path_edges = self.network.path_edges(path)
            features = aggregate_edges([(e, e.length_m) for e in path_edges])
        hop_cache[key] = features
        return features
