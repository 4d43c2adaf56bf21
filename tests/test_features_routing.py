"""Tests for routing-feature aggregation and the feature registry/vectors."""

import numpy as np
import pytest

from repro.exceptions import FeatureError
from repro.features import (
    GRADE_OF_ROAD,
    SPEED,
    FeatureDefinition,
    FeatureDtype,
    FeatureKind,
    FeatureRegistry,
    RoutingFeatureComputer,
    aggregate_edges,
    default_registry,
    normalize_matrix,
    normalize_sequence,
)
from repro.roadnet import RoadGrade, RoadNetwork, TrafficDirection
from repro.trajectory import TrajectoryPoint


class TestAggregateEdges:
    def test_empty_rejected(self):
        with pytest.raises(FeatureError):
            aggregate_edges([])

    def test_dominant_by_length(self, micro_network):
        row = micro_network.edge_between(0, 1)      # NATIONAL, 18 m
        lane = micro_network.edge_between(0, 3)     # FEEDER, 5 m
        agg = aggregate_edges([(row, 900.0), (lane, 100.0)])
        assert agg.grade is RoadGrade.NATIONAL
        assert agg.road_name == "Row 0 Avenue"
        assert agg.width_m == pytest.approx(0.9 * 18.0 + 0.1 * 5.0)

    def test_zero_weight_edge_harmless(self, micro_network):
        row = micro_network.edge_between(0, 1)
        lane = micro_network.edge_between(0, 3)
        agg = aggregate_edges([(lane, 0.0), (row, 500.0)])
        assert agg.grade is RoadGrade.NATIONAL

    def test_direction_dominance(self, micro_network):
        one_way = micro_network.edge_between(1, 4)
        two_way = micro_network.edge_between(0, 1)
        agg = aggregate_edges([(one_way, 800.0), (two_way, 100.0)])
        assert agg.direction is TrafficDirection.ONE_WAY


class TestRoutingFeatureComputer:
    def test_from_samples(self, micro_network, projector):
        computer = RoutingFeatureComputer(micro_network)
        pts = [
            TrajectoryPoint(projector.to_point(i * 100.0, 3.0), i * 10.0)
            for i in range(11)
        ]
        features = computer.from_samples(pts)
        assert features.grade is RoadGrade.NATIONAL
        assert features.road_name == "Row 0 Avenue"

    def test_from_samples_needs_two_points(self, micro_network, projector):
        computer = RoutingFeatureComputer(micro_network)
        with pytest.raises(FeatureError):
            computer.from_samples([TrajectoryPoint(projector.to_point(0, 0), 0.0)])

    def test_between_points(self, micro_network, projector):
        computer = RoutingFeatureComputer(micro_network)
        features = computer.between_points(
            projector.to_point(0.0, 0.0), projector.to_point(1000.0, 0.0)
        )
        assert features.grade is RoadGrade.NATIONAL

    def test_between_points_cached(self, micro_network, projector):
        computer = RoutingFeatureComputer(micro_network)
        a = projector.to_point(0.0, 0.0)
        b = projector.to_point(1000.0, 0.0)
        assert computer.between_points(a, b) is computer.between_points(a, b)

    def test_between_points_follows_a_network_mutation(self, projector):
        network = RoadNetwork(projector)
        west = network.add_node(projector.to_point(0.0, 0.0)).node_id
        east = network.add_node(projector.to_point(1000.0, 0.0)).node_id
        north = network.add_node(projector.to_point(500.0, 300.0)).node_id
        for u, v in ((west, north), (north, east)):
            network.add_edge(
                u, v, RoadGrade.HIGHWAY, 28.0, TrafficDirection.TWO_WAY, "detour2"
            )
        computer = RoutingFeatureComputer(network)
        a = projector.to_point(0.0, 0.0)
        b = projector.to_point(1000.0, 0.0)
        assert computer.between_points(a, b).road_name == "detour2"
        network.add_edge(
            west, east, RoadGrade.NATIONAL, 18.0, TrafficDirection.TWO_WAY, "direct"
        )
        assert RoutingFeatureComputer(network).between_points(a, b).road_name == "direct"
        assert computer.between_points(a, b).road_name == "direct"

    def test_same_node_pair(self, micro_network, projector):
        computer = RoutingFeatureComputer(micro_network)
        a = projector.to_point(1.0, 1.0)
        b = projector.to_point(2.0, -1.0)
        features = computer.between_points(a, b)
        assert features.grade in (RoadGrade.NATIONAL, RoadGrade.FEEDER)


class TestRegistry:
    def test_default_registry_order(self):
        registry = default_registry()
        assert registry.keys()[:3] == ["grade_of_road", "road_width", "traffic_direction"]
        assert len(registry) == 6

    def test_speed_change_opt_in(self):
        assert len(default_registry(include_speed_change=True)) == 7

    def test_duplicate_key_rejected(self):
        registry = default_registry()
        with pytest.raises(FeatureError):
            registry.register(
                FeatureDefinition(SPEED, "X", FeatureKind.MOVING, FeatureDtype.NUMERIC)
            )

    def test_unknown_key_rejected(self):
        with pytest.raises(FeatureError):
            default_registry().get("nope")

    def test_kind_partition(self):
        registry = default_registry()
        assert registry.routing_keys() == [
            "grade_of_road", "road_width", "traffic_direction"
        ]
        assert registry.moving_keys() == ["speed", "stay_points", "u_turns"]

    def test_negative_weight_rejected(self):
        with pytest.raises(FeatureError):
            FeatureDefinition(
                "x", "X", FeatureKind.MOVING, FeatureDtype.NUMERIC, default_weight=-1.0
            )

    def test_contains(self):
        registry = default_registry()
        assert GRADE_OF_ROAD in registry
        assert "ghost" not in registry


class TestNormalization:
    def test_normalize_matrix_columns(self):
        m = np.array([[2.0, 10.0], [4.0, 0.0]])
        normalized = normalize_matrix(m)
        assert normalized[:, 0].tolist() == [0.5, 1.0]
        assert normalized[:, 1].tolist() == [1.0, 0.0]

    def test_zero_column_unchanged(self):
        m = np.array([[0.0], [0.0]])
        assert normalize_matrix(m).tolist() == [[0.0], [0.0]]

    def test_bad_shape_rejected(self):
        with pytest.raises(FeatureError):
            normalize_matrix(np.zeros(3))

    def test_normalize_sequence(self):
        assert normalize_sequence([2.0, 4.0]) == [0.5, 1.0]
        assert normalize_sequence([0.0, 0.0]) == [0.0, 0.0]
        assert normalize_sequence([]) == []
