"""Tests for Dijkstra/A*, cross-checked against networkx."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NoPathError
from repro.geo import GeoPoint, LocalProjector
from repro.roadnet import (
    RoadGrade,
    RoadNetwork,
    TrafficDirection,
    a_star,
    dijkstra,
    dijkstra_all,
    length_weight,
    travel_time_weight,
)


def to_networkx(network):
    g = nx.DiGraph()
    for node in network.nodes():
        g.add_node(node.node_id)
    for node in network.nodes():
        for edge, neighbor in network.out_edges(node.node_id):
            g.add_edge(node.node_id, neighbor, weight=edge.length_m)
    return g


class TestDijkstraMicro:
    def test_straight_line(self, micro_network):
        cost, path = dijkstra(micro_network, 0, 2)
        assert path == [0, 1, 2]
        assert cost == pytest.approx(1000.0, rel=1e-3)

    def test_respects_one_way(self, micro_network):
        # 7 -> 1 cannot go straight down the one-way column.
        cost, path = dijkstra(micro_network, 7, 1)
        assert 4 not in path or path.index(4) > path.index(1)
        assert cost > 1000.0

    def test_source_equals_target(self, micro_network):
        cost, path = dijkstra(micro_network, 3, 3)
        assert cost == 0.0
        assert path == [3]

    def test_unreachable_raises(self):
        projector = LocalProjector(GeoPoint(39.91, 116.40))
        net = RoadNetwork(projector)
        net.add_node(projector.to_point(0, 0))
        net.add_node(projector.to_point(1000, 0))
        with pytest.raises(NoPathError):
            dijkstra(net, 0, 1)

    def test_travel_time_prefers_fast_roads(self):
        # Two routes 0 -> 3: direct feeder (1000 m at 25 km/h) vs a dogleg
        # highway (1400 m at 100 km/h).  Time-weighting must take the dogleg.
        projector = LocalProjector(GeoPoint(39.91, 116.40))
        net = RoadNetwork(projector)
        net.add_node(projector.to_point(0, 0))       # 0
        net.add_node(projector.to_point(0, 700))     # 1
        net.add_node(projector.to_point(1000, 700))  # 2
        net.add_node(projector.to_point(1000, 0))    # 3
        net.add_edge(0, 3, RoadGrade.FEEDER, 5.0, TrafficDirection.TWO_WAY, "slow")
        net.add_edge(0, 1, RoadGrade.HIGHWAY, 28.0, TrafficDirection.TWO_WAY, "fast1")
        net.add_edge(1, 2, RoadGrade.HIGHWAY, 28.0, TrafficDirection.TWO_WAY, "fast2")
        net.add_edge(2, 3, RoadGrade.HIGHWAY, 28.0, TrafficDirection.TWO_WAY, "fast3")
        _, by_length = dijkstra(net, 0, 3, weight=length_weight)
        _, by_time = dijkstra(net, 0, 3, weight=travel_time_weight)
        assert by_length == [0, 3]
        assert by_time == [0, 1, 2, 3]


class TestAgainstNetworkx:
    def test_city_costs_match(self, city):
        g = to_networkx(city)
        rng = np.random.default_rng(11)
        ids = city.node_ids()
        for _ in range(25):
            src, dst = (int(i) for i in rng.choice(len(ids), size=2, replace=False))
            source, target = ids[src], ids[dst]
            cost, path = dijkstra(city, source, target)
            expected = nx.shortest_path_length(g, source, target, weight="weight")
            assert cost == pytest.approx(expected, rel=1e-9)
            assert path[0] == source and path[-1] == target
            # The returned path must be consistent with its cost.
            assert city.path_length_m(path) == pytest.approx(cost, rel=1e-9)

    def test_dijkstra_all_matches(self, city):
        g = to_networkx(city)
        source = city.node_ids()[0]
        ours = dijkstra_all(city, source)
        theirs = nx.single_source_dijkstra_path_length(g, source, weight="weight")
        assert set(ours) == set(theirs)
        for node, cost in theirs.items():
            assert ours[node] == pytest.approx(cost, rel=1e-9)

    def test_dijkstra_all_max_cost_prunes(self, city):
        source = city.node_ids()[0]
        full = dijkstra_all(city, source)
        pruned = dijkstra_all(city, source, max_cost=1_000.0)
        assert set(pruned) <= set(full)
        assert all(cost <= 1_000.0 for cost in pruned.values())
        assert len(pruned) < len(full)


class TestBoundedTreeReuse:
    """A search to bound b is exactly the part of a bound-B search within b.

    The map matcher relies on this to serve a smaller-bound request from a
    cached larger-bound tree, so the check is exact float equality.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        source=st.integers(min_value=0, max_value=10_000),
        large=st.floats(min_value=0.0, max_value=6_000.0),
        share=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_smaller_bound_is_a_prefix(self, city, source, large, share):
        node = city.node_ids()[source % city.node_count]
        small = large * share
        tree = dijkstra_all(city, node, max_cost=large)
        assert {n: d for n, d in tree.items() if d <= small} == dijkstra_all(
            city, node, max_cost=small
        )

    @settings(max_examples=40, deadline=None)
    @given(source=st.integers(min_value=0, max_value=10_000), data=st.data())
    def test_bound_equal_to_a_settled_cost(self, city, source, data):
        # Ties at the bound: b is exactly a cost the larger search settled.
        node = city.node_ids()[source % city.node_count]
        tree = dijkstra_all(city, node, max_cost=4_000.0)
        small = data.draw(st.sampled_from(sorted(tree.values())))
        assert {n: d for n, d in tree.items() if d <= small} == dijkstra_all(
            city, node, max_cost=small
        )


class TestAStar:
    def test_matches_dijkstra_cost(self, city):
        rng = np.random.default_rng(5)
        ids = city.node_ids()
        for _ in range(15):
            src, dst = (int(i) for i in rng.choice(len(ids), size=2, replace=False))
            d_cost, _ = dijkstra(city, ids[src], ids[dst])
            a_cost, a_path = a_star(city, ids[src], ids[dst])
            assert a_cost == pytest.approx(d_cost, rel=1e-9)
            assert city.path_length_m(a_path) == pytest.approx(a_cost, rel=1e-9)

    def test_travel_time_heuristic_admissible(self, city):
        ids = city.node_ids()
        v_max_ms = RoadGrade.HIGHWAY.free_flow_speed_kmh / 3.6
        d_cost, _ = dijkstra(city, ids[0], ids[-1], weight=travel_time_weight)
        a_cost, _ = a_star(
            city, ids[0], ids[-1], weight=travel_time_weight,
            heuristic_scale=1.0 / v_max_ms,
        )
        assert a_cost == pytest.approx(d_cost, rel=1e-9)
