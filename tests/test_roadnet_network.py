"""Tests for the road-network graph structure and spatial queries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GeometryError, RoadNetworkError
from repro.geo import GeoPoint, LocalProjector
from repro.roadnet import RoadGrade, RoadNetwork, TrafficDirection
from tests.test_mapmatch_exactness import MidpointEdgeQuery

CENTER = GeoPoint(39.91, 116.40)


class TestConstruction:
    def test_add_node_autoassigns_ids(self):
        net = RoadNetwork(LocalProjector(CENTER))
        a = net.add_node(CENTER)
        b = net.add_node(GeoPoint(39.92, 116.41))
        assert (a.node_id, b.node_id) == (0, 1)

    def test_duplicate_node_id_rejected(self):
        net = RoadNetwork(LocalProjector(CENTER))
        net.add_node(CENTER, node_id=5)
        with pytest.raises(RoadNetworkError):
            net.add_node(CENTER, node_id=5)

    def test_edge_requires_existing_endpoints(self):
        net = RoadNetwork(LocalProjector(CENTER))
        net.add_node(CENTER)
        with pytest.raises(RoadNetworkError):
            net.add_edge(0, 99, RoadGrade.FEEDER, 5.0, TrafficDirection.TWO_WAY, "x")

    def test_self_loop_rejected(self):
        net = RoadNetwork(LocalProjector(CENTER))
        net.add_node(CENTER)
        with pytest.raises(RoadNetworkError):
            net.add_edge(0, 0, RoadGrade.FEEDER, 5.0, TrafficDirection.TWO_WAY, "x")

    def test_nonpositive_width_rejected(self):
        net = RoadNetwork(LocalProjector(CENTER))
        net.add_node(CENTER)
        net.add_node(GeoPoint(39.92, 116.41))
        with pytest.raises(RoadNetworkError):
            net.add_edge(0, 1, RoadGrade.FEEDER, 0.0, TrafficDirection.TWO_WAY, "x")

    def test_edge_length_computed(self):
        projector = LocalProjector(CENTER)
        net = RoadNetwork(projector)
        net.add_node(projector.to_point(0.0, 0.0))
        net.add_node(projector.to_point(300.0, 400.0))
        edge = net.add_edge(0, 1, RoadGrade.COUNTRY, 10.0, TrafficDirection.TWO_WAY, "x")
        assert edge.length_m == pytest.approx(500.0, rel=1e-6)

    def test_unknown_lookups_raise(self):
        net = RoadNetwork(LocalProjector(CENTER))
        with pytest.raises(RoadNetworkError):
            net.node(0)
        with pytest.raises(RoadNetworkError):
            net.edge(0)


class TestEdgeSemantics:
    def test_other_end(self, micro_network):
        edge = micro_network.edge_between(0, 1)
        assert edge.other_end(0) == 1
        assert edge.other_end(1) == 0
        with pytest.raises(RoadNetworkError):
            edge.other_end(42)

    def test_two_way_allows_both(self, micro_network):
        edge = micro_network.edge_between(0, 1)
        assert edge.allows(0, 1)
        assert edge.allows(1, 0)

    def test_one_way_allows_single_direction(self, micro_network):
        # Column 1 is one-way northbound: 1 -> 4 -> 7.
        assert micro_network.edge_between(1, 4) is not None
        assert micro_network.edge_between(4, 1) is None
        assert micro_network.edge_between(4, 7) is not None
        assert micro_network.edge_between(7, 4) is None


class TestTopology:
    def test_counts(self, micro_network):
        assert micro_network.node_count == 9
        assert micro_network.edge_count == 12

    def test_neighbors_respect_direction(self, micro_network):
        # Node 4 can reach 3, 5 (row) and 7 (one-way up), but not 1.
        assert sorted(micro_network.neighbors(4)) == [3, 5, 7]
        # Node 1 can reach 0, 2 and 4.
        assert sorted(micro_network.neighbors(1)) == [0, 2, 4]

    def test_degree_is_undirected(self, micro_network):
        assert micro_network.degree(4) == 4
        assert micro_network.degree(0) == 2

    def test_incident_edges(self, micro_network):
        names = {e.name for e in micro_network.incident_edges(4)}
        assert names == {"Row 1 Avenue", "Col 1 Lane"}

    def test_path_edges_and_length(self, micro_network):
        edges = micro_network.path_edges([0, 1, 4, 7])
        assert len(edges) == 3
        assert micro_network.path_length_m([0, 1, 4, 7]) == pytest.approx(1500.0, rel=1e-3)

    def test_path_edges_rejects_untraversable(self, micro_network):
        with pytest.raises(RoadNetworkError):
            micro_network.path_edges([7, 4])  # against the one-way


class TestSpatialQueries:
    def test_nearest_node(self, micro_network, projector):
        probe = projector.to_point(520.0, 480.0)  # near node 4 at ~(500, 500)
        node = micro_network.nearest_node(probe)
        assert node is not None
        assert node.node_id == 4

    def test_nearest_node_out_of_range(self, micro_network, projector):
        probe = projector.to_point(50_000.0, 50_000.0)
        assert micro_network.nearest_node(probe, max_radius_m=1_000.0) is None

    def test_nodes_within(self, micro_network, projector):
        probe = projector.to_point(0.0, 0.0)
        ids = {n.node_id for _, n in micro_network.nodes_within(probe, 600.0)}
        assert ids == {0, 1, 3}

    def test_nearest_edge(self, micro_network, projector):
        # 30 m north of the midpoint of edge 0-1.
        probe = projector.to_point(250.0, 30.0)
        hit = micro_network.nearest_edge(probe)
        assert hit is not None
        dist, edge = hit
        assert {edge.u, edge.v} == {0, 1}
        assert dist == pytest.approx(30.0, abs=0.5)

    def test_edges_near_radius(self, micro_network, projector):
        probe = projector.to_point(250.0, 30.0)
        names = {e.name for _, _, e in micro_network.edges_near(probe, 300.0)}
        assert "Row 0 Avenue" in names

    def test_edge_bearing(self, micro_network):
        edge = micro_network.edge_between(0, 1)
        bearing = micro_network.edge_bearing_deg(edge, 0)
        assert bearing == pytest.approx(90.0, abs=1.0)  # eastbound
        bearing_back = micro_network.edge_bearing_deg(edge, 1)
        assert bearing_back == pytest.approx(270.0, abs=1.0)

    def test_bounding_box_covers_grid(self, micro_network, projector):
        box = micro_network.bounding_box()
        assert box.contains(projector.to_point(500.0, 500.0))


class TestCachedIndexes:
    """``out_edges`` and ``edges_near`` answer from caches reset on mutation."""

    def test_queries_see_an_edge_added_after_the_first_query(self):
        projector = LocalProjector(CENTER)
        net = RoadNetwork(projector)
        net.add_node(projector.to_point(0.0, 0.0))
        net.add_node(projector.to_point(100.0, 0.0))
        net.add_node(projector.to_point(100.0, 3_000.0))
        net.add_edge(0, 1, RoadGrade.FEEDER, 5.0, TrafficDirection.TWO_WAY, "short")
        probe = projector.to_point(110.0, 100.0)
        assert [other for _, other in net.out_edges(1)] == [0]
        assert net.edges_near(probe, 50.0) == []
        # Far longer than the cached max edge length: its midpoint lies
        # ~1.4 km from the probe, beyond a scan sized by the stale maximum.
        long_edge = net.add_edge(1, 2, RoadGrade.FEEDER, 5.0, TrafficDirection.ONE_WAY, "long")
        assert [other for _, other in net.out_edges(1)] == [0, 2]
        assert net.out_edges(2) == ()
        assert [e for _, _, e in net.edges_near(probe, 50.0)] == [long_edge]

    def test_out_edges_is_an_immutable_shared_tuple(self, micro_network):
        out = micro_network.out_edges(4)
        assert isinstance(out, tuple)
        assert micro_network.out_edges(4) is out
        with pytest.raises(AttributeError):
            out.append(out[0])  # type: ignore[attr-defined]
        with pytest.raises(TypeError):
            out[0] = out[1]  # type: ignore[index]
        assert sorted(other for _, other in micro_network.out_edges(4)) == [3, 5, 7]

    def test_out_edges_of_unknown_node_raises(self, micro_network):
        with pytest.raises(RoadNetworkError):
            micro_network.out_edges(99)
        with pytest.raises(RoadNetworkError):
            RoadNetwork(LocalProjector(CENTER)).out_edges(0)

    def test_edges_near_on_edgeless_network(self):
        net = RoadNetwork(LocalProjector(CENTER))
        assert net.edges_near(CENTER, 100.0) == []
        net.add_node(CENTER)
        assert net.edges_near(CENTER, 100.0) == []

    def test_negative_radius_rejected(self, micro_network):
        with pytest.raises(GeometryError):
            micro_network.edges_near(CENTER, -1.0)


# Coordinates in metres: exact multiples of the 250 m cell, so that nodes
# and probes sit on cell boundaries, or anywhere in a 4 km square, so that
# edges span several cells.
_coord = st.one_of(
    st.integers(-8, 8).map(lambda k: k * 250.0),
    st.floats(-2_000.0, 2_000.0, allow_nan=False),
)
_xy = st.tuples(_coord, _coord)


@st.composite
def _networks(draw):
    """Node positions (metres) and the node-index pairs of the edges."""
    nodes = draw(st.lists(_xy, min_size=2, max_size=8, unique=True))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, len(nodes) - 1), st.integers(0, len(nodes) - 1))
        .filter(lambda pair: pair[0] != pair[1]),
        max_size=12,
    ))
    return nodes, pairs


class TestEdgesNearProperties:
    """The one-cell edge index answers exactly as the midpoint-grid scan."""

    @settings(max_examples=60, deadline=None)
    @given(
        _networks(),
        st.lists(_xy, min_size=1, max_size=4),
        st.lists(st.floats(0.0, 600.0), min_size=1, max_size=3),
    )
    def test_matches_midpoint_scan_and_sees_added_edges(self, graph, probes_xy, radii):
        nodes, pairs = graph
        projector = LocalProjector(CENTER)
        net = RoadNetwork(projector)
        for x, y in nodes + probes_xy:
            net.add_node(projector.to_point(x, y))
        for u, v in pairs:
            net.add_edge(u, v, RoadGrade.FEEDER, 5.0, TrafficDirection.TWO_WAY, "e")
        probes = [projector.to_point(x, y) for x, y in probes_xy]
        reference = MidpointEdgeQuery(net)
        for probe in probes:
            for radius in radii:
                assert net.edges_near(probe, radius) == reference.edges_near(probe, radius)
        # An edge from the first probe's own node: every cached radius must
        # drop its index and report it at distance 0.
        spur = net.add_edge(
            len(nodes), 0, RoadGrade.FEEDER, 5.0, TrafficDirection.TWO_WAY, "spur"
        )
        reference = MidpointEdgeQuery(net)
        for radius in radii:
            hits = net.edges_near(probes[0], radius)
            assert spur in [edge for _, _, edge in hits]
            assert hits == reference.edges_near(probes[0], radius)
