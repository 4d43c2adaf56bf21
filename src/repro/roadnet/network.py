"""The road-network graph: nodes, attributed edges, spatial queries.

Edges are stored once with a :class:`TrafficDirection`; a two-way edge is
traversable in both directions, a one-way edge only from ``u`` to ``v``.
Node queries are served by a :class:`~repro.geo.GridIndex`, edge queries
(:meth:`RoadNetwork.edges_near`) by one edge index per query radius, and
``out_edges`` by a directed adjacency; all are built lazily on first use
and invalidated on mutation.  The map matcher's cache of bounded search
trees (:meth:`RoadNetwork.search_trees`) and the routing-feature memo of
landmark hops (:meth:`RoadNetwork.hop_features`) are two of these indexes.
Every mutation drops them all, and none is serialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Iterator

from repro.exceptions import GeometryError, RoadNetworkError
from repro.geo import (
    BoundingBox,
    GeoPoint,
    GridIndex,
    LocalProjector,
    segment_distance_xy,
)
from repro.geo.grid import CELL_SIZE_M
from repro.roadnet.types import RoadGrade, TrafficDirection

NodeId = int
EdgeId = int


@dataclass(frozen=True, slots=True)
class RoadNode:
    """An intersection or geometry vertex of the road network."""

    node_id: NodeId
    point: GeoPoint


@dataclass(frozen=True, slots=True)
class RoadEdge:
    """A road segment between two nodes, carrying the paper's road attributes."""

    edge_id: EdgeId
    u: NodeId
    v: NodeId
    grade: RoadGrade
    width_m: float
    direction: TrafficDirection
    name: str
    length_m: float

    def other_end(self, node: NodeId) -> NodeId:
        """The endpoint opposite *node*."""
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise RoadNetworkError(f"node {node} is not an endpoint of edge {self.edge_id}")

    def allows(self, src: NodeId, dst: NodeId) -> bool:
        """Whether traffic may traverse this edge from *src* to *dst*."""
        if src == self.u and dst == self.v:
            return True
        if src == self.v and dst == self.u:
            return self.direction is TrafficDirection.TWO_WAY
        return False


#: An edge with its projected endpoints, ``(ax, ay, bx, by, edge)``.
_EdgeEntry = tuple[float, float, float, float, RoadEdge]


@dataclass(slots=True)
class _Indexes:
    node_grid: GridIndex[NodeId] | None = None
    out_edges: dict[NodeId, tuple[tuple[RoadEdge, NodeId], ...]] | None = None
    edge_cells: dict[float, dict[tuple[int, int], list[_EdgeEntry]]] = field(
        default_factory=dict
    )
    search_trees: dict[NodeId, tuple[float, dict[NodeId, float]]] = field(
        default_factory=dict
    )
    hop_features: dict[tuple[float, float, float, float], object] = field(
        default_factory=dict
    )


class RoadNetwork:
    """A mutable road graph with attribute-carrying edges and spatial queries."""

    def __init__(self, projector: LocalProjector) -> None:
        self.projector = projector
        self._nodes: dict[NodeId, RoadNode] = {}
        self._edges: dict[EdgeId, RoadEdge] = {}
        self._adjacency: dict[NodeId, list[EdgeId]] = {}
        self._next_node_id = 0
        self._next_edge_id = 0
        self._indexes = _Indexes()

    # -- construction ------------------------------------------------------

    def add_node(self, point: GeoPoint, node_id: NodeId | None = None) -> RoadNode:
        """Add a node at *point*; auto-assigns an id unless one is given."""
        if node_id is None:
            node_id = self._next_node_id
        if node_id in self._nodes:
            raise RoadNetworkError(f"duplicate node id {node_id}")
        node = RoadNode(node_id, point)
        self._nodes[node_id] = node
        self._adjacency[node_id] = []
        self._next_node_id = max(self._next_node_id, node_id + 1)
        self._indexes = _Indexes()
        return node

    def add_edge(
        self,
        u: NodeId,
        v: NodeId,
        grade: RoadGrade,
        width_m: float,
        direction: TrafficDirection,
        name: str,
        edge_id: EdgeId | None = None,
    ) -> RoadEdge:
        """Add an edge between existing nodes *u* and *v*."""
        if u not in self._nodes or v not in self._nodes:
            raise RoadNetworkError(f"edge endpoints must exist: {u}, {v}")
        if u == v:
            raise RoadNetworkError(f"self-loop edges are not allowed (node {u})")
        if width_m <= 0.0:
            raise RoadNetworkError(f"road width must be positive, got {width_m}")
        if edge_id is None:
            edge_id = self._next_edge_id
        if edge_id in self._edges:
            raise RoadNetworkError(f"duplicate edge id {edge_id}")
        length = self.projector.distance_m(self._nodes[u].point, self._nodes[v].point)
        edge = RoadEdge(edge_id, u, v, grade, width_m, direction, name, length)
        self._edges[edge_id] = edge
        self._adjacency[u].append(edge_id)
        self._adjacency[v].append(edge_id)
        self._next_edge_id = max(self._next_edge_id, edge_id + 1)
        self._indexes = _Indexes()
        return edge

    # -- accessors ---------------------------------------------------------

    def node(self, node_id: NodeId) -> RoadNode:
        """Node by id; raises :class:`RoadNetworkError` if unknown."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise RoadNetworkError(f"unknown node id {node_id}") from None

    def edge(self, edge_id: EdgeId) -> RoadEdge:
        """Edge by id; raises :class:`RoadNetworkError` if unknown."""
        try:
            return self._edges[edge_id]
        except KeyError:
            raise RoadNetworkError(f"unknown edge id {edge_id}") from None

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def nodes(self) -> Iterator[RoadNode]:
        """Iterate over all nodes."""
        return iter(self._nodes.values())

    def edges(self) -> Iterator[RoadEdge]:
        """Iterate over all edges."""
        return iter(self._edges.values())

    def node_ids(self) -> list[NodeId]:
        """All node ids, in insertion order."""
        return list(self._nodes)

    def bounding_box(self) -> BoundingBox:
        """Extent of the network."""
        return BoundingBox.from_points(n.point for n in self._nodes.values())

    # -- topology ----------------------------------------------------------

    def incident_edges(self, node_id: NodeId) -> list[RoadEdge]:
        """Edges touching *node_id* regardless of direction."""
        self.node(node_id)
        return [self._edges[eid] for eid in self._adjacency[node_id]]

    def out_edges(self, node_id: NodeId) -> tuple[tuple[RoadEdge, NodeId], ...]:
        """Edges traversable *from* ``node_id``, as ``(edge, neighbour)``.

        The tuple is cached until the next mutation; callers share it.
        """
        if self._indexes.out_edges is None:
            adjacency = {}
            for nid, eids in self._adjacency.items():
                out = []
                for eid in eids:
                    edge = self._edges[eid]
                    other = edge.other_end(nid)
                    if edge.allows(nid, other):
                        out.append((edge, other))
                adjacency[nid] = tuple(out)
            self._indexes.out_edges = adjacency
        try:
            return self._indexes.out_edges[node_id]
        except KeyError:
            raise RoadNetworkError(f"unknown node id {node_id}") from None

    def neighbors(self, node_id: NodeId) -> list[NodeId]:
        """Node ids reachable from *node_id* in one hop."""
        return [other for _, other in self.out_edges(node_id)]

    def degree(self, node_id: NodeId) -> int:
        """Number of incident edges (undirected degree)."""
        self.node(node_id)
        return len(self._adjacency[node_id])

    def edge_between(self, u: NodeId, v: NodeId) -> RoadEdge | None:
        """A traversable edge from *u* to *v*, or ``None``."""
        for edge in self.incident_edges(u):
            if edge.other_end(u) == v and edge.allows(u, v):
                return edge
        return None

    def search_trees(self) -> dict[NodeId, tuple[float, dict[NodeId, float]]]:
        """Bounded shortest-path trees by source node, as ``(bound, costs)``.

        Filled and read by the map matcher; emptied by every mutation.
        Callers never mutate a stored tree: a search to a larger bound
        replaces the node's whole entry, so a reader that bound an entry
        keeps a consistent tree without a lock.
        """
        return self._indexes.search_trees

    def hop_features(self) -> dict[tuple[float, float, float, float], object]:
        """Routing features of shortest paths, keyed by the endpoints'
        ``(lat_a, lon_a, lat_b, lon_b)``.

        Filled and read by
        :meth:`~repro.features.RoutingFeatureComputer.between_points`;
        emptied by every mutation, so a path is never answered from a
        network that has since changed.
        """
        return self._indexes.hop_features

    # -- spatial queries ----------------------------------------------------

    def _node_grid(self) -> GridIndex[NodeId]:
        if self._indexes.node_grid is None:
            grid: GridIndex[NodeId] = GridIndex(self.projector)
            for node in self._nodes.values():
                grid.insert(node.point, node.node_id)
            self._indexes.node_grid = grid
        return self._indexes.node_grid

    def _edge_cells(self, radius_m: float) -> dict[tuple[int, int], list[_EdgeEntry]]:
        """The edge index for *radius_m*: cell key -> edges that may lie
        within *radius_m* of a point in that cell.

        Each edge is entered into every cell that its segment's bounding
        box, padded by ``radius_m + 1`` m, touches, so one cell holds every
        edge within the radius of any point in it.  Buckets list edges in
        the order of (midpoint cell x, midpoint cell y, insertion): the
        order in which a midpoint grid's radius scan meets them, which
        fixes the order of exact distance ties.
        """
        by_radius = self._indexes.edge_cells
        cells = by_radius.get(radius_m)
        if cells is not None:
            return cells
        if radius_m < 0.0:
            raise GeometryError(f"radius must be non-negative, got {radius_m}")
        to_xy = self.projector.to_xy
        ranked = []
        for rank, edge in enumerate(self._edges.values()):
            a = self._nodes[edge.u].point
            b = self._nodes[edge.v].point
            mx, my = to_xy(GeoPoint((a.lat + b.lat) / 2.0, (a.lon + b.lon) / 2.0))
            key = (math.floor(mx / CELL_SIZE_M), math.floor(my / CELL_SIZE_M), rank)
            ranked.append((key, (*to_xy(a), *to_xy(b), edge)))
        ranked.sort(key=itemgetter(0))
        pad = radius_m + 1.0
        cells = {}
        for _, entry in ranked:
            ax, ay, bx, by, _ = entry
            x_cells = range(
                math.floor((min(ax, bx) - pad) / CELL_SIZE_M),
                math.floor((max(ax, bx) + pad) / CELL_SIZE_M) + 1,
            )
            y_cells = range(
                math.floor((min(ay, by) - pad) / CELL_SIZE_M),
                math.floor((max(ay, by) + pad) / CELL_SIZE_M) + 1,
            )
            for ix in x_cells:
                for iy in y_cells:
                    cells.setdefault((ix, iy), []).append(entry)
        by_radius[radius_m] = cells
        return cells

    def nearest_node(self, point: GeoPoint, max_radius_m: float = 5_000.0) -> RoadNode | None:
        """The node closest to *point* within *max_radius_m*."""
        hit = self._node_grid().nearest(point, max_radius_m)
        if hit is None:
            return None
        return self._nodes[hit[1]]

    def nodes_within(self, point: GeoPoint, radius_m: float) -> list[tuple[float, RoadNode]]:
        """All nodes within *radius_m* of *point*, as ``(distance, node)``."""
        hits = self._node_grid().query_radius(point, radius_m)
        return [(d, self._nodes[nid]) for d, nid in hits]

    def edges_near(
        self, point: GeoPoint, radius_m: float
    ) -> list[tuple[float, float, RoadEdge]]:
        """Edges whose geometry passes within *radius_m* of *point*.

        Returns ``(distance_m, fraction, edge)`` triples, where ``fraction``
        locates the projection of *point* along the edge from ``u`` toward
        ``v``.  They are not sorted by distance, but their order is fixed
        (see :meth:`_edge_cells`), so a stable sort or ``min`` breaks exact
        ties the same way on every call.  The index for each distinct
        *radius_m* is built on first use and kept until the next mutation.
        """
        cells = self._edge_cells(radius_m)
        px, py = self.projector.to_xy(point)
        bucket = cells.get((math.floor(px / CELL_SIZE_M), math.floor(py / CELL_SIZE_M)), ())
        hits = []
        for ax, ay, bx, by, edge in bucket:
            dist, fraction = segment_distance_xy(px, py, ax, ay, bx, by)
            if dist <= radius_m:
                hits.append((dist, fraction, edge))
        return hits

    def nearest_edge(
        self, point: GeoPoint, max_radius_m: float = 500.0
    ) -> tuple[float, RoadEdge] | None:
        """The edge geometrically closest to *point*, or ``None``.

        The first of equal distances in :meth:`edges_near` order wins.
        """
        hit = min(self.edges_near(point, max_radius_m), key=itemgetter(0), default=None)
        if hit is None:
            return None
        return hit[0], hit[2]

    # -- derived geometry ----------------------------------------------------

    def edge_bearing_deg(self, edge: RoadEdge, from_node: NodeId) -> float:
        """Bearing of *edge* leaving *from_node*, degrees clockwise from north."""
        a = self.node(from_node).point
        b = self.node(edge.other_end(from_node)).point
        ax, ay = self.projector.to_xy(a)
        bx, by = self.projector.to_xy(b)
        return math.degrees(math.atan2(bx - ax, by - ay)) % 360.0

    def path_points(self, node_path: Iterable[NodeId]) -> list[GeoPoint]:
        """Geometry of a node path as a polyline of node coordinates."""
        return [self.node(nid).point for nid in node_path]

    def path_edges(self, node_path: list[NodeId]) -> list[RoadEdge]:
        """Edges along a node path; raises if two nodes are not connected."""
        edges = []
        for u, v in zip(node_path, node_path[1:]):
            edge = self.edge_between(u, v)
            if edge is None:
                raise RoadNetworkError(f"no traversable edge from {u} to {v}")
            edges.append(edge)
        return edges

    def path_length_m(self, node_path: list[NodeId]) -> float:
        """Total length of the edges along a node path, metres."""
        return sum(e.length_m for e in self.path_edges(node_path))
