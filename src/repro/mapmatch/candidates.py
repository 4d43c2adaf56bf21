"""Candidate generation for map matching."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from repro.geo import GeoPoint
from repro.roadnet import EdgeId, RoadEdge, RoadNetwork


@dataclass(frozen=True, slots=True)
class Candidate:
    """A possible road position for one GPS sample.

    ``fraction`` locates the projection along the edge, measured from the
    edge's ``u`` endpoint toward ``v``.
    """

    edge_id: EdgeId
    fraction: float
    distance_m: float


def nearest_edges(
    network: RoadNetwork,
    point: GeoPoint,
    radius_m: float,
    max_candidates: int,
) -> list[tuple[float, float, RoadEdge]]:
    """The *max_candidates* nearest edges within *radius_m* of *point*.

    Returns :meth:`RoadNetwork.edges_near` hits ``(distance_m, fraction,
    edge)``, nearest first; equal distances keep ``edges_near`` order.
    """
    return sorted(network.edges_near(point, radius_m), key=itemgetter(0))[:max_candidates]


def candidates_for_point(
    network: RoadNetwork,
    point: GeoPoint,
    radius_m: float,
    max_candidates: int,
) -> list[Candidate]:
    """The *max_candidates* nearest edges within *radius_m* of *point*.

    Equal distances keep :meth:`RoadNetwork.edges_near` order.
    """
    return [
        Candidate(edge.edge_id, fraction, dist)
        for dist, fraction, edge in nearest_edges(network, point, radius_m, max_candidates)
    ]
