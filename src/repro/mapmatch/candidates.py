"""Candidate generation for map matching."""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from repro.geo import GeoPoint
from repro.roadnet import EdgeId, RoadNetwork


@dataclass(frozen=True, slots=True)
class Candidate:
    """A possible road position for one GPS sample.

    ``fraction`` locates the projection along the edge, measured from the
    edge's ``u`` endpoint toward ``v``.
    """

    edge_id: EdgeId
    fraction: float
    distance_m: float


def candidates_for_point(
    network: RoadNetwork,
    point: GeoPoint,
    radius_m: float,
    max_candidates: int,
) -> list[Candidate]:
    """The *max_candidates* nearest edges within *radius_m* of *point*.

    Equal distances keep :meth:`RoadNetwork.edges_near` order.
    """
    hits = sorted(network.edges_near(point, radius_m), key=itemgetter(0))
    return [
        Candidate(edge.edge_id, fraction, dist)
        for dist, fraction, edge in hits[:max_candidates]
    ]
