"""Distance computations: exact haversine and a fast local projection."""

from __future__ import annotations

import math

from repro.geo.point import GeoPoint

EARTH_RADIUS_M = 6_371_000.0


def haversine_m(a: GeoPoint, b: GeoPoint) -> float:
    """Exact great-circle distance between two points, in metres."""
    lat1 = math.radians(a.lat)
    lat2 = math.radians(b.lat)
    dlat = lat2 - lat1
    dlon = math.radians(b.lon - a.lon)
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


class LocalProjector:
    """Equirectangular projection anchored at a reference point.

    Maps geographic coordinates to a local planar frame in metres with the
    x axis pointing east and the y axis pointing north.  At city scale
    (tens of kilometres) the distortion against haversine is below 0.1 %,
    which is far below GPS noise, so all hot-path geometry uses this frame.
    """

    def __init__(self, origin: GeoPoint) -> None:
        self.origin = origin
        self._cos_lat = math.cos(math.radians(origin.lat))
        self._m_per_deg_lat = math.pi * EARTH_RADIUS_M / 180.0
        self._m_per_deg_lon = self._m_per_deg_lat * self._cos_lat

    def to_xy(self, point: GeoPoint) -> tuple[float, float]:
        """Project *point* to local planar metres ``(x, y)``."""
        x = (point.lon - self.origin.lon) * self._m_per_deg_lon
        y = (point.lat - self.origin.lat) * self._m_per_deg_lat
        return (x, y)

    def to_latlon(self, x: float, y: float) -> tuple[float, float]:
        """Inverse-project local metres to ``(lat, lon)``, unvalidated."""
        lat = self.origin.lat + y / self._m_per_deg_lat
        lon = self.origin.lon + x / self._m_per_deg_lon
        return (lat, lon)

    def to_point(self, x: float, y: float) -> GeoPoint:
        """Inverse-project local metres back to a :class:`GeoPoint`."""
        return GeoPoint(*self.to_latlon(x, y))

    def distance_m(self, a: GeoPoint, b: GeoPoint) -> float:
        """Fast planar distance between two geographic points, in metres."""
        return self.distance_latlon(a.lat, a.lon, b.lat, b.lon)

    def distance_latlon(self, lat_a: float, lon_a: float, lat_b: float, lon_b: float) -> float:
        """:meth:`distance_m` from ``(lat_a, lon_a)`` to ``(lat_b, lon_b)``.

        The one planar distance arithmetic, for callers that hold
        coordinates as floats and would otherwise build a
        :class:`GeoPoint` just to have it read back.
        """
        dx = (lon_a - lon_b) * self._m_per_deg_lon
        dy = (lat_a - lat_b) * self._m_per_deg_lat
        return math.hypot(dx, dy)


def segment_distance_xy(
    px: float, py: float, ax: float, ay: float, bx: float, by: float
) -> tuple[float, float]:
    """Distance from P to segment AB in planar metres, and the fraction.

    Returns ``(distance_m, fraction)`` where *fraction* in ``[0, 1]`` locates
    the closest point along AB, measured from A.  The one implementation of
    the segment arithmetic, so projecting a point once and reusing stored
    endpoint projections gives the same floats as
    :func:`point_segment_distance_m`.
    """
    vx = bx - ax
    vy = by - ay
    seg_sq = vx * vx + vy * vy
    if seg_sq == 0.0:
        t = 0.0
    else:
        t = min(1.0, max(0.0, ((px - ax) * vx + (py - ay) * vy) / seg_sq))
    return (math.hypot(px - (ax + t * vx), py - (ay + t * vy)), t)


def point_segment_distance_m(
    point: GeoPoint,
    seg_start: GeoPoint,
    seg_end: GeoPoint,
    projector: LocalProjector,
) -> tuple[float, float]:
    """Distance from *point* to the segment ``seg_start → seg_end``.

    Returns ``(distance_m, fraction)`` where *fraction* in ``[0, 1]`` locates
    the closest point along the segment.
    """
    return segment_distance_xy(
        *projector.to_xy(point), *projector.to_xy(seg_start), *projector.to_xy(seg_end)
    )
