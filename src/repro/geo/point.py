"""Geographic points and bearing arithmetic."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import GeometryError

_EARTH_RADIUS_M = 6_371_000.0


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A WGS-84 coordinate pair, latitude and longitude in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not (-90.0 <= self.lat <= 90.0):
            raise GeometryError(f"latitude out of range: {self.lat}")
        if not (-180.0 <= self.lon <= 180.0):
            raise GeometryError(f"longitude out of range: {self.lon}")

    def as_tuple(self) -> tuple[float, float]:
        """Return ``(lat, lon)``."""
        return (self.lat, self.lon)

    def __str__(self) -> str:
        return f"({self.lat:.6f}, {self.lon:.6f})"


def bearing_deg(origin: GeoPoint, target: GeoPoint) -> float:
    """Initial great-circle bearing from *origin* to *target*.

    Returns degrees clockwise from north in ``[0, 360)``.
    """
    return bearing_deg_latlon(origin.lat, origin.lon, target.lat, target.lon)


def bearing_deg_latlon(lat_a: float, lon_a: float, lat_b: float, lon_b: float) -> float:
    """:func:`bearing_deg` from ``(lat_a, lon_a)`` to ``(lat_b, lon_b)``.

    The one bearing arithmetic, for callers that hold coordinates as floats
    and would otherwise build a :class:`GeoPoint` just to have it read back.
    """
    lat1 = math.radians(lat_a)
    lat2 = math.radians(lat_b)
    dlon = math.radians(lon_b - lon_a)
    x = math.sin(dlon) * math.cos(lat2)
    y = math.cos(lat1) * math.sin(lat2) - math.sin(lat1) * math.cos(lat2) * math.cos(dlon)
    deg = math.degrees(math.atan2(x, y)) % 360.0
    # A tiny negative angle can survive the modulo as exactly 360.0.
    return 0.0 if deg >= 360.0 else deg


def heading_change_deg(bearing_a: float, bearing_b: float) -> float:
    """Absolute change between two bearings, folded into ``[0, 180]``.

    A value near 180 indicates a reversal of direction (a U-turn).
    """
    diff = abs(bearing_a - bearing_b) % 360.0
    if diff > 180.0:
        diff = 360.0 - diff
    return diff


def destination_point(origin: GeoPoint, bearing: float, distance_m: float) -> GeoPoint:
    """Great-circle destination reached from *origin* on *bearing* after *distance_m*."""
    angular = distance_m / _EARTH_RADIUS_M
    theta = math.radians(bearing)
    lat1 = math.radians(origin.lat)
    lon1 = math.radians(origin.lon)
    lat2 = math.asin(
        math.sin(lat1) * math.cos(angular) + math.cos(lat1) * math.sin(angular) * math.cos(theta)
    )
    lon2 = lon1 + math.atan2(
        math.sin(theta) * math.sin(angular) * math.cos(lat1),
        math.cos(angular) - math.sin(lat1) * math.sin(lat2),
    )
    lon2 = (lon2 + 3.0 * math.pi) % (2.0 * math.pi) - math.pi
    return GeoPoint(math.degrees(lat2), math.degrees(lon2))
