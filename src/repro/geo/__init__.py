"""Planar-ish geometry over WGS-84 coordinates at city scale.

The whole library works on a single city extent (a few tens of kilometres),
so an equirectangular projection anchored at the city centre is accurate to
well under 0.1 % and is used for all hot-path distance computations.  Exact
haversine distances are available where precision matters more than speed.
"""

from repro.geo.point import (
    GeoPoint,
    bearing_deg,
    bearing_deg_latlon,
    destination_point,
    heading_change_deg,
)
from repro.geo.distance import (
    EARTH_RADIUS_M,
    LocalProjector,
    haversine_m,
    point_segment_distance_m,
    segment_distance_xy,
)
from repro.geo.bbox import BoundingBox
from repro.geo.polyline import (
    cumulative_lengths_m,
    interpolate_along,
    nearest_point_on_polyline,
    polyline_length_m,
    resample_polyline,
)
from repro.geo.grid import GridIndex

__all__ = [
    "GeoPoint",
    "bearing_deg",
    "bearing_deg_latlon",
    "destination_point",
    "heading_change_deg",
    "EARTH_RADIUS_M",
    "LocalProjector",
    "haversine_m",
    "point_segment_distance_m",
    "segment_distance_xy",
    "BoundingBox",
    "polyline_length_m",
    "cumulative_lengths_m",
    "interpolate_along",
    "resample_polyline",
    "nearest_point_on_polyline",
    "GridIndex",
]
