"""Tests for the uniform-grid spatial index, including brute-force checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GeometryError
from repro.geo import GeoPoint, GridIndex, LocalProjector

CENTER = GeoPoint(39.91, 116.40)


def make_index(points_xy, cell_size=250.0):
    projector = LocalProjector(CENTER)
    grid = GridIndex(projector, cell_size_m=cell_size)
    pts = [projector.to_point(x, y) for x, y in points_xy]
    grid.extend((p, i) for i, p in enumerate(pts))
    return projector, grid, pts


class TestGridIndexBasics:
    def test_len(self):
        _, grid, _ = make_index([(0, 0), (10, 10), (3000, -2000)])
        assert len(grid) == 3

    def test_invalid_cell_size(self):
        with pytest.raises(GeometryError):
            GridIndex(LocalProjector(CENTER), cell_size_m=0.0)

    def test_negative_radius_rejected(self):
        _, grid, _ = make_index([(0, 0)])
        with pytest.raises(GeometryError):
            grid.query_radius(CENTER, -1.0)

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_non_finite_radius_rejected(self, radius):
        _, grid, _ = make_index([(0, 0)])
        with pytest.raises(GeometryError):
            grid.query_radius(CENTER, radius)

    def test_scan_order_and_key(self):
        # Cells (-1, 0), (0, -1), (0, 0), in ix-outer, iy-inner order, each
        # in insertion order; a 1 m radius at (10, 10) scans one cell each way.
        _, grid, _ = make_index([(10, 10), (-10, 10), (10, -10), (20, 20)])
        key = grid.scan_key(10.0, 10.0, 1.0)
        assert key == (0, 0, 1)
        assert [item for _, _, item in grid.scan(*key)] == [1, 2, 0, 3]
        assert grid.scan_key(10.0, 10.0, 0.0) == (0, 0, 0)
        assert grid.scan_key(-0.5, 250.0, 250.5) == (-1, 1, 2)

    def test_empty_nearest_returns_none(self):
        projector = LocalProjector(CENTER)
        grid = GridIndex(projector)
        assert grid.nearest(CENTER) is None

    def test_query_radius_exact_hit(self):
        projector, grid, pts = make_index([(0, 0), (100, 0), (600, 0)])
        hits = grid.query_radius(projector.to_point(0, 0), 150.0)
        assert sorted(i for _, i in hits) == [0, 1]

    def test_query_radius_boundary_inclusive(self):
        projector, grid, _ = make_index([(100, 0)])
        hits = grid.query_radius(projector.to_point(0, 0), 100.0 + 1e-6)
        assert len(hits) == 1

    def test_nearest_picks_closest(self):
        projector, grid, _ = make_index([(0, 0), (50, 0), (-30, 0)])
        hit = grid.nearest(projector.to_point(40, 0))
        assert hit is not None
        dist, item = hit
        assert item == 1
        assert dist == pytest.approx(10.0, abs=1e-6)

    def test_nearest_respects_max_radius(self):
        projector, grid, _ = make_index([(5000, 0)])
        assert grid.nearest(projector.to_point(0, 0), max_radius_m=100.0) is None

    def test_nearest_across_cells(self):
        # Item in a far cell must still be found when nothing is nearby.
        projector, grid, _ = make_index([(2400, 1900)], cell_size=100.0)
        hit = grid.nearest(projector.to_point(0, 0), max_radius_m=10_000.0)
        assert hit is not None
        assert hit[1] == 0
        assert hit[0] == pytest.approx(math.hypot(2400, 1900), rel=1e-6)


coords = st.tuples(
    st.floats(min_value=-5_000.0, max_value=5_000.0, allow_nan=False),
    st.floats(min_value=-5_000.0, max_value=5_000.0, allow_nan=False),
)


class TestGridIndexAgainstBruteForce:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(coords, min_size=1, max_size=60),
        coords,
        st.floats(min_value=1.0, max_value=4_000.0),
    )
    def test_query_radius_matches_brute_force(self, pts_xy, query_xy, radius):
        projector, grid, pts = make_index(pts_xy, cell_size=333.0)
        q = projector.to_point(*query_xy)
        hits = {i for _, i in grid.query_radius(q, radius)}
        expected = {
            i for i, p in enumerate(pts) if projector.distance_m(q, p) <= radius
        }
        assert hits == expected

    @settings(max_examples=50, deadline=None)
    @given(st.lists(coords, min_size=1, max_size=60), coords)
    def test_nearest_matches_brute_force(self, pts_xy, query_xy):
        projector, grid, pts = make_index(pts_xy, cell_size=333.0)
        q = projector.to_point(*query_xy)
        hit = grid.nearest(q, max_radius_m=50_000.0)
        assert hit is not None
        best = min(projector.distance_m(q, p) for p in pts)
        assert hit[0] == pytest.approx(best, rel=1e-9, abs=1e-9)

    def test_random_bulk(self):
        rng = np.random.default_rng(3)
        pts_xy = [(float(x), float(y)) for x, y in rng.uniform(-8000, 8000, size=(500, 2))]
        projector, grid, pts = make_index(pts_xy)
        q = projector.to_point(123.0, -456.0)
        hits = {i for _, i in grid.query_radius(q, 1_000.0)}
        expected = {
            i for i, p in enumerate(pts) if projector.distance_m(q, p) <= 1_000.0
        }
        assert hits == expected
