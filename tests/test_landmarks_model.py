"""Tests for Landmark, LandmarkIndex, and the POI generator."""

import math

import numpy as np
import pytest

from repro.exceptions import ConfigError, GeometryError
from repro.geo import BoundingBox, GeoPoint, LocalProjector
from repro.landmarks import (
    Landmark,
    LandmarkIndex,
    LandmarkKind,
    POICategory,
    POIConfig,
    generate_pois,
)

CENTER = GeoPoint(39.91, 116.40)


@pytest.fixture(scope="module")
def projector():
    return LocalProjector(CENTER)


def make_landmarks(projector, coords):
    return [
        Landmark(i, projector.to_point(x, y), f"L{i}", LandmarkKind.TURNING_POINT)
        for i, (x, y) in enumerate(coords)
    ]


class TestLandmark:
    def test_significance_range_enforced(self):
        with pytest.raises(GeometryError):
            Landmark(0, CENTER, "x", LandmarkKind.POI_CLUSTER, significance=1.5)
        with pytest.raises(GeometryError):
            Landmark(0, CENTER, "x", LandmarkKind.POI_CLUSTER, significance=-0.1)

    def test_default_significance_zero(self):
        lm = Landmark(0, CENTER, "x", LandmarkKind.POI_CLUSTER)
        assert lm.significance == 0.0

    def test_significance_mutable(self):
        lm = Landmark(0, CENTER, "x", LandmarkKind.POI_CLUSTER)
        lm.significance = 0.7
        assert lm.significance == 0.7


class TestLandmarkIndex:
    def test_duplicate_ids_rejected(self, projector):
        landmarks = make_landmarks(projector, [(0, 0), (10, 10)])
        landmarks[1] = Landmark(0, landmarks[1].point, "dup", LandmarkKind.POI_CLUSTER)
        with pytest.raises(GeometryError):
            LandmarkIndex(landmarks, projector)

    def test_get_and_contains(self, projector):
        index = LandmarkIndex(make_landmarks(projector, [(0, 0), (500, 0)]), projector)
        assert index.get(1).name == "L1"
        assert 0 in index and 2 not in index
        with pytest.raises(GeometryError):
            index.get(99)

    def test_len_and_iter(self, projector):
        index = LandmarkIndex(make_landmarks(projector, [(0, 0), (500, 0)]), projector)
        assert len(index) == 2
        assert {lm.landmark_id for lm in index} == {0, 1}

    def test_nearest(self, projector):
        index = LandmarkIndex(
            make_landmarks(projector, [(0, 0), (500, 0), (1000, 0)]), projector
        )
        hit = index.nearest(projector.to_point(520, 10))
        assert hit is not None
        assert hit[1].landmark_id == 1

    def test_nearest_out_of_range(self, projector):
        index = LandmarkIndex(make_landmarks(projector, [(0, 0)]), projector)
        assert index.nearest(projector.to_point(9000, 9000), max_radius_m=100.0) is None

    def test_within_sorted_by_distance(self, projector):
        index = LandmarkIndex(
            make_landmarks(projector, [(0, 0), (300, 0), (100, 0)]), projector
        )
        hits = index.within(projector.to_point(0, 0), 400.0)
        assert [lm.landmark_id for _, lm in hits] == [0, 2, 1]
        dists = [d for d, _ in hits]
        assert dists == sorted(dists)

    def test_within_rejects_non_finite_radius(self, projector):
        index = LandmarkIndex(make_landmarks(projector, [(0, 0)]), projector)
        for radius in (math.nan, math.inf, -1.0):
            with pytest.raises(GeometryError):
                index.within(CENTER, radius)

    def test_scan_xy_is_memoised_per_cell_and_reach(self, projector):
        index = LandmarkIndex(
            make_landmarks(projector, [(0, 0), (300, 0), (100, 0), (600, 600)]), projector
        )
        scan = index.scan_xy(10.0, 10.0, 100.0)
        assert isinstance(scan, tuple)  # shared, so immutable
        assert sorted(lid for _, _, lid in scan) == [0, 1, 2]
        assert index.scan_xy(200.0, 240.0, 250.0) is scan
        assert sorted(lid for _, _, lid in index.scan_xy(10.0, 10.0, 600.0)) == [0, 1, 2, 3]
        for x, y, lid in scan:
            assert (x, y) == projector.to_xy(index.get(lid).point)


class TestPOIGenerator:
    def test_config_validation(self):
        with pytest.raises(ConfigError):
            POIConfig(count=0)
        with pytest.raises(ConfigError):
            POIConfig(activity_centers=0)
        with pytest.raises(ConfigError):
            POIConfig(background_fraction=1.2)

    def test_count_and_bbox(self, projector):
        bbox = BoundingBox(39.88, 116.36, 39.94, 116.44)
        pois = generate_pois(POIConfig(count=500), bbox, projector, np.random.default_rng(0))
        assert len(pois) == 500
        assert all(bbox.contains(p.point) for p in pois)

    def test_unique_ids(self, projector):
        bbox = BoundingBox(39.88, 116.36, 39.94, 116.44)
        pois = generate_pois(POIConfig(count=300), bbox, projector, np.random.default_rng(1))
        assert len({p.poi_id for p in pois}) == 300

    def test_deterministic(self, projector):
        bbox = BoundingBox(39.88, 116.36, 39.94, 116.44)
        a = generate_pois(POIConfig(count=200), bbox, projector, np.random.default_rng(9))
        b = generate_pois(POIConfig(count=200), bbox, projector, np.random.default_rng(9))
        assert [(p.point, p.category, p.name) for p in a] == [
            (p.point, p.category, p.name) for p in b
        ]

    def test_clustered_structure(self, projector):
        # Clustered POIs must be denser than uniform: mean nearest-neighbour
        # distance should be clearly below the uniform expectation.
        bbox = BoundingBox(39.88, 116.36, 39.94, 116.44)
        config = POIConfig(count=600, background_fraction=0.1)
        pois = generate_pois(config, bbox, projector, np.random.default_rng(2))
        pts = [projector.to_xy(p.point) for p in pois]
        arr = np.array(pts)
        # Sample 100 points, find each one's nearest neighbour distance.
        rng = np.random.default_rng(3)
        idx = rng.choice(len(arr), size=100, replace=False)
        nn = []
        for i in idx:
            d = np.hypot(arr[:, 0] - arr[i, 0], arr[:, 1] - arr[i, 1])
            d[i] = np.inf
            nn.append(d.min())
        area_extent = max(np.ptp(arr[:, 0]), np.ptp(arr[:, 1]))
        uniform_nn = 0.5 * area_extent / np.sqrt(len(arr))
        assert float(np.mean(nn)) < uniform_nn

    def test_all_categories_reachable(self, projector):
        bbox = BoundingBox(39.88, 116.36, 39.94, 116.44)
        pois = generate_pois(POIConfig(count=2000), bbox, projector, np.random.default_rng(4))
        seen = {p.category for p in pois}
        assert len(seen) == len(POICategory)

    def test_names_follow_category(self, projector):
        bbox = BoundingBox(39.88, 116.36, 39.94, 116.44)
        pois = generate_pois(POIConfig(count=50), bbox, projector, np.random.default_rng(5))
        for poi in pois:
            assert poi.name.endswith(poi.category.label)
