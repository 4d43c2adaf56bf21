"""Tests for raw/symbolic trajectory models."""

import math
import pickle
import pickletools
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GeometryError, TrajectoryError
from repro.geo import GeoPoint, LocalProjector
from repro.trajectory import (
    RawTrajectory,
    SymbolicEntry,
    SymbolicTrajectory,
    TrajectoryPoint,
)
from repro.trajectory.model import _raw_from_columns

CENTER = GeoPoint(39.91, 116.40)


def make_raw(coords_times, trajectory_id="t1"):
    projector = LocalProjector(CENTER)
    points = [
        TrajectoryPoint(projector.to_point(x, y), t) for (x, y), t in coords_times
    ]
    return RawTrajectory(points, trajectory_id)


class TestRawTrajectory:
    def test_minimum_two_samples(self):
        with pytest.raises(TrajectoryError):
            make_raw([((0, 0), 0.0)])

    def test_unsorted_timestamps_rejected(self):
        with pytest.raises(TrajectoryError):
            make_raw([((0, 0), 10.0), ((10, 0), 5.0)])

    def test_equal_timestamps_allowed(self):
        t = make_raw([((0, 0), 10.0), ((10, 0), 10.0)])
        assert t.duration_s == 0.0

    def test_duration_and_times(self):
        t = make_raw([((0, 0), 100.0), ((10, 0), 130.0), ((20, 0), 160.0)])
        assert t.start_time == 100.0
        assert t.end_time == 160.0
        assert t.duration_s == 60.0

    def test_len_iter_getitem(self):
        t = make_raw([((0, 0), 0.0), ((10, 0), 1.0), ((20, 0), 2.0)])
        assert len(t) == 3
        assert t[1].t == 1.0
        assert [p.t for p in t] == [0.0, 1.0, 2.0]

    def test_length_m(self):
        projector = LocalProjector(CENTER)
        t = make_raw([((0, 0), 0.0), ((300, 0), 10.0), ((300, 400), 20.0)])
        assert t.length_m(projector) == pytest.approx(700.0, rel=1e-6)

    def test_slice_time_inclusive(self):
        t = make_raw([((0, 0), 0.0), ((10, 0), 10.0), ((20, 0), 20.0), ((30, 0), 30.0)])
        sliced = t.slice_time(10.0, 20.0)
        assert [p.t for p in sliced] == [10.0, 20.0]

    def test_slice_time_empty_window(self):
        t = make_raw([((0, 0), 0.0), ((10, 0), 10.0)])
        assert t.slice_time(3.0, 7.0) == []

    def test_slice_time_invalid(self):
        t = make_raw([((0, 0), 0.0), ((10, 0), 10.0)])
        with pytest.raises(TrajectoryError):
            t.slice_time(10.0, 5.0)

    def test_bounding_box(self):
        t = make_raw([((0, 0), 0.0), ((100, 200), 10.0)])
        box = t.bounding_box()
        assert box.contains(t[0].point)
        assert box.contains(t[1].point)

    def test_repr_mentions_id(self):
        t = make_raw([((0, 0), 0.0), ((10, 0), 10.0)], trajectory_id="taxi-9")
        assert "taxi-9" in repr(t)


class TestSymbolicTrajectory:
    def test_minimum_two_anchors(self):
        with pytest.raises(TrajectoryError):
            SymbolicTrajectory([SymbolicEntry(0, 0.0)])

    def test_unsorted_times_rejected(self):
        with pytest.raises(TrajectoryError):
            SymbolicTrajectory([SymbolicEntry(0, 10.0), SymbolicEntry(1, 5.0)])

    def test_consecutive_duplicates_rejected(self):
        with pytest.raises(TrajectoryError):
            SymbolicTrajectory([SymbolicEntry(0, 0.0), SymbolicEntry(0, 10.0)])

    def test_revisit_later_allowed(self):
        t = SymbolicTrajectory(
            [SymbolicEntry(0, 0.0), SymbolicEntry(1, 10.0), SymbolicEntry(0, 20.0)]
        )
        assert t.landmark_ids() == [0, 1, 0]

    def test_size_is_landmark_count(self):
        t = SymbolicTrajectory([SymbolicEntry(i, float(i)) for i in range(5)])
        assert len(t) == 5
        assert t.segment_count == 4

    def test_segments(self):
        t = SymbolicTrajectory(
            [SymbolicEntry(7, 0.0), SymbolicEntry(3, 60.0), SymbolicEntry(9, 150.0)]
        )
        segments = t.segments()
        assert len(segments) == 2
        first = segments[0]
        assert (first.index, first.start_landmark, first.end_landmark) == (0, 7, 3)
        assert first.duration_s == 60.0
        second = segments[1]
        assert (second.start_landmark, second.end_landmark) == (3, 9)
        assert second.duration_s == 90.0

    def test_iteration_and_indexing(self):
        entries = [SymbolicEntry(i, float(i)) for i in range(3)]
        t = SymbolicTrajectory(entries)
        assert list(t) == entries
        assert t[2] == entries[2]


# -- pickling: an id and three float columns, rebuilt through the constructors

SUBNORMAL = 5e-324
_EDGE_FLOATS = [0.0, -0.0, SUBNORMAL, -SUBNORMAL, 2.2250738585072014e-308]


def _coordinate(bound: float) -> st.SearchStrategy[float]:
    return st.one_of(
        st.sampled_from([bound, -bound, *_EDGE_FLOATS]),
        st.floats(-bound, bound, allow_nan=False),
    )


@st.composite
def raw_trajectories(draw) -> RawTrajectory:
    n = draw(st.integers(2, 12))
    lats = draw(st.lists(_coordinate(90.0), min_size=n, max_size=n))
    lons = draw(st.lists(_coordinate(180.0), min_size=n, max_size=n))
    ts = sorted(draw(st.lists(
        st.one_of(
            st.sampled_from(_EDGE_FLOATS),
            st.floats(-1e12, 1e12, allow_nan=False),
        ),
        min_size=n, max_size=n,
    )))
    if draw(st.booleans()):
        ts = [ts[0]] * n  # every timestamp equal
    points = [
        TrajectoryPoint(GeoPoint(lat, lon), t) for lat, lon, t in zip(lats, lons, ts)
    ]
    return RawTrajectory(points, draw(st.text(max_size=8)))


def _bits(points) -> list[bytes]:
    return [
        struct.pack("ddd", p.point.lat, p.point.lon, p.t) for p in points
    ]


def _objects_built(payload: bytes) -> int:
    return sum(
        1 for op, _, _ in pickletools.genops(payload)
        if op.name in ("NEWOBJ", "NEWOBJ_EX", "REDUCE", "BUILD")
    )


def _line(n: int) -> RawTrajectory:
    return RawTrajectory(
        [TrajectoryPoint(GeoPoint(39.9 + i * 1e-4, 116.4), 5.0 * i) for i in range(n)],
        "line",
    )


class TestRawTrajectoryPickle:
    @settings(max_examples=200, deadline=None)
    @given(raw=raw_trajectories(), data=st.data())
    def test_round_trip_is_bit_exact(self, raw, data):
        copy = pickle.loads(pickle.dumps(raw))
        assert copy.trajectory_id == raw.trajectory_id
        assert _bits(copy) == _bits(raw)
        t_start, t_end = sorted(
            data.draw(st.sampled_from([p.t for p in raw]), label=name)
            for name in ("t_start", "t_end")
        )
        assert _bits(copy.slice_time(t_start, t_end)) == _bits(
            raw.slice_time(t_start, t_end)
        )

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_size_in_objects_is_independent_of_samples(self, protocol):
        """One rebuild call per trajectory, not an object per sample."""
        short, long = (
            pickle.dumps(_line(n), protocol=protocol) for n in (2, 200)
        )
        assert _objects_built(long) == _objects_built(short)

    def test_rebuilt_copy_is_a_valid_trajectory(self):
        raw = _line(5)
        raw.trajectory_id = "renamed-after-construction"
        copy = pickle.loads(pickle.dumps(raw))
        assert copy.trajectory_id == "renamed-after-construction"
        assert isinstance(copy[0], TrajectoryPoint)
        assert isinstance(copy[0].point, GeoPoint)
        assert copy.duration_s == raw.duration_s == 20.0

    @pytest.mark.parametrize(
        "lats, lons, ts, error",
        [
            ((39.9, 91.0), (116.4, 116.4), (0.0, 5.0), GeometryError),
            ((39.9, 39.9), (116.4, -180.5), (0.0, 5.0), GeometryError),
            ((39.9, math.nan), (116.4, 116.4), (0.0, 5.0), GeometryError),
            ((39.9, 39.9), (math.nan, 116.4), (0.0, 5.0), GeometryError),
            ((39.9, 39.9), (116.4, 116.4), (5.0, 0.0), TrajectoryError),
            ((39.9,), (116.4,), (0.0,), TrajectoryError),
        ],
    )
    def test_rebuild_runs_the_constructor_checks(self, lats, lons, ts, error):
        with pytest.raises(error) as built:
            RawTrajectory(
                [
                    TrajectoryPoint(GeoPoint(lat, lon), t)
                    for lat, lon, t in zip(lats, lons, ts)
                ],
                "bad",
            )
        with pytest.raises(error) as rebuilt:
            _raw_from_columns("bad", lats, lons, ts)
        assert str(rebuilt.value) == str(built.value)

    def test_rebuild_rejects_ragged_columns(self):
        with pytest.raises(ValueError):
            _raw_from_columns("bad", (39.9, 39.9), (116.4,), (0.0, 5.0))
