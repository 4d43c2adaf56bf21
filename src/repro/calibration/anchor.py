"""Anchor-based trajectory calibration (paper Sec. II-A, after [31]).

Rewrites a raw trajectory into a symbolic trajectory by aligning it to the
stable landmark set: every landmark the route passes within a search radius
becomes an anchor, time-stamped by linear interpolation along the raw
polyline.  Because anchors are properties of the *route*, two trajectories
recorded over the same route under different sampling strategies calibrate
to (nearly) the same symbolic trajectory — the invariance the paper needs.

Revisits are preserved: if a trajectory passes the same landmark twice
(e.g. around a U-turn), the candidate passes are clustered in time and each
cluster yields its own anchor.

The geometry runs in the landmark grid's projected metres: each sample is
projected once, and each leg reads the landmarks near its start from the
index's memoised cell scan (:meth:`LandmarkIndex.scan_xy`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

from repro.exceptions import CalibrationError
from repro.geo import segment_distance_xy
from repro.landmarks import LandmarkId, LandmarkIndex
from repro.obs import metrics
from repro.trajectory.model import RawTrajectory, SymbolicEntry, SymbolicTrajectory


@dataclass(frozen=True, slots=True)
class CalibrationConfig:
    """Parameters of anchor-based calibration."""

    #: A landmark becomes an anchor when the route passes within this radius.
    search_radius_m: float = 80.0
    #: Candidate passes of the same landmark separated by more than this gap
    #: are treated as distinct visits (keeps loops and U-turns visible).
    revisit_gap_s: float = 45.0

    def __post_init__(self) -> None:
        if not 0.0 < self.search_radius_m < math.inf:
            raise CalibrationError(
                f"search radius must be positive and finite, got {self.search_radius_m}"
            )
        if not 0.0 < self.revisit_gap_s < math.inf:
            raise CalibrationError(
                f"revisit gap must be positive and finite, got {self.revisit_gap_s}"
            )


_first = itemgetter(0)


@dataclass(frozen=True, slots=True)
class _Candidate:
    landmark: LandmarkId
    t: float
    distance_m: float


class AnchorCalibrator:
    """Calibrates raw trajectories against a fixed landmark set."""

    def __init__(
        self, landmarks: LandmarkIndex, config: CalibrationConfig | None = None
    ) -> None:
        self.landmarks = landmarks
        self.config = config or CalibrationConfig()

    def calibrate(self, trajectory: RawTrajectory) -> SymbolicTrajectory:
        """Rewrite *trajectory* into a symbolic trajectory.

        Raises :class:`CalibrationError` when fewer than two anchors are
        found — such a trajectory is too far from every landmark to
        summarize meaningfully.
        """
        m = metrics()
        candidates = self._collect_candidates(trajectory)
        anchors = self._cluster_passes(candidates)
        anchors.sort(key=lambda c: c.t)
        entries: list[SymbolicEntry] = []
        for candidate in anchors:
            if entries and entries[-1].landmark == candidate.landmark:
                continue  # collapse consecutive duplicates
            entries.append(SymbolicEntry(candidate.landmark, candidate.t))
        m.counter("calibration.calls").inc()
        if len(entries) < 2:
            m.counter("calibration.failures").inc()
            raise CalibrationError(
                f"trajectory {trajectory.trajectory_id!r} produced "
                f"{len(entries)} anchor(s); need at least 2"
            )
        m.histogram(
            "calibration.landmarks_matched", buckets=(2, 5, 10, 20, 40, 80)
        ).observe(len(entries))
        return SymbolicTrajectory(entries, trajectory.trajectory_id)

    def _collect_candidates(self, trajectory: RawTrajectory) -> list[_Candidate]:
        """Every (landmark, interpolated pass time, distance) within reach.

        Each raw polyline leg is tested against the landmarks near its start
        point; the query radius is padded by the leg length so landmarks
        closest to the middle of a long leg are not missed.  A leg's
        candidates come in :meth:`LandmarkIndex.within` order: by distance
        from the leg's start, ties in grid-scan order.  That order reaches
        the anchors on exact ties, through :meth:`_cluster_passes` and the
        stable sort by time.

        Every sample is projected once.  A landmark's distance from the
        start, its distance from the leg and its fraction along it are the
        floats ``within`` and :func:`~repro.geo.point_segment_distance_m`
        give, computed from the landmark grid's stored projections.  Hits
        farther than ``search_radius_m`` from the leg are dropped before
        the stable sort, which leaves the survivors' order unchanged.
        """
        projector = self.landmarks.projector
        scan_xy = self.landmarks.scan_xy
        radius = self.config.search_radius_m
        points = trajectory.points
        xys = [projector.to_xy(p.point) for p in points]
        out: list[_Candidate] = []
        for i in range(len(points) - 1):
            a, b = points[i], points[i + 1]
            (ax, ay), (bx, by) = xys[i], xys[i + 1]
            # The leg length from the points, not from xys: the two
            # differences round differently.
            query_m = radius + projector.distance_m(a.point, b.point)
            hits = []
            for x, y, landmark in scan_xy(ax, ay, query_m):
                d = math.hypot(ax - x, ay - y)
                if d <= query_m:
                    dist, frac = segment_distance_xy(x, y, ax, ay, bx, by)
                    if dist <= radius:
                        hits.append((d, landmark, dist, frac))
            if len(hits) > 1:
                hits.sort(key=_first)
            for _, landmark, dist, frac in hits:
                out.append(_Candidate(landmark, a.t + frac * (b.t - a.t), dist))
        return out

    def _cluster_passes(self, candidates: list[_Candidate]) -> list[_Candidate]:
        """Reduce per-leg candidates to one anchor per distinct landmark pass.

        Candidates of the same landmark are sorted by time and split where
        consecutive candidate times differ by more than ``revisit_gap_s``;
        within each pass, the geometrically closest candidate wins.
        """
        by_landmark: dict[LandmarkId, list[_Candidate]] = {}
        for candidate in candidates:
            by_landmark.setdefault(candidate.landmark, []).append(candidate)
        anchors: list[_Candidate] = []
        for passes in by_landmark.values():
            passes.sort(key=lambda c: c.t)
            group = [passes[0]]
            for candidate in passes[1:]:
                if candidate.t - group[-1].t > self.config.revisit_gap_s:
                    anchors.append(min(group, key=lambda c: c.distance_m))
                    group = [candidate]
                else:
                    group.append(candidate)
            anchors.append(min(group, key=lambda c: c.distance_m))
        return anchors
