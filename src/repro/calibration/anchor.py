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
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import CalibrationError
from repro.geo import point_segment_distance_m
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
        if self.search_radius_m <= 0.0:
            raise CalibrationError("search radius must be positive")
        if self.revisit_gap_s <= 0.0:
            raise CalibrationError("revisit gap must be positive")


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
        closest to the middle of a long leg are not missed.
        """
        projector = self.landmarks.projector
        radius = self.config.search_radius_m
        out: list[_Candidate] = []
        for a, b in zip(trajectory.points, trajectory.points[1:]):
            leg_m = projector.distance_m(a.point, b.point)
            nearby = self.landmarks.within(a.point, radius + leg_m)
            for _, landmark in nearby:
                dist, frac = point_segment_distance_m(
                    landmark.point, a.point, b.point, projector
                )
                if dist > radius:
                    continue
                t = a.t + frac * (b.t - a.t)
                out.append(_Candidate(landmark.landmark_id, t, dist))
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
