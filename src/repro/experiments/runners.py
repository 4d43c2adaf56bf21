"""Per-figure experiment runners (paper Sec. VII).

Each runner regenerates the data behind one figure of the evaluation
section and returns a typed result object that the benchmark harness
renders as a table.  All runners take the scenario plus explicit sizes so
benchmarks can trade accuracy for speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import SummarizerConfig, TrajectorySummary
from repro.exceptions import CalibrationError, ConfigError
from repro.obs import span
from repro.experiments.ff import feature_frequency, landmark_usage
from repro.experiments.userstudy import (
    GradedSummary,
    level_histogram,
    run_user_study,
)
from repro.features import SPEED
from repro.simulate import CityScenario, SimulatedTrip, TripConfig, TripSimulator
from repro.trajectory import SymbolicTrajectory


def _summarize_trips(
    stmaker, trips: list[SimulatedTrip], k: int | None = None
) -> list[TrajectorySummary]:
    """Summaries of all calibratable trips."""
    out = []
    for trip in trips:
        try:
            out.append(stmaker.summarize(trip.raw, k=k))
        except CalibrationError:
            continue
    return out


# -- Fig. 6: case study -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CaseStudyResult:
    """One trajectory summarized at increasing granularities (Fig. 6)."""

    trip: SimulatedTrip
    summaries: dict[int, TrajectorySummary]


def run_case_study(scenario: CityScenario, ks: tuple[int, ...] = (1, 2, 3)) -> CaseStudyResult:
    """Summarize one eventful trip at each granularity of *ks*.

    Mirrors Fig. 6: the same trajectory described at k = 1, 2, 3, with more
    detail appearing as k grows.  The trip is chosen to contain stay points
    and a U-turn, like the paper's example.
    """
    config = TripConfig(u_turn_probability=1.0)
    simulator = TripSimulator(scenario.network, scenario.traffic, config)
    rng = np.random.default_rng(2015)
    for _ in range(40):
        origin, destination = scenario.fleet.sample_od(rng)
        trip = simulator.simulate(origin, destination, 8.25 * 3600.0, rng)
        if not trip.stops or not trip.u_turns:
            continue
        try:
            summaries = {
                k: scenario.stmaker.summarize(trip.raw, k=k) for k in ks
            }
        except CalibrationError:
            continue
        return CaseStudyResult(trip, summaries)
    raise ConfigError("could not find an eventful, calibratable case-study trip")


# -- Fig. 8: feature frequencies across the day ---------------------------------------


@dataclass(frozen=True, slots=True)
class TimeOfDayResult:
    """FF of every feature per two-hour bin (Fig. 8)."""

    bin_labels: list[str]
    ff_by_bin: list[dict[str, float]]
    feature_keys: list[str]

    def daytime_mean(self, key: str) -> float:
        """Mean FF of *key* over the 6:00-18:00 bins."""
        return float(np.mean([self.ff_by_bin[i][key] for i in range(3, 9)]))

    def night_mean(self, key: str) -> float:
        """Mean FF of *key* over the 18:00-6:00 bins."""
        idx = [9, 10, 11, 0, 1, 2]
        return float(np.mean([self.ff_by_bin[i][key] for i in idx]))


def run_time_of_day(
    scenario: CityScenario, trips_per_bin: int = 30, seed: int = 8
) -> TimeOfDayResult:
    """FF per feature for each of the 12 two-hour bins of the day."""
    keys = scenario.registry.keys()
    labels = []
    rows = []
    rng = np.random.default_rng(seed)
    for bin_index in range(12):
        hour = bin_index * 2 + 1  # bin centre
        labels.append(f"{bin_index * 2:02d}:00-{bin_index * 2 + 2:02d}:00")
        trips = scenario.simulate_trips(
            trips_per_bin, depart_time=hour * 3600.0, rng=rng
        )
        summaries = _summarize_trips(scenario.stmaker, trips)
        rows.append(feature_frequency(summaries, keys))
    return TimeOfDayResult(labels, rows, keys)


# -- Fig. 9: landmark usage by significance decile ---------------------------------------


@dataclass(frozen=True, slots=True)
class LandmarkUsageResult:
    """Usage share of each significance decile in the summaries (Fig. 9)."""

    decile_share: list[float]  # index 0 = top 0-10 % significance

    def top_decile_share(self) -> float:
        return self.decile_share[0]

    def top3_share(self) -> float:
        return sum(self.decile_share[:3])


def run_landmark_usage(
    scenario: CityScenario, n_trips: int = 150, seed: int = 9, k: int = 4
) -> LandmarkUsageResult:
    """Which significance deciles the summary landmarks come from (Fig. 9).

    Following the paper's protocol exactly: for each summarized trajectory,
    *its own* landmarks are sorted by significance and split into ten
    groups (top 0-10 %, 10-20 %, ...); every landmark the summary mentions
    (partition endpoints) is attributed to its group, and the usage share
    of each group is reported over the whole summary dataset.
    """
    rng = np.random.default_rng(seed)
    trips = scenario.simulate_trips(n_trips, rng=rng)
    stmaker = scenario.stmaker
    counts = [0] * 10
    for trip in trips:
        try:
            symbolic = stmaker.calibrator.calibrate(trip.raw)
        except CalibrationError:
            continue
        features = stmaker.pipeline.extract(trip.raw, symbolic)
        spans = stmaker.partition(symbolic, features, k=k)
        # Rank the trajectory's landmarks by significance (descending).
        route_ids = symbolic.landmark_ids()
        by_sig = sorted(
            range(len(route_ids)),
            key=lambda i: -scenario.landmarks.get(route_ids[i]).significance,
        )
        decile_of_position = {}
        for rank, position in enumerate(by_sig):
            decile_of_position[position] = min(9, rank * 10 // len(route_ids))
        mentioned_positions = {0, len(route_ids) - 1}
        mentioned_positions.update(span.end_landmark_index for span in spans[:-1])
        for position in mentioned_positions:
            counts[decile_of_position[position]] += 1
    total = sum(counts)
    if total == 0:
        raise ConfigError("no landmark usage recorded")
    return LandmarkUsageResult([c / total for c in counts])


# -- Fig. 10(a): effect of the Spe feature weight ------------------------------------------


@dataclass(frozen=True, slots=True)
class WeightSweepResult:
    """FF per feature at each tested weight of Spe (Fig. 10(a))."""

    weights: list[float]
    ff_by_weight: list[dict[str, float]]
    feature_keys: list[str]


def run_feature_weight_sweep(
    scenario: CityScenario,
    weights: tuple[float, ...] = (0.5, 1.0, 2.0, 3.0, 4.0),
    n_trips: int = 100,
    seed: int = 10,
) -> WeightSweepResult:
    """Sweep the weight of the speed feature, all else at defaults."""
    rng = np.random.default_rng(seed)
    trips = scenario.simulate_trips(n_trips, rng=rng)
    keys = scenario.registry.keys()
    rows = []
    for weight in weights:
        stmaker = scenario.summarizer_with(
            SummarizerConfig(feature_weights={SPEED: weight})
        )
        summaries = _summarize_trips(stmaker, trips)
        rows.append(feature_frequency(summaries, keys))
    return WeightSweepResult(list(weights), rows, keys)


# -- Fig. 10(b): effect of the partition size k ----------------------------------------------


@dataclass(frozen=True, slots=True)
class PartitionSizeSweepResult:
    """FF per feature at each partition size k (Fig. 10(b))."""

    ks: list[int]
    ff_by_k: list[dict[str, float]]
    feature_keys: list[str]
    routing_keys: list[str]
    moving_keys: list[str]

    def routing_mean(self, row: int) -> float:
        return float(np.mean([self.ff_by_k[row][k] for k in self.routing_keys]))

    def moving_mean(self, row: int) -> float:
        return float(np.mean([self.ff_by_k[row][k] for k in self.moving_keys]))


def run_partition_size_sweep(
    scenario: CityScenario,
    ks: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7),
    n_trips: int = 100,
    seed: int = 11,
) -> PartitionSizeSweepResult:
    """Sweep the requested partition count k over a fixed trip set.

    Trips are drawn longer than the default corpus so that even ``k = 7``
    partitions span several segments each — matching the paper's setting,
    where trajectories have dozens of landmarks.
    """
    from repro.simulate import FleetConfig

    rng = np.random.default_rng(seed)
    long_fleet = scenario.fleet.with_config(FleetConfig(min_trip_m=3_000.0))
    trips = long_fleet.generate(n_trips, rng, id_prefix="sweep")
    keys = scenario.registry.keys()
    rows = []
    for k in ks:
        summaries = _summarize_trips(scenario.stmaker, trips, k=k)
        rows.append(feature_frequency(summaries, keys))
    return PartitionSizeSweepResult(
        list(ks), rows, keys,
        scenario.registry.routing_keys(), scenario.registry.moving_keys(),
    )


# -- Fig. 11: user study ---------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class UserStudyResult:
    """Understanding-level histogram of the simulated user study (Fig. 11)."""

    histogram: dict[int, float]
    grades: list[GradedSummary]


def run_user_study_experiment(
    scenario: CityScenario,
    n_summaries: int = 450,
    n_readers: int = 30,
    seed: int = 12,
) -> UserStudyResult:
    """The paper's protocol: 450 summaries graded by 30 (simulated) readers."""
    rng = np.random.default_rng(seed)
    trips = scenario.simulate_trips(n_summaries, rng=rng)
    pairs = []
    for trip in trips:
        try:
            pairs.append((trip, scenario.stmaker.summarize(trip.raw)))
        except CalibrationError:
            continue
    grades = run_user_study(pairs, scenario.landmarks, n_readers, rng)
    return UserStudyResult(level_histogram(grades), grades)


# -- Fig. 12: summarization time cost ----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class EfficiencyResult:
    """Mean per-trajectory summarization cost (Fig. 12)."""

    by_size: list[tuple[str, float]]  # (|T| bucket label, mean ms)
    by_k: list[tuple[int, float]]     # (k, mean ms)


def run_efficiency(
    scenario: CityScenario,
    n_trips: int = 60,
    ks: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7),
    seed: int = 13,
) -> EfficiencyResult:
    """Time a single-trajectory summarization versus |T| and versus k."""
    rng = np.random.default_rng(seed)
    trips = scenario.simulate_trips(n_trips, rng=rng)
    calibrated: list[tuple[SimulatedTrip, SymbolicTrajectory]] = []
    for trip in trips:
        try:
            calibrated.append((trip, scenario.stmaker.calibrator.calibrate(trip.raw)))
        except CalibrationError:
            continue

    # |T| buckets of width 10 landmarks.  Each timing is an
    # ``experiment.summarize`` span, so it shows up in any active trace.
    buckets: dict[int, list[float]] = {}
    for trip, symbolic in calibrated:
        with span("experiment.summarize", size=len(symbolic)) as sp:
            scenario.stmaker.summarize_calibrated(trip.raw, symbolic)
        buckets.setdefault(len(symbolic) // 10, []).append(sp.duration_ms)
    by_size = [
        (f"{bucket * 10}-{bucket * 10 + 9}", float(np.mean(times)))
        for bucket, times in sorted(buckets.items())
    ]

    by_k = []
    sample = calibrated[: min(20, len(calibrated))]
    for k in ks:
        times = []
        for trip, symbolic in sample:
            with span("experiment.summarize", k=k) as sp:
                scenario.stmaker.summarize_calibrated(trip.raw, symbolic, k=k)
            times.append(sp.duration_ms)
        by_k.append((k, float(np.mean(times))))
    return EfficiencyResult(by_size, by_k)
