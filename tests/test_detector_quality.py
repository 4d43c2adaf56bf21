"""Stay-point and U-turn detector quality against the simulator's truth.

Pins today's recall and precision of ``detect_stay_points`` and
``detect_u_turns`` on whole scenario trips, so that a change to either
detector shows here as a diff of counts.  The trips are city seed 7, 60
ordinary trips plus 60 simulated with ``u_turn_probability=1.0``, sampled
every 5 s and thinned to 15 s and 30 s.

Scoring: a detected U-turn is a hit when it lies within 60 s and 150 m of
a true U-turn not already claimed (the nearest in time wins).  A true stop
of at least 45 s (``StayPointConfig.min_duration_s``) is recalled when a
detected stay overlaps it, and a detected stay is precise when it overlaps
any true stop, both with 30 s of slack on each side.
"""

import numpy as np
import pytest

from repro.features import detect_stay_points, detect_u_turns
from repro.simulate import TripConfig, TripSimulator
from repro.trajectory import take_every

U_TURN_WINDOW_S = 60.0
U_TURN_RADIUS_M = 150.0
STAY_SLACK_S = 30.0
MIN_STOP_S = 45.0

#: Sampling period (s) -> (U-turn hits, true U-turns, detected U-turns),
#: (true stops recalled, true stops, detected stays that overlap a true
#: stop, detected stays).  Recall / precision: U-turns 0.47 / 0.90 at 5 s
#: and none detected at 15 s or 30 s; stays 1.00 / 0.97, 0.93 / 0.97 and
#: 0.43 / 0.93.
PINNED = {
    5: ((60, 127, 67), (164, 164, 177, 182)),
    15: ((0, 127, 0), (152, 164, 160, 165)),
    30: ((0, 127, 0), (70, 164, 70, 75)),
}


@pytest.fixture(scope="module")
def trips(scenario):
    rng = np.random.default_rng(8)
    out = scenario.simulate_trips(60, rng=rng)
    lost = TripSimulator(
        scenario.network, scenario.traffic, TripConfig(u_turn_probability=1.0)
    )
    for i in range(60):
        origin, destination = scenario.fleet.sample_od(rng)
        out.append(lost.simulate(
            origin, destination, (7.0 + 0.25 * i) * 3600.0, rng, f"lost-{i}"
        ))
    return out


def u_turn_hits(detected, truth, projector):
    claimed = set()
    hits = 0
    for turn in detected:
        near = [
            (abs(turn.t - true.t), j)
            for j, true in enumerate(truth)
            if j not in claimed
            and abs(turn.t - true.t) <= U_TURN_WINDOW_S
            and projector.distance_m(turn.location, true.location) <= U_TURN_RADIUS_M
        ]
        if near:
            claimed.add(min(near)[1])
            hits += 1
    return hits


def overlaps(a, b):
    return a.t_start - STAY_SLACK_S <= b.t_end and b.t_start - STAY_SLACK_S <= a.t_end


@pytest.mark.parametrize("period", sorted(PINNED))
def test_detector_scores_are_pinned(scenario, trips, period):
    projector = scenario.network.projector
    u_turns = [0, 0, 0]
    stays = [0, 0, 0, 0]
    for trip in trips:
        points = take_every(trip.raw, period // 5).points
        detected = detect_u_turns(points, projector)
        u_turns[0] += u_turn_hits(detected, trip.u_turns, projector)
        u_turns[1] += len(trip.u_turns)
        u_turns[2] += len(detected)
        found = detect_stay_points(points, projector)
        long_stops = [s for s in trip.stops if s.duration_s >= MIN_STOP_S]
        stays[0] += sum(any(overlaps(s, d) for d in found) for s in long_stops)
        stays[1] += len(long_stops)
        stays[2] += sum(any(overlaps(d, s) for s in trip.stops) for d in found)
        stays[3] += len(found)
    assert (tuple(u_turns), tuple(stays)) == PINNED[period]
