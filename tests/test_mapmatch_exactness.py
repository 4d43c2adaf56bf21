"""Exactness of the HMM matcher's route-search shortcuts on scenario trips.

Two shortcuts must never change a match: pruning route searches at
``route_bound_scale * straight + slack``, and serving a stage pair from a
search tree cached for a larger bound earlier in the same ``match`` call.
"""

import numpy as np
import pytest

from repro.mapmatch import HMMMapMatcher, MapMatchConfig, candidates_for_point
from repro.mapmatch import hmm
from repro.trajectory import take_every

UNBOUNDED = MapMatchConfig(route_bound_scale=1e9, route_bound_slack_m=1e12)


@pytest.fixture(scope="module")
def trajectories(scenario):
    """80 scenario trips at their 5 s sampling and thinned to 30 s."""
    trips = scenario.simulate_trips(80, rng=np.random.default_rng(2015))
    return [t.raw for t in trips] + [take_every(t.raw, 6) for t in trips]


def test_route_bound_never_changes_a_match(scenario, trajectories):
    bounded = HMMMapMatcher(scenario.network)
    unbounded = HMMMapMatcher(scenario.network, UNBOUNDED)
    for raw in trajectories:
        assert bounded.match(raw.points) == unbounded.match(raw.points), raw.trajectory_id


def test_reused_trees_give_fresh_search_matrices(scenario, trajectories, monkeypatch):
    matcher = HMMMapMatcher(scenario.network)
    config = matcher.config
    dijkstra_all = hmm.dijkstra_all
    searches = 0

    def counted(*args, **kwargs):
        nonlocal searches
        searches += 1
        return dijkstra_all(*args, **kwargs)

    monkeypatch.setattr(hmm, "dijkstra_all", counted)
    reused_searches = fresh_searches = 0
    for raw in trajectories[:40]:
        stages = [
            (p, cands)
            for p in raw.points
            if (cands := candidates_for_point(
                scenario.network, p.point,
                config.candidate_radius_m, config.max_candidates,
            ))
        ]
        trees: dict = {}
        for (pa, cands_a), (pb, cands_b) in zip(stages, stages[1:]):
            straight = scenario.network.projector.distance_m(pa.point, pb.point)
            before = searches
            reused = matcher._route_distances(cands_a, cands_b, straight, trees)
            reused_searches += searches - before
            before = searches
            assert reused == matcher._route_distances(cands_a, cands_b, straight, {})
            fresh_searches += searches - before
    # The shared cache must actually have served pairs for the check to bite.
    assert reused_searches * 3 < fresh_searches
