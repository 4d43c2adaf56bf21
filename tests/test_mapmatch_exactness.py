"""Exactness of the map matcher's shortcuts on scenario trips.

Three shortcuts must never change a match: pruning route searches at
``route_bound_scale * straight + slack``, serving a stage pair from a
search tree that the road network cached for a larger bound, in this
``match`` call or any earlier one, on this thread or another, and reading
candidate edges from the road network's one-cell edge index instead of
scanning a midpoint grid.
"""

import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.artifact import load_artifact, save_artifact
from repro.geo import GeoPoint, GridIndex, point_segment_distance_m
from repro.mapmatch import (
    Candidate,
    HMMMapMatcher,
    MapMatchConfig,
    MatchedPoint,
    MatchResult,
    NearestEdgeMatcher,
    candidates_for_point,
)
from repro.mapmatch import hmm
from repro.roadnet import RoadGrade, TrafficDirection, dijkstra_all
from repro.roadnet.io import network_from_dict, network_to_dict
from repro.trajectory import take_every

UNBOUNDED = MapMatchConfig(route_bound_scale=1e9, route_bound_slack_m=1e12)


def cold_copy(network):
    """An equal network with its own, empty search-tree cache."""
    return network_from_dict(network_to_dict(network))


@pytest.fixture(scope="module")
def trajectories(scenario):
    """80 scenario trips at their 5 s sampling and thinned to 30 s."""
    trips = scenario.simulate_trips(80, rng=np.random.default_rng(2015))
    return [t.raw for t in trips] + [take_every(t.raw, 6) for t in trips]


@pytest.fixture()
def count_searches(monkeypatch):
    """Counts route searches made through the name ``hmm`` calls."""
    counter = {"searches": 0}
    dijkstra = hmm.dijkstra_all

    def counted(*args, **kwargs):
        counter["searches"] += 1
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr(hmm, "dijkstra_all", counted)
    return counter


def stage_pairs(network, config, raw):
    """Consecutive ``(point, candidates)`` stages of *raw*, pairwise."""
    stages = [
        (p, cands)
        for p in raw.points
        if (cands := candidates_for_point(
            network, p.point, config.candidate_radius_m, config.max_candidates,
        ))
    ]
    for (pa, cands_a), (pb, cands_b) in zip(stages, stages[1:]):
        yield cands_a, cands_b, network.projector.distance_m(pa.point, pb.point)


def test_route_bound_never_changes_a_match(scenario, trajectories):
    # Separate networks: the unbounded matcher's whole-network trees would
    # otherwise serve the bounded one, and the bound would never prune.
    bounded = HMMMapMatcher(cold_copy(scenario.network))
    unbounded = HMMMapMatcher(cold_copy(scenario.network), UNBOUNDED)
    for raw in trajectories:
        assert bounded.match(raw.points) == unbounded.match(raw.points), raw.trajectory_id


def test_reused_trees_give_fresh_search_matrices(scenario, trajectories, count_searches):
    warm = HMMMapMatcher(scenario.network)  # the session-wide shared cache
    cold = HMMMapMatcher(cold_copy(scenario.network))
    reused_searches = fresh_searches = 0
    for raw in trajectories[:40]:
        for cands_a, cands_b, straight in stage_pairs(scenario.network, warm.config, raw):
            before = count_searches["searches"]
            reused, searched = warm._route_distances(cands_a, cands_b, straight)
            assert count_searches["searches"] - before == searched
            reused_searches += searched
            cold.network.search_trees().clear()
            before = count_searches["searches"]
            fresh, searched = cold._route_distances(cands_a, cands_b, straight)
            assert count_searches["searches"] - before == searched
            fresh_searches += searched
            assert reused == fresh
    # The shared cache must actually have served pairs for the check to bite.
    assert reused_searches * 3 < fresh_searches


def test_cache_history_never_changes_a_match(scenario, trajectories):
    forward = HMMMapMatcher(cold_copy(scenario.network))
    backward = HMMMapMatcher(cold_copy(scenario.network))
    in_order = [forward.match(raw.points) for raw in trajectories]
    reversed_order = [backward.match(raw.points) for raw in reversed(trajectories)]
    alone = [
        HMMMapMatcher(cold_copy(scenario.network)).match(raw.points)
        for raw in trajectories
    ]
    assert in_order == reversed_order[::-1] == alone
    assert forward.network.search_trees() and backward.network.search_trees()


def test_mutation_empties_the_tree_cache(scenario, trajectories):
    network = cold_copy(scenario.network)
    matcher = HMMMapMatcher(network)
    matcher.match(trajectories[0].points)
    assert network.search_trees()
    node = network.add_node(GeoPoint(0.0, 0.0))
    assert network.search_trees() == {}
    matcher.match(trajectories[0].points)
    assert network.search_trees()
    network.add_edge(
        node.node_id, 0, RoadGrade.VILLAGE, 5.0, TrafficDirection.TWO_WAY, "Spur"
    )
    assert network.search_trees() == {}


def test_artifact_ignores_the_tree_cache(scenario, trajectories, tmp_path):
    save_artifact(scenario.stmaker, tmp_path / "source.json")
    stmaker, _ = load_artifact(tmp_path / "source.json")
    assert stmaker.network.search_trees() == {}
    cold_json = save_artifact(stmaker, tmp_path / "cold.json")
    cold_bin = save_artifact(stmaker, tmp_path / "cold.bin")
    matcher = HMMMapMatcher(stmaker.network)
    for raw in trajectories[:10]:
        matcher.match(raw.points)
    assert stmaker.network.search_trees()
    warm_json = save_artifact(stmaker, tmp_path / "warm.json")
    warm_bin = save_artifact(stmaker, tmp_path / "warm.bin")
    assert (tmp_path / "warm.json").read_bytes() == (tmp_path / "cold.json").read_bytes()
    assert warm_json.fingerprint == cold_json.fingerprint
    assert warm_bin.fingerprint == cold_bin.fingerprint == cold_json.fingerprint


class _StaleAfterCheck(dict):
    """A tree cache where another thread stores a smaller-bound tree for a
    node right after every check of that node, and after every store."""

    def __init__(self, network, stale_bound):
        super().__init__()
        self._network = network
        self._stale_bound = stale_bound

    def _swap(self, node):
        tree = dijkstra_all(self._network, node, max_cost=self._stale_bound)
        super().__setitem__(node, (self._stale_bound, tree))

    def get(self, node, default=None):
        entry = super().get(node, default)
        self._swap(node)
        return entry

    def __setitem__(self, node, entry):
        super().__setitem__(node, entry)
        self._swap(node)


def test_stale_replacement_after_the_check_changes_no_matrix(
    scenario, trajectories, monkeypatch
):
    network = cold_copy(scenario.network)
    matcher = HMMMapMatcher(network)
    stale = _StaleAfterCheck(network, matcher.config.route_bound_slack_m)
    monkeypatch.setattr(network, "search_trees", lambda: stale)
    cold = HMMMapMatcher(cold_copy(scenario.network))
    for raw in trajectories:
        for cands_a, cands_b, straight in stage_pairs(network, matcher.config, raw):
            cold.network.search_trees().clear()
            expected, _ = cold._route_distances(cands_a, cands_b, straight)
            assert matcher._route_distances(cands_a, cands_b, straight)[0] == expected


def test_threads_sharing_one_cache_match_serially(scenario, trajectories):
    trips = trajectories[::4]
    serial = HMMMapMatcher(cold_copy(scenario.network))
    expected = [serial.match(raw.points) for raw in trips]
    shared = HMMMapMatcher(cold_copy(scenario.network))
    results: dict[int, list[MatchResult]] = {}

    def run(worker: int) -> None:
        # Each thread walks the trips from a different start, so threads
        # race to search and replace the same nodes' trees.
        offset = worker * len(trips) // 4
        order = list(range(offset, len(trips))) + list(range(offset))
        out = {i: shared.match(trips[i].points) for i in order}
        results[worker] = [out[i] for i in range(len(trips))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for worker in range(4):
        assert results[worker] == expected, worker


def test_match_spans_count_route_searches(scenario, trajectories, count_searches):
    matcher = HMMMapMatcher(cold_copy(scenario.network))
    collector = obs.enable_tracing()
    try:
        for raw in trajectories[:5]:
            matcher.match(raw.points)
    finally:
        obs.disable_tracing()
    names = [record.name for record in collector.spans()]
    for name in ("mapmatch.candidates", "mapmatch.routes", "mapmatch.decode"):
        assert names.count(name) == 5, name
    routes = collector.by_name("mapmatch.routes")
    assert sum(r.tags["searches"] for r in routes) == count_searches["searches"] > 0


def _nearest_edge_reference(network, points, radius_m):
    """The nearest-edge baseline as first written: nearest_edge, then a
    second projection of the winner for its fraction."""
    matched, breaks = [], []
    for i, sample in enumerate(points):
        hit = network.nearest_edge(sample.point, radius_m)
        if hit is None:
            breaks.append(i)
            continue
        dist, edge = hit
        _, fraction = point_segment_distance_m(
            sample.point, network.node(edge.u).point,
            network.node(edge.v).point, network.projector,
        )
        matched.append(MatchedPoint(i, edge.edge_id, fraction, dist))
    return MatchResult(matched, breaks)


@pytest.mark.parametrize("radius_m", [60.0, 20.0])
def test_nearest_edge_matcher_is_unchanged(scenario, trajectories, radius_m):
    matcher = NearestEdgeMatcher(scenario.network, radius_m)
    for raw in trajectories:
        expected = _nearest_edge_reference(scenario.network, raw.points, radius_m)
        if not expected.matched:
            continue  # both raise; nothing to compare
        assert matcher.match(raw.points) == expected, raw.trajectory_id


class MidpointEdgeQuery:
    """The edge query as first written, the reference for
    ``RoadNetwork.edges_near``: edges bucketed by midpoint in a
    :class:`GridIndex`, a scan widened to ``radius + max_len / 2 + 1`` so
    that long edges are not missed, and ``point_segment_distance_m`` per
    edge, in scan order."""

    def __init__(self, network):
        self.network = network
        self.grid = GridIndex(network.projector)
        for edge in network.edges():
            a, b = network.node(edge.u).point, network.node(edge.v).point
            self.grid.insert(GeoPoint((a.lat + b.lat) / 2.0, (a.lon + b.lon) / 2.0), edge)
        self.max_len = max((edge.length_m for edge in network.edges()), default=0.0)

    def edges_near(self, point, radius_m):
        hits = []
        for _, edge in self.grid.query_radius(point, radius_m + self.max_len / 2.0 + 1.0):
            dist, fraction = point_segment_distance_m(
                point, self.network.node(edge.u).point,
                self.network.node(edge.v).point, self.network.projector,
            )
            if dist <= radius_m:
                hits.append((dist, fraction, edge))
        return hits

    def candidates(self, point, radius_m, max_candidates):
        hits = sorted(self.edges_near(point, radius_m), key=lambda hit: hit[0])
        return [
            Candidate(edge.edge_id, fraction, dist)
            for dist, fraction, edge in hits[:max_candidates]
        ]


@pytest.mark.parametrize("radius_m", [60.0, 500.0])
def test_candidate_lists_are_unchanged(scenario, trajectories, radius_m):
    network = scenario.network
    reference = MidpointEdgeQuery(network)
    points = [p.point for raw in trajectories for p in raw.points]
    points += [node.point for node in network.nodes()]
    tied = 0
    for point in points:
        expected = reference.edges_near(point, radius_m)
        assert network.edges_near(point, radius_m) == expected, point
        candidates = reference.candidates(point, radius_m, 5)
        assert candidates_for_point(network, point, radius_m, 5) == candidates, point
        nearest = min(expected, key=lambda hit: hit[0], default=None)
        assert network.nearest_edge(point, radius_m) == (
            None if nearest is None else (nearest[0], nearest[2])
        ), point
        distances = [c.distance_m for c in candidates]
        tied += len(set(distances)) < len(distances)
    # Exact ties (samples nearest a shared node) must occur, or the order
    # they keep would go unchecked.
    assert tied > 0
