"""Exactness of the map matcher's shortcuts on scenario trips.

Three shortcuts must never change a match: pruning route searches at
``route_bound_scale * straight + slack``, serving a stage pair from a
search tree that the road network cached for a larger bound, in this
``match`` call or any earlier one, on this thread or another, and reading
candidate edges from the road network's one-cell edge index instead of
scanning a midpoint grid.
"""

import math
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
from repro.mapmatch.candidates import nearest_edges
from repro.roadnet import RoadGrade, TrafficDirection, dijkstra_all
from repro.roadnet.io import network_from_dict, network_to_dict
from repro.trajectory import take_every

UNBOUNDED = MapMatchConfig(route_bound_scale=1e9, route_bound_slack_m=1e12)
#: A bound shorter than the straight line: stage pairs with no route
#: within it break the chain.
BREAKING = MapMatchConfig(route_bound_scale=0.5, route_bound_slack_m=0.0)


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


def stage_pairs(matcher, raw):
    """Consecutive stages of *raw* as *matcher*'s route endpoints, pairwise,
    with the straight-line distance between their samples."""
    network, config = matcher.network, matcher.config
    stages = [
        (p, matcher._stage_options(hits))
        for p in raw.points
        if (hits := nearest_edges(
            network, p.point, config.candidate_radius_m, config.max_candidates,
        ))
    ]
    for (pa, options_a), (pb, options_b) in zip(stages, stages[1:]):
        yield options_a, options_b, network.projector.distance_m(pa.point, pb.point)


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
        for options_a, options_b, straight in stage_pairs(warm, raw):
            before = count_searches["searches"]
            reused, searched = warm._transitions(options_a, options_b, straight)
            assert count_searches["searches"] - before == searched
            reused_searches += searched
            cold.network.search_trees().clear()
            before = count_searches["searches"]
            fresh, searched = cold._transitions(options_a, options_b, straight)
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
        for options_a, options_b, straight in stage_pairs(matcher, raw):
            cold.network.search_trees().clear()
            expected, _ = cold._transitions(options_a, options_b, straight)
            assert matcher._transitions(options_a, options_b, straight)[0] == expected


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


class PairwiseRouteMatcher:
    """Route steps and Viterbi as first written, the reference for
    ``HMMMapMatcher``'s transition matrices and decode: exit and entry
    options rebuilt for every stage pair, one tree lookup per exit option
    and entry option, route distances (inf where there is no route) kept
    in the matrix, and each cell turned into a transition log-probability
    inside the Viterbi loop.  Trees are read from and stored in the
    network's cache, and searched through ``hmm.dijkstra_all``, as the
    matcher does."""

    def __init__(self, network, config):
        self.network = network
        self.config = config

    def match(self, points):
        """``(MatchResult, route matrix per stage pair, searches run)``."""
        stages, breaks = [], []
        for i, sample in enumerate(points):
            cands = candidates_for_point(
                self.network, sample.point,
                self.config.candidate_radius_m, self.config.max_candidates,
            )
            if cands:
                stages.append((i, cands))
            else:
                breaks.append(i)
        chains, matrices = [], []
        searches = chain_start = 0
        steps = []
        for k in range(1, len(stages)):
            (ia, cands_a), (ib, cands_b) = stages[k - 1], stages[k]
            straight = self.network.projector.distance_m(
                points[ia].point, points[ib].point
            )
            matrix, searched = self.route_distances(cands_a, cands_b, straight)
            matrices.append((straight, matrix))
            searches += searched
            if any(cell < math.inf for row in matrix for cell in row):
                steps.append((straight, matrix))
            else:
                chains.append((chain_start, k, steps))
                breaks.append(ib)
                chain_start, steps = k, []
        chains.append((chain_start, len(stages), steps))
        matched = []
        for start, end, chain_steps in chains:
            matched.extend(self.decode(stages[start:end], chain_steps))
        matched.sort(key=lambda m: m.point_index)
        return MatchResult(matched, sorted(set(breaks))), matrices, searches

    def emission_logp(self, candidate):
        z = candidate.distance_m / self.config.sigma_z_m
        return -0.5 * z * z

    def transition_logp(self, route_m, straight_m):
        return -abs(route_m - straight_m) / self.config.beta_m

    def route_distances(self, from_cands, to_cands, straight_m):
        network = self.network
        bound = self.config.route_bound_scale * straight_m + self.config.route_bound_slack_m
        exits, exit_nodes = [], set()
        for c in from_cands:
            edge = network.edge(c.edge_id)
            options = [(edge.v, (1.0 - c.fraction) * edge.length_m)]
            if edge.direction is TrafficDirection.TWO_WAY:
                options.append((edge.u, c.fraction * edge.length_m))
            exits.append(options)
            exit_nodes.update(node for node, _ in options)
        cache = network.search_trees()
        trees, searches = {}, 0
        for node in exit_nodes:
            entry = cache.get(node)
            if entry is None or entry[0] < bound:
                entry = (bound, hmm.dijkstra_all(network, node, max_cost=bound))
                cache[node] = entry
                searches += 1
            trees[node] = entry[1]
        entries = []
        for c in to_cands:
            edge = network.edge(c.edge_id)
            options = [(edge.u, c.fraction * edge.length_m)]
            if edge.direction is TrafficDirection.TWO_WAY:
                options.append((edge.v, (1.0 - c.fraction) * edge.length_m))
            entries.append(options)
        matrix = []
        for a, exit_opts in zip(from_cands, exits):
            row = []
            edge_a = network.edge(a.edge_id)
            for b, entry_opts in zip(to_cands, entries):
                best = math.inf
                if a.edge_id == b.edge_id:
                    delta = b.fraction - a.fraction
                    if edge_a.direction is TrafficDirection.TWO_WAY or delta >= 0.0:
                        best = abs(delta) * edge_a.length_m
                for exit_node, exit_cost in exit_opts:
                    from_costs = trees[exit_node]
                    for entry_node, entry_cost in entry_opts:
                        mid = from_costs.get(entry_node)
                        if mid is None or mid > bound:
                            continue
                        best = min(best, exit_cost + mid + entry_cost)
                row.append(best)
            matrix.append(row)
        return matrix, searches

    def decode(self, stages, steps):
        first_cands = stages[0][1]
        scores = [self.emission_logp(c) for c in first_cands]
        backptr = [[-1] * len(first_cands)]
        for (_, cands_a), (_, cands_b), (straight, matrix) in zip(
            stages, stages[1:], steps
        ):
            new_scores, pointers = [], []
            for j, cand_b in enumerate(cands_b):
                best_score, best_i = -math.inf, 0
                for i in range(len(cands_a)):
                    route = matrix[i][j]
                    if route == math.inf:
                        continue
                    s = scores[i] + self.transition_logp(route, straight)
                    if s > best_score:
                        best_score, best_i = s, i
                if best_score == -math.inf:
                    best_score = max(scores) - 1e6
                    best_i = int(max(range(len(scores)), key=scores.__getitem__))
                new_scores.append(best_score + self.emission_logp(cand_b))
                pointers.append(best_i)
            scores = new_scores
            backptr.append(pointers)
        best = int(max(range(len(scores)), key=scores.__getitem__))
        chosen = [best]
        for pointers in reversed(backptr[1:]):
            chosen.append(pointers[chosen[-1]])
        chosen.reverse()
        return [
            MatchedPoint(idx, cands[pick].edge_id, cands[pick].fraction, cands[pick].distance_m)
            for (idx, cands), pick in zip(stages, chosen)
        ]

    def transition_matrix(self, straight, matrix):
        """The reference's log-probability for every cell (-inf: no route)."""
        return [
            [self.transition_logp(r, straight) if r < math.inf else -math.inf for r in row]
            for row in matrix
        ]


@pytest.mark.parametrize("config", [
    MapMatchConfig(),
    MapMatchConfig(max_candidates=1),
    MapMatchConfig(max_candidates=8),
    UNBOUNDED,
    BREAKING,
], ids=["default", "one-candidate", "eight-candidates", "unbounded", "breaking"])
def test_matches_the_pairwise_reference(
    scenario, trajectories, config, count_searches, monkeypatch
):
    matcher = HMMMapMatcher(cold_copy(scenario.network), config)
    reference = PairwiseRouteMatcher(cold_copy(scenario.network), config)
    seen = []
    transitions = HMMMapMatcher._transitions

    def recorded(self, *args):
        out = transitions(self, *args)
        seen.append(out[0])
        return out

    monkeypatch.setattr(HMMMapMatcher, "_transitions", recorded)
    collector = obs.enable_tracing()
    cells = unreachable = fallbacks = breaks = 0
    searched = {False: 0, True: 0}
    try:
        # The first pass runs on cold caches, the second on the caches the
        # first pass left; both networks' caches grow the same way.
        for warm in (False, True):
            for raw in trajectories:
                before = count_searches["searches"]
                expected, matrices, searches = reference.match(raw.points)
                assert count_searches["searches"] - before == searches
                del seen[:]
                collector.clear()
                assert matcher.match(raw.points) == expected, (warm, raw.trajectory_id)
                assert count_searches["searches"] - before == 2 * searches
                [routes] = collector.by_name("mapmatch.routes")
                assert routes.tags["searches"] == searches, (warm, raw.trajectory_id)
                assert seen == [
                    reference.transition_matrix(straight, matrix)
                    for straight, matrix in matrices
                ], (warm, raw.trajectory_id)
                cells += sum(len(row) for _, matrix in matrices for row in matrix)
                unreachable += sum(
                    cell == math.inf for _, matrix in matrices for row in matrix
                    for cell in row
                )
                # Columns no predecessor reaches in an unbroken chain take
                # the heavy-penalty fallback.
                fallbacks += sum(
                    all(route == math.inf for route in column)
                    for _, matrix in matrices
                    if any(route < math.inf for row in matrix for route in row)
                    for column in zip(*matrix)
                )
                searched[warm] += searches
                breaks += len(expected.breaks)
    finally:
        obs.disable_tracing()
    assert searched[False] > 0 and searched[True] == 0
    assert cells > 0
    if config.max_candidates > 1 and config is not UNBOUNDED:
        # The bound leaves cells without a route: the -inf path is taken.
        assert unreachable > 0 and fallbacks > 0
    if config is BREAKING:
        assert breaks > 0


def test_a_route_exactly_at_the_bound_is_kept(micro_network):
    """A tree cost equal to the bound is a route; only a larger one is not.
    From the end of edge 0→1 to the start of edge 2→5 the one route is
    edge 1→2, and the bound is set to exactly its length."""
    network = cold_copy(micro_network)
    edges = {(edge.u, edge.v): edge for edge in network.edges()}
    a, b, c = edges[(0, 1)], edges[(1, 2)], edges[(2, 5)]
    config = MapMatchConfig(route_bound_scale=0.0, route_bound_slack_m=b.length_m)
    matcher = HMMMapMatcher(network, config)
    reference = PairwiseRouteMatcher(cold_copy(micro_network), config)
    routes, _ = reference.route_distances(
        [Candidate(a.edge_id, 1.0, 0.0)], [Candidate(c.edge_id, 0.0, 0.0)], 0.0
    )
    assert routes == [[b.length_m]]
    matrix, _ = matcher._transitions(
        matcher._stage_options([(0.0, 1.0, a)]),
        matcher._stage_options([(0.0, 0.0, c)]),
        0.0,
    )
    assert matrix == reference.transition_matrix(0.0, routes)
