"""Hidden-Markov-model map matching (after Newson & Krumm, SIGSPATIAL'09).

States are road-position candidates per GPS sample; emissions model GPS
noise as a zero-mean Gaussian over the perpendicular distance; transitions
penalize the difference between on-network route distance and straight-line
distance (drivers rarely detour between consecutive samples).  Viterbi
decoding yields the most probable road sequence.

Route distances between consecutive candidates come from bounded Dijkstra
searches launched from the distinct exit nodes of the current candidate set.
Each stage pair's route matrix is computed once, both to detect chain breaks
and to drive the Viterbi step.  Search trees are cached on the road network
(:meth:`RoadNetwork.search_trees`), so every ``match`` call, on any thread,
reuses a node's tree for any pair whose bound is no larger: a bounded search
settles nodes in the same order, with the same float sums, as a larger-bound
one, so dropping the entries beyond the smaller bound is exact.  A match is
therefore the same however warm the cache is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from repro.exceptions import MapMatchError
from repro.mapmatch.candidates import Candidate, candidates_for_point
from repro.obs import span
from repro.roadnet import (
    EdgeId,
    NodeId,
    RoadEdge,
    RoadNetwork,
    TrafficDirection,
    dijkstra_all,
)
from repro.trajectory.model import TrajectoryPoint


@dataclass(frozen=True, slots=True)
class MapMatchConfig:
    """HMM parameters; the defaults follow Newson & Krumm's calibration."""

    sigma_z_m: float = 15.0
    beta_m: float = 40.0
    candidate_radius_m: float = 60.0
    max_candidates: int = 5
    #: Route searches are abandoned beyond ``scale * straight_line + slack``.
    route_bound_scale: float = 3.0
    route_bound_slack_m: float = 400.0

    def __post_init__(self) -> None:
        if self.sigma_z_m <= 0.0 or self.beta_m <= 0.0:
            raise MapMatchError("sigma_z and beta must be positive")
        if self.max_candidates < 1:
            raise MapMatchError("need at least one candidate per point")


@dataclass(frozen=True, slots=True)
class MatchedPoint:
    """The decoded road position for one input sample."""

    point_index: int
    edge_id: EdgeId
    fraction: float
    distance_m: float


@dataclass(frozen=True, slots=True)
class MatchResult:
    """Viterbi decode of a sample sequence.

    ``breaks`` lists the sample indexes where the chain had to restart
    (no candidates, or no feasible transition).
    """

    matched: list[MatchedPoint]
    breaks: list[int]

    def edge_sequence(self, network: RoadNetwork) -> list[RoadEdge]:
        """Distinct consecutive edges along the match, in travel order."""
        out: list[RoadEdge] = []
        for m in self.matched:
            if not out or out[-1].edge_id != m.edge_id:
                out.append(network.edge(m.edge_id))
        return out

    def edge_traversals(self, network: RoadNetwork) -> list[tuple[RoadEdge, float]]:
        """Edges in travel order with the distance travelled on each.

        Samples that snap to a node are ambiguous between the incident
        edges; weighting by travelled length (difference of the projected
        fractions of the first and last sample on the edge) makes such
        zero-length touches harmless to downstream feature aggregation.
        """
        # Group matched points into runs of consecutive same-edge samples.
        runs: list[list[float | RoadEdge]] = []  # [edge, first_frac, last_frac]
        for m in self.matched:
            if runs and runs[-1][0].edge_id == m.edge_id:  # type: ignore[union-attr]
                runs[-1][2] = m.fraction
            else:
                runs.append([network.edge(m.edge_id), m.fraction, m.fraction])

        # Extend adjacent runs to the node their edges share, attributing the
        # stretch between the last sample on one edge and the first sample on
        # the next to the edges actually driven.
        def node_fraction(edge: RoadEdge, node: NodeId) -> float | None:
            if node == edge.u:
                return 0.0
            if node == edge.v:
                return 1.0
            return None

        for a, b in zip(runs, runs[1:]):
            edge_a, edge_b = a[0], b[0]
            shared = {edge_a.u, edge_a.v} & {edge_b.u, edge_b.v}
            if not shared:
                continue  # discontinuous match (break); leave as observed
            node = next(iter(shared))
            frac_a = node_fraction(edge_a, node)
            frac_b = node_fraction(edge_b, node)
            if frac_a is not None:
                a[2] = frac_a
            if frac_b is not None:
                b[1] = frac_b

        return [
            (edge, abs(last - first) * edge.length_m)
            for edge, first, last in runs
        ]


class HMMMapMatcher:
    """Matches GPS sample sequences onto the road network."""

    def __init__(self, network: RoadNetwork, config: MapMatchConfig | None = None) -> None:
        self.network = network
        self.config = config or MapMatchConfig()

    def match(self, points: Sequence[TrajectoryPoint]) -> MatchResult:
        """Decode the most probable road positions for *points*.

        Raises :class:`MapMatchError` when no sample has any candidate road.
        """
        if not points:
            raise MapMatchError("cannot match an empty sample sequence")
        stages: list[tuple[int, list[Candidate]]] = []
        breaks: list[int] = []
        with span("mapmatch.candidates"):
            for i, sample in enumerate(points):
                cands = candidates_for_point(
                    self.network, sample.point,
                    self.config.candidate_radius_m, self.config.max_candidates,
                )
                if cands:
                    stages.append((i, cands))
                else:
                    breaks.append(i)
        if not stages:
            raise MapMatchError("no sample lies near any road")

        # Unbroken chains as (first stage, end stage, route steps).
        chains: list[tuple[int, int, list[tuple[float, list[list[float]]]]]] = []
        with span("mapmatch.routes") as routes:
            searches = 0
            chain_start = 0
            steps: list[tuple[float, list[list[float]]]] = []
            for k in range(1, len(stages)):
                (ia, cands_a), (ib, cands_b) = stages[k - 1], stages[k]
                straight = self.network.projector.distance_m(
                    points[ia].point, points[ib].point
                )
                matrix, searched = self._route_distances(cands_a, cands_b, straight)
                searches += searched
                if any(cell < math.inf for row in matrix for cell in row):
                    steps.append((straight, matrix))
                else:
                    chains.append((chain_start, k, steps))
                    breaks.append(ib)
                    chain_start, steps = k, []
            chains.append((chain_start, len(stages), steps))
            routes.set_tag("searches", searches)
        matched: list[MatchedPoint] = []
        with span("mapmatch.decode"):
            for start, end, chain_steps in chains:
                matched.extend(self._decode(stages[start:end], chain_steps))
        matched.sort(key=lambda m: m.point_index)
        return MatchResult(matched, sorted(set(breaks)))

    # -- internals ----------------------------------------------------------

    def _emission_logp(self, candidate: Candidate) -> float:
        z = candidate.distance_m / self.config.sigma_z_m
        return -0.5 * z * z

    def _transition_logp(self, route_m: float, straight_m: float) -> float:
        return -abs(route_m - straight_m) / self.config.beta_m

    def _route_distances(
        self,
        from_cands: list[Candidate],
        to_cands: list[Candidate],
        straight_m: float,
    ) -> tuple[list[list[float]], int]:
        """Route distance matrix between two candidate sets (inf = no route).

        Returns the matrix and the number of searches this call ran.
        Search trees come from the network's cache; a tree searched to a
        larger bound serves this one with its costs beyond the bound dropped.
        Another thread may replace a cached entry at any time, so this call
        binds the entries it checked and reads only those.
        """
        network = self.network
        bound = self.config.route_bound_scale * straight_m + self.config.route_bound_slack_m

        # Exit options per from-candidate: (node, cost to reach that node).
        exits: list[list[tuple[NodeId, float]]] = []
        exit_nodes: set[NodeId] = set()
        for c in from_cands:
            edge = network.edge(c.edge_id)
            options = [(edge.v, (1.0 - c.fraction) * edge.length_m)]
            if edge.direction is TrafficDirection.TWO_WAY:
                options.append((edge.u, c.fraction * edge.length_m))
            exits.append(options)
            exit_nodes.update(node for node, _ in options)

        cache = network.search_trees()
        trees: dict[NodeId, dict[NodeId, float]] = {}
        searches = 0
        for node in exit_nodes:
            entry = cache.get(node)
            if entry is None or entry[0] < bound:
                entry = (bound, dijkstra_all(network, node, max_cost=bound))
                cache[node] = entry
                searches += 1
            trees[node] = entry[1]

        # Entry options per to-candidate: (node, cost from that node).
        entries: list[list[tuple[NodeId, float]]] = []
        for c in to_cands:
            edge = network.edge(c.edge_id)
            options = [(edge.u, c.fraction * edge.length_m)]
            if edge.direction is TrafficDirection.TWO_WAY:
                options.append((edge.v, (1.0 - c.fraction) * edge.length_m))
            entries.append(options)

        matrix: list[list[float]] = []
        for a, exit_opts in zip(from_cands, exits):
            row: list[float] = []
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

    def _decode(
        self,
        stages: list[tuple[int, list[Candidate]]],
        steps: list[tuple[float, list[list[float]]]],
    ) -> list[MatchedPoint]:
        """Viterbi over one unbroken chain of stages.

        ``steps[k]`` is ``(straight_m, route matrix)`` from stage k to k + 1.
        """
        first_cands = stages[0][1]
        scores = [self._emission_logp(c) for c in first_cands]
        backptr: list[list[int]] = [[-1] * len(first_cands)]

        for (_, cands_a), (_, cands_b), (straight, matrix) in zip(
            stages, stages[1:], steps
        ):
            new_scores: list[float] = []
            pointers: list[int] = []
            for j, cand_b in enumerate(cands_b):
                best_score = -math.inf
                best_i = 0
                for i in range(len(cands_a)):
                    route = matrix[i][j]
                    if route == math.inf:
                        continue
                    s = scores[i] + self._transition_logp(route, straight)
                    if s > best_score:
                        best_score = s
                        best_i = i
                if best_score == -math.inf:
                    # Unreachable candidate: keep it decodable with a heavy
                    # penalty so a chain never silently loses samples.
                    best_score = max(scores) - 1e6
                    best_i = int(max(range(len(scores)), key=scores.__getitem__))
                new_scores.append(best_score + self._emission_logp(cand_b))
                pointers.append(best_i)
            scores = new_scores
            backptr.append(pointers)

        # Backtrack.
        best = int(max(range(len(scores)), key=scores.__getitem__))
        chosen = [best]
        for pointers in reversed(backptr[1:]):
            chosen.append(pointers[chosen[-1]])
        chosen.reverse()
        out = []
        for (idx, cands), pick in zip(stages, chosen):
            c = cands[pick]
            out.append(MatchedPoint(idx, c.edge_id, c.fraction, c.distance_m))
        return out


class NearestEdgeMatcher:
    """Baseline matcher: every sample snaps to its nearest edge.

    Used by the map-matching ablation benchmark; it ignores continuity and
    therefore flip-flops between parallel roads under noise.
    """

    def __init__(self, network: RoadNetwork, search_radius_m: float = 60.0) -> None:
        self.network = network
        self.search_radius_m = search_radius_m

    def match(self, points: Sequence[TrajectoryPoint]) -> MatchResult:
        if not points:
            raise MapMatchError("cannot match an empty sample sequence")
        matched = []
        breaks = []
        for i, sample in enumerate(points):
            # The first of equal distances wins, as in RoadNetwork.nearest_edge.
            hit = min(
                self.network.edges_near(sample.point, self.search_radius_m),
                key=itemgetter(0),
                default=None,
            )
            if hit is None:
                breaks.append(i)
                continue
            dist, fraction, edge = hit
            matched.append(MatchedPoint(i, edge.edge_id, fraction, dist))
        if not matched:
            raise MapMatchError("no sample lies near any road")
        return MatchResult(matched, breaks)
