"""Hidden-Markov-model map matching (after Newson & Krumm, SIGSPATIAL'09).

States are road-position candidates per GPS sample; emissions model GPS
noise as a zero-mean Gaussian over the perpendicular distance; transitions
penalize the difference between on-network route distance and straight-line
distance (drivers rarely detour between consecutive samples).  Viterbi
decoding yields the most probable road sequence.

Route distances between consecutive candidates come from bounded Dijkstra
searches launched from the distinct exit nodes of the current candidate set.
Each stage's candidates become route endpoints once, and each stage pair's
matrix of transition log-probabilities (``-inf`` where no route lies within
the bound) is computed once, both to detect chain breaks and to drive the
Viterbi step.  Search trees are cached on the road network
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
from repro.mapmatch.candidates import nearest_edges
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

#: A candidate road position: :meth:`RoadNetwork.edges_near`'s
#: ``(distance_m, fraction, edge)``.
_Hit = tuple[float, float, RoadEdge]

#: A candidate as a route source: ``(exits, edge_id, fraction, length_m,
#: two_way)``, with ``exits`` the ``(node, cost from the candidate to the
#: node)`` it can leave by.
_Source = tuple[tuple[tuple[NodeId, float], ...], EdgeId, float, float, bool]

#: One stage's candidates as route endpoints, built once per stage:
#: ``(sources, exit_nodes, entries, on_edge)``, that is each candidate's
#: :data:`_Source`, the exit nodes once each, each node a candidate can be
#: entered from with its ``(column, cost from the node to the candidate)``
#: options, and each edge id's candidates as ``(column, fraction)``.
_StageOptions = tuple[
    list[_Source],
    tuple[NodeId, ...],
    tuple[tuple[NodeId, list[tuple[int, float]]], ...],
    dict[EdgeId, list[tuple[int, float]]],
]


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
        # Stages as (sample index, its candidates as edges_near hits).
        stages: list[tuple[int, list[_Hit]]] = []
        breaks: list[int] = []
        with span("mapmatch.candidates"):
            for i, sample in enumerate(points):
                hits = nearest_edges(
                    self.network, sample.point,
                    self.config.candidate_radius_m, self.config.max_candidates,
                )
                if hits:
                    stages.append((i, hits))
                else:
                    breaks.append(i)
        if not stages:
            raise MapMatchError("no sample lies near any road")

        # Unbroken chains as (first stage, end stage, transition matrices).
        chains: list[tuple[int, int, list[list[list[float]]]]] = []
        with span("mapmatch.routes") as routes:
            distance = self.network.projector.distance_m
            searches = 0
            chain_start = 0
            matrices: list[list[list[float]]] = []
            options = [self._stage_options(hits) for _, hits in stages]
            for k in range(1, len(stages)):
                straight = distance(points[stages[k - 1][0]].point, points[stages[k][0]].point)
                matrix, searched = self._transitions(options[k - 1], options[k], straight)
                searches += searched
                if max(map(max, matrix)) > -math.inf:
                    matrices.append(matrix)
                else:
                    chains.append((chain_start, k, matrices))
                    breaks.append(stages[k][0])
                    chain_start, matrices = k, []
            chains.append((chain_start, len(stages), matrices))
            routes.set_tag("searches", searches)
        matched: list[MatchedPoint] = []
        with span("mapmatch.decode"):
            for start, end, chain_matrices in chains:
                matched.extend(self._decode(stages[start:end], chain_matrices))
        matched.sort(key=lambda m: m.point_index)
        return MatchResult(matched, sorted(set(breaks)))

    # -- internals ----------------------------------------------------------

    def _emission_logp(self, distance_m: float) -> float:
        z = distance_m / self.config.sigma_z_m
        return -0.5 * z * z

    def _stage_options(self, hits: list[_Hit]) -> _StageOptions:
        """One stage's candidates as route endpoints; see :data:`_StageOptions`."""
        sources: list[_Source] = []
        exit_nodes: dict[NodeId, None] = {}
        entries: dict[NodeId, list[tuple[int, float]]] = {}
        on_edge: dict[EdgeId, list[tuple[int, float]]] = {}
        for col, (_, fraction, edge) in enumerate(hits):
            to_u = fraction * edge.length_m
            to_v = (1.0 - fraction) * edge.length_m
            if edge.direction is TrafficDirection.TWO_WAY:
                exits = ((edge.v, to_v), (edge.u, to_u))
                enters = ((edge.u, to_u), (edge.v, to_v))
            else:
                exits = ((edge.v, to_v),)
                enters = ((edge.u, to_u),)
            sources.append((exits, edge.edge_id, fraction, edge.length_m, len(exits) == 2))
            for node, _ in exits:
                exit_nodes[node] = None
            for node, cost in enters:
                if node in entries:
                    entries[node].append((col, cost))
                else:
                    entries[node] = [(col, cost)]
            if edge.edge_id in on_edge:
                on_edge[edge.edge_id].append((col, fraction))
            else:
                on_edge[edge.edge_id] = [(col, fraction)]
        return sources, tuple(exit_nodes), tuple(entries.items()), on_edge

    def _transitions(
        self,
        from_stage: _StageOptions,
        to_stage: _StageOptions,
        straight_m: float,
    ) -> tuple[list[list[float]], int]:
        """Transition log-probabilities between two stages' candidates.

        Cell ``[i][j]`` is ``-|route - straight| / beta`` for the shortest
        route from candidate i to candidate j, and ``-inf`` where no route
        lies within the bound.  Returns the matrix and the number of
        searches this call ran.  Search trees come from the network's
        cache; a tree searched to a larger bound serves this one with its
        costs beyond the bound dropped.  Another thread may replace a
        cached entry at any time, so this call binds the entries it
        checked and reads only those.
        """
        network = self.network
        config = self.config
        bound = config.route_bound_scale * straight_m + config.route_bound_slack_m
        sources, exit_nodes = from_stage[0], from_stage[1]
        entries, on_edge = to_stage[2], to_stage[3]

        # Per exit node, the to-stage entries its tree reaches within the
        # bound, as (column, exit node -> entry node cost, entry cost).
        cache = network.search_trees()
        reach: dict[NodeId, list[tuple[int, float, float]]] = {}
        searches = 0
        for node in exit_nodes:
            entry = cache.get(node)
            if entry is None or entry[0] < bound:
                entry = (bound, dijkstra_all(network, node, max_cost=bound))
                cache[node] = entry
                searches += 1
            tree = entry[1]
            reached = reach[node] = []
            for entry_node, options in entries:
                mid = tree.get(entry_node)
                if mid is not None and mid <= bound:
                    for col, entry_cost in options:
                        reached.append((col, mid, entry_cost))

        size = len(to_stage[0])
        beta = config.beta_m
        matrix: list[list[float]] = []
        for exits, edge_id, fraction, length_m, two_way in sources:
            row = [math.inf] * size
            same_edge = on_edge.get(edge_id)
            if same_edge is not None:
                for col, to_fraction in same_edge:
                    delta = to_fraction - fraction
                    if two_way or delta >= 0.0:
                        row[col] = abs(delta) * length_m
            for exit_node, exit_cost in exits:
                for col, mid, entry_cost in reach[exit_node]:
                    route = exit_cost + mid + entry_cost
                    if route < row[col]:
                        row[col] = route
            # A missing route, inf, becomes -inf.
            matrix.append([-abs(route - straight_m) / beta for route in row])
        return matrix, searches

    def _decode(
        self,
        stages: list[tuple[int, list[_Hit]]],
        matrices: list[list[list[float]]],
    ) -> list[MatchedPoint]:
        """Viterbi over one unbroken chain of stages.

        ``matrices[k]`` holds the transition log-probabilities from stage
        k to stage k + 1 (``-inf`` where no route exists).  Each candidate
        keeps the first predecessor with the greatest score; one that no
        predecessor reaches keeps the best predecessor with a heavy
        penalty, so a chain never silently loses samples.
        """
        emission = self._emission_logp
        scores = [emission(hit[0]) for hit in stages[0][1]]
        backptr: list[list[int]] = []
        for (_, hits), matrix in zip(stages[1:], matrices):
            new_scores: list[float] = []
            pointers: list[int] = []
            for j, hit in enumerate(hits):
                best_score = -math.inf
                best_i = 0
                for i, score in enumerate(scores):
                    total = score + matrix[i][j]
                    if total > best_score:
                        best_score = total
                        best_i = i
                if best_score == -math.inf:
                    best_score = max(scores) - 1e6
                    best_i = scores.index(max(scores))
                new_scores.append(best_score + emission(hit[0]))
                pointers.append(best_i)
            scores = new_scores
            backptr.append(pointers)

        # Backtrack.
        chosen = [scores.index(max(scores))]
        for pointers in reversed(backptr):
            chosen.append(pointers[chosen[-1]])
        chosen.reverse()
        out = []
        for (idx, hits), pick in zip(stages, chosen):
            dist, fraction, edge = hits[pick]
            out.append(MatchedPoint(idx, edge.edge_id, fraction, dist))
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
