"""Popular-route mining (after Chen, Shen & Zhou, ICDE'11).

The most popular route ``PR`` between two landmarks is the route that
maximizes the product of landmark-to-landmark transfer probabilities
observed in the historical trajectories.  Maximizing a product of
probabilities is a shortest-path problem under ``-log`` edge weights, solved
here with Dijkstra over the transfer network.  Each source's search runs
once: its whole tree stays with the transfer network, which drops it on
the next mutation.
"""

from __future__ import annotations

import heapq
import math

from repro.exceptions import ConfigError
from repro.landmarks import LandmarkId
from repro.routes.transfer import TransferNetwork


class PopularRouteMiner:
    """Mines the most popular historical route between landmark pairs."""

    def __init__(self, transfers: TransferNetwork, min_support: int = 1) -> None:
        if min_support < 1:
            raise ConfigError(f"min_support must be at least 1, got {min_support}")
        self.transfers = transfers
        self.min_support = min_support

    def popular_route(
        self, source: LandmarkId, target: LandmarkId
    ) -> list[LandmarkId] | None:
        """The popularity-maximizing landmark path, or ``None`` if no
        historical route connects the pair.

        Transitions with support below ``min_support`` are ignored, so a
        single eccentric trajectory cannot define the "popular" route when
        the threshold is raised.

        The path is read off the shortest-path tree of *source*, which the
        transfer network keeps per ``(source, min_support)`` until its next
        mutation.  A search that stops when it pops *target* pops the same
        landmarks in the same heap order up to there as the full search
        that builds the tree, and a popped landmark's parent never changes,
        so both give the same path, ties included.
        """
        if source == target:
            return [source]
        memo = self.transfers.route_trees()
        key = (source, self.min_support)
        tree = memo.trees.get(key)
        if tree is None:
            tree = self._search_tree(source, memo.index)
            memo.trees[key] = tree
        node = memo.index.get(target)
        if node is None or tree[node] < 0:
            return None
        ids = memo.ids
        path = [target]
        parent = tree[node]
        while parent != node:
            path.append(ids[parent])
            node = parent
            parent = tree[node]
        path.reverse()
        return path

    def _search_tree(
        self, source: LandmarkId, index: dict[LandmarkId, int]
    ) -> tuple[int, ...]:
        """Dijkstra under ``-log`` transfer probabilities from *source* to
        every landmark it reaches, as dense parent numbers (see
        :class:`~repro.routes.transfer.RouteTrees`)."""
        dist: dict[LandmarkId, float] = {source: 0.0}
        parents: dict[LandmarkId, LandmarkId] = {}
        done: set[LandmarkId] = set()
        heap: list[tuple[float, int]] = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            out = self.transfers.out_transitions(u)
            total = sum(out.values())
            if total == 0:
                continue
            for v, count in out.items():
                if count < self.min_support or v in done:
                    continue
                weight = -math.log(count / total)
                nd = d + weight
                if nd < dist.get(v, math.inf):
                    dist[v] = nd
                    parents[v] = u
                    heapq.heappush(heap, (nd, v))
        tree = [-1] * len(index)
        if source in index:
            tree[index[source]] = index[source]
        for v, u in parents.items():
            tree[index[v]] = index[u]
        return tuple(tree)

    def route_popularity(self, route: list[LandmarkId]) -> float:
        """Product of transfer probabilities along *route* (0 if any hop
        is unobserved)."""
        if len(route) < 2:
            return 1.0
        p = 1.0
        for src, dst in zip(route, route[1:]):
            p *= self.transfers.transition_probability(src, dst)
            if p == 0.0:
                return 0.0
        return p
