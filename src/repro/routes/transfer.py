"""Transfer network: landmark-to-landmark transition statistics.

Built once over the training (historical) symbolic trajectories, this
directed multigraph records how often traffic moves directly between two
landmarks.  It is the shared substrate of popular-route mining
(:mod:`repro.routes.popular`) and of the check-in-free part of landmark
significance (taxi visits).

The network also holds the popular-route miner's shortest-path trees
(:meth:`TransferNetwork.route_trees`), one per ``(source, min_support)``,
filled on first use.  Every :meth:`~TransferNetwork.add_transition` drops
them, and they are never serialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.landmarks import LandmarkId
from repro.trajectory import SymbolicTrajectory


@dataclass(slots=True)
class RouteTrees:
    """Shortest-path trees over one state of a :class:`TransferNetwork`.

    ``index`` numbers every landmark of the network densely and ``ids``
    maps the numbers back.  ``trees[(source, min_support)]`` holds, per
    landmark number, the number of its parent on the tree rooted at
    ``source``: ``-1`` for an unreached landmark, and the source's own
    number for the source.
    """

    index: dict[LandmarkId, int]
    ids: tuple[LandmarkId, ...]
    trees: dict[tuple[LandmarkId, int], tuple[int, ...]] = field(default_factory=dict)


class TransferNetwork:
    """Directed landmark graph weighted by observed transition counts."""

    def __init__(self) -> None:
        self._out: dict[LandmarkId, dict[LandmarkId, int]] = {}
        self._total_transitions = 0
        self._route_trees: RouteTrees | None = None

    # -- construction --------------------------------------------------------

    def add_transition(self, src: LandmarkId, dst: LandmarkId, count: int = 1) -> None:
        """Record *count* direct movements from *src* to *dst*."""
        if count < 1:
            return
        self._out.setdefault(src, {})
        self._out[src][dst] = self._out[src].get(dst, 0) + count
        self._total_transitions += count
        self._route_trees = None

    def add_trajectory(self, trajectory: SymbolicTrajectory) -> None:
        """Record every consecutive landmark pair of *trajectory*."""
        ids = trajectory.landmark_ids()
        for src, dst in zip(ids, ids[1:]):
            self.add_transition(src, dst)

    def add_trajectories(self, trajectories: Iterable[SymbolicTrajectory]) -> None:
        """Bulk :meth:`add_trajectory`."""
        for trajectory in trajectories:
            self.add_trajectory(trajectory)

    # -- queries --------------------------------------------------------------

    @property
    def total_transitions(self) -> int:
        return self._total_transitions

    def transition_count(self, src: LandmarkId, dst: LandmarkId) -> int:
        """Observed direct movements from *src* to *dst*."""
        return self._out.get(src, {}).get(dst, 0)

    def out_degree(self, src: LandmarkId) -> int:
        """Total observed movements leaving *src*."""
        return sum(self._out.get(src, {}).values())

    def out_transitions(self, src: LandmarkId) -> dict[LandmarkId, int]:
        """Successor landmarks of *src* with their counts (a copy)."""
        return dict(self._out.get(src, {}))

    def transition_probability(self, src: LandmarkId, dst: LandmarkId) -> float:
        """Empirical probability of moving to *dst* next, given at *src*."""
        total = self.out_degree(src)
        if total == 0:
            return 0.0
        return self.transition_count(src, dst) / total

    def landmarks(self) -> set[LandmarkId]:
        """Every landmark that appears as a source or a destination."""
        seen = set(self._out)
        for successors in self._out.values():
            seen.update(successors)
        return seen

    def route_trees(self) -> RouteTrees:
        """The popular-route trees of the network as it stands.

        Filled and read by :class:`~repro.routes.PopularRouteMiner`;
        replaced by an empty one on every mutation.  Callers never mutate
        a stored tree, and a reader that bound the returned object keeps a
        consistent index and trees without a lock.
        """
        memo = self._route_trees
        if memo is None:
            ids = tuple(dict.fromkeys(
                landmark
                for src, successors in self._out.items()
                for landmark in (src, *successors)
            ))
            memo = RouteTrees({landmark: i for i, landmark in enumerate(ids)}, ids)
            self._route_trees = memo
        return memo

    def edges(self) -> Iterator[tuple[LandmarkId, LandmarkId, int]]:
        """Iterate ``(src, dst, count)`` over all observed transitions."""
        for src, successors in self._out.items():
            for dst, count in successors.items():
                yield (src, dst, count)

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-compatible representation."""
        return {
            "edges": [[src, dst, count] for src, dst, count in self.edges()]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TransferNetwork":
        """Inverse of :meth:`to_dict`."""
        network = cls()
        for src, dst, count in data["edges"]:
            network.add_transition(src, dst, count)
        return network
