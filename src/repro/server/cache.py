"""Bounded LRU hot caches for the serving front-end.

The paper's two historical lookups are pure functions of the trained
model: the popular route between two landmarks with the routing features
of its hops (Sec. V-A), and the regular value of a landmark hop read off
the historical feature map (Sec. V-B).  Without this module a popular
route is read off the stored popular-route tree of its source landmark
(:meth:`~repro.routes.TransferNetwork.route_trees`), and each hop's
features off the road network's hop memo
(:meth:`~repro.roadnet.RoadNetwork.hop_features`); both memos are filled
on first use and shared by batch and server calls.  A regular value is a
feature-map read.  This module keeps the answers per landmark pair,
behind the front door:

* :class:`LRUCache` — a thread-safe bounded least-recently-used map with
  ``server.cache.<name>.hits`` / ``.misses`` / ``.evictions`` counters
  and a ``.size`` gauge.  ``hits + misses == lookups`` holds exactly,
  under any interleaving (counted inside the lock).
* :class:`HotQueryCaches` — the pair of caches the server holds (popular
  routes, anchor history), keyed on ``(artifact_fingerprint, query)``
  and invalidated as a unit when the fingerprint changes
  (:meth:`HotQueryCaches.invalidate`).
* :func:`cached_view` — a sibling :class:`~repro.core.STMaker` sharing
  all trained state whose feature selector reads through the caches.
  Because both memoized functions are pure with respect to the trained
  state, the view is **byte-identical** to the plain model — pinned by
  ``tests/test_server_differential.py``.

The caches live parent-side: ``executor="process"`` workers rebuild the
plain model from the artifact and compute from scratch (documented in
``docs/SERVING.md``), so process-pool serving is unaffected — and still
identical.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Hashable

from repro.core.selection import FeatureSelector
from repro.exceptions import ConfigError
from repro.obs import metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.summarizer import STMaker

#: Sentinel distinguishing "not cached" from a cached ``None`` (the
#: feature map legitimately answers ``None`` for unseen hops).
MISS = object()


class LRUCache:
    """A thread-safe bounded least-recently-used cache.

    ``get`` returns :data:`MISS` (not ``None``) on absence so cached
    ``None`` values survive round trips.  Hit/miss/eviction counts are
    kept locally (exact, updated inside the lock) and mirrored to the
    ``server.cache.<name>.*`` metrics.
    """

    def __init__(self, name: str, capacity: int) -> None:
        if capacity < 1:
            raise ConfigError(f"cache capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._lock = threading.Lock()
        self._data: OrderedDict[Hashable, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable) -> object:
        """The cached value for *key*, or :data:`MISS`."""
        with self._lock:
            value = self._data.get(key, MISS)
            if value is MISS:
                self.misses += 1
            else:
                self._data.move_to_end(key)
                self.hits += 1
        m = metrics()
        if value is MISS:
            m.counter(f"server.cache.{self.name}.misses").inc()
        else:
            m.counter(f"server.cache.{self.name}.hits").inc()
        return value

    def put(self, key: Hashable, value: object) -> None:
        """Insert (or refresh) *key*, evicting the LRU tail over capacity."""
        evicted = 0
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                evicted += 1
            self.evictions += evicted
            size = len(self._data)
        m = metrics()
        if evicted:
            m.counter(f"server.cache.{self.name}.evictions").inc(evicted)
        m.gauge(f"server.cache.{self.name}.size").set(float(size))

    def clear(self) -> int:
        """Drop every entry; returns how many were dropped."""
        with self._lock:
            dropped = len(self._data)
            self._data.clear()
        metrics().gauge(f"server.cache.{self.name}.size").set(0.0)
        return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    @property
    def lookups(self) -> int:
        with self._lock:
            return self.hits + self.misses

    def stats(self) -> dict[str, object]:
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "size": len(self._data),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hits / lookups if lookups else 0.0,
            }


class HotQueryCaches:
    """The server's hot caches, keyed on ``(artifact_fingerprint, query)``.

    ``routes`` memoizes :meth:`FeatureSelector._popular_hops` — the whole
    popular-route + per-hop feature chain, keyed by landmark pair.  It
    fronts two model-side memos that already make a miss cheap: the
    transfer network keeps one popular-route tree per source landmark
    (:meth:`~repro.routes.TransferNetwork.route_trees`) and the road
    network keeps each hop's features
    (:meth:`~repro.roadnet.RoadNetwork.hop_features`).  ``anchors`` memoizes
    :meth:`~repro.routes.HistoricalFeatureMap.regular_value`.  Every key
    carries the fingerprint *captured when its view was built* (not read
    at lookup time): a view computes only from the model it wraps, so its
    entries must be keyed by that model's fingerprint even if
    :meth:`invalidate` adopts a new one mid-request — otherwise an
    in-flight request during a swap would store old-model values under
    new-fingerprint keys and poison the new model's cache.  With captured
    keys, a request racing a swap writes only under the old, already
    cleared fingerprint; those stragglers are unreachable from the new
    view and age out of the LRU.  On a fingerprint change
    :meth:`invalidate` additionally drops the dead entries so they stop
    occupying capacity.
    """

    def __init__(
        self,
        fingerprint: str,
        *,
        route_capacity: int = 256,
        anchor_capacity: int = 4096,
    ) -> None:
        self.fingerprint = fingerprint
        self.routes = LRUCache("routes", route_capacity)
        self.anchors = LRUCache("anchors", anchor_capacity)
        self.invalidations = 0

    @classmethod
    def for_model(cls, stmaker: "STMaker", **kwargs) -> "HotQueryCaches":
        """Caches fingerprinted against *stmaker*'s trained state."""
        return cls(model_fingerprint(stmaker), **kwargs)

    def invalidate(self, new_fingerprint: str) -> bool:
        """Adopt *new_fingerprint*; drop all entries if it changed.

        Returns whether anything changed.  Idempotent for the current
        fingerprint (a same-model swap keeps the warm caches).
        """
        if new_fingerprint == self.fingerprint:
            return False
        self.fingerprint = new_fingerprint
        self.routes.clear()
        self.anchors.clear()
        self.invalidations += 1
        metrics().counter("server.cache.invalidations").inc()
        return True

    def stats(self) -> dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "invalidations": self.invalidations,
            "routes": self.routes.stats(),
            "anchors": self.anchors.stats(),
        }


def model_fingerprint(stmaker: "STMaker") -> str:
    """The content fingerprint of *stmaker*'s trained state.

    The same sha256-over-canonical-dict that :mod:`repro.artifact` stamps
    into published artifacts, so a server fingerprint and an artifact
    fingerprint agree for the same model.
    """
    from repro.artifact import compute_fingerprint, stmaker_to_dict

    return compute_fingerprint(stmaker_to_dict(stmaker))


class _CachingFeatureMap:
    """Read-through cache in front of a :class:`HistoricalFeatureMap`.

    Only :meth:`regular_value` is memoized; everything else delegates.
    ``None`` answers (hop never observed in training) are cached too —
    they trigger the selector's observed-value fallback every time, so
    recomputing them would be pure waste.

    *fingerprint* is the identity of the wrapped model, captured at
    construction — never re-read from the (shared, swappable) caches, so
    a request in flight across :meth:`HotQueryCaches.invalidate` can only
    write under the fingerprint its values were computed from.
    """

    __slots__ = ("_base", "_caches", "_fingerprint")

    def __init__(self, base, caches: HotQueryCaches, fingerprint: str) -> None:
        self._base = base
        self._caches = caches
        self._fingerprint = fingerprint

    def regular_value(self, src: int, dst: int, key: str):
        caches = self._caches
        cache_key = (self._fingerprint, src, dst, key)
        value = caches.anchors.get(cache_key)
        if value is MISS:
            value = self._base.regular_value(src, dst, key)
            caches.anchors.put(cache_key, value)
        return value

    def __getattr__(self, name):
        return getattr(self._base, name)


class CachingFeatureSelector(FeatureSelector):
    """A :class:`FeatureSelector` that reads hot queries through the caches.

    Both overrides are pure functions of immutable trained state, so the
    cached answers are exactly what the base class would recompute —
    the summaries stay byte-identical.  The fingerprint in every key is
    snapshotted at construction (see :class:`_CachingFeatureMap`), so a
    selector outlived by a model swap keeps writing under the fingerprint
    of the model it actually reads.
    """

    def __init__(self, base: FeatureSelector, caches: HotQueryCaches) -> None:
        fingerprint = caches.fingerprint
        super().__init__(
            base.registry, base.config, base.pipeline, base.popular_routes,
            _CachingFeatureMap(base.feature_map, caches, fingerprint),
            base.landmarks,
        )
        self.caches = caches
        self._fingerprint = fingerprint

    def _popular_hops(self, src: int, dst: int):
        key = (self._fingerprint, src, dst)
        hops = self.caches.routes.get(key)
        if hops is MISS:
            hops = super()._popular_hops(src, dst)
            self.caches.routes.put(key, hops)
        return hops


def cached_view(stmaker: "STMaker", caches: HotQueryCaches) -> "STMaker":
    """A sibling of *stmaker* whose selector reads through *caches*.

    Cheap (shares every trained structure, like
    :meth:`~repro.core.STMaker.with_config`); only the feature selector is
    replaced.  The view's ``feature_map`` attribute stays the plain map,
    so artifact persistence — and therefore ``executor="process"``
    serving — sees the identical model.
    """
    view = stmaker.with_config(stmaker.config)
    view.selector = CachingFeatureSelector(view.selector, caches)
    return view
