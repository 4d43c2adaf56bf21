"""Zero-dependency metrics registry: counters, gauges, histograms.

The pipeline reports what it does through a process-wide registry —
``metrics().counter("summarize.calls").inc()`` — that is a shared no-op
singleton until explicitly enabled, so instrumented hot paths cost one
function call and one method dispatch when observability is off.

Enable, run, snapshot::

    from repro import obs

    registry = obs.enable_metrics()
    stmaker.summarize(raw)
    print(registry.render_text())
    obs.disable_metrics()

Series names follow ``<stage>.<quantity>[_<unit>]`` — see
``docs/OBSERVABILITY.md`` for the catalogue the pipeline emits.
"""

from __future__ import annotations

import json
import math
import statistics
import threading

#: Default histogram bucket upper bounds — tuned for millisecond latencies
#: and small counts alike (a value lands in the first bucket whose bound
#: it does not exceed).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, math.inf,
)

#: A registry snapshot: plain JSON-serializable dicts, one per series, as
#: produced by :meth:`MetricsRegistry.snapshot` and consumed by
#: :meth:`MetricsRegistry.merge_snapshot`.  A snapshot taken from a fresh
#: registry *is* a delta from zero — the cross-process telemetry contract
#: is "worker records into a fresh registry, ships ``snapshot()``, parent
#: calls ``merge_snapshot()``".
MetricsSnapshot = dict[str, dict[str, object]]


def _bounds_from_labels(labels) -> tuple[float, ...]:
    """Recover histogram bucket bounds from their snapshot labels."""
    return tuple(
        math.inf if label == "+inf" else float(label) for label in labels
    )


def clamped_p95(ordered: list[float]) -> float | None:
    """p95 of pre-sorted raw samples (``None`` for none).

    The exclusive quantile method extrapolates past the extremes on small
    samples; a reported p95 must stay within what was observed, so it is
    clamped to the maximum.
    """
    if len(ordered) < 2:
        return ordered[0] if ordered else None
    return min(statistics.quantiles(ordered, n=20)[-1], ordered[-1])


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> dict[str, object]:
        return {"type": "counter", "value": self._value}


class Gauge:
    """A value that goes up and down (last write wins)."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value

    def to_dict(self) -> dict[str, object]:
        return {"type": "gauge", "value": self._value}


class Histogram:
    """A fixed-bucket histogram with sum/count/min/max.

    ``buckets`` are ascending upper bounds; an observation is counted in
    the first bucket whose bound is ``>=`` the value (cumulative-style
    ``le`` semantics, one count per observation).  A final ``+inf`` bound
    is appended when missing so no observation is ever lost.
    """

    __slots__ = ("name", "buckets", "_lock", "_counts", "count", "sum", "min", "max")

    def __init__(self, name: str, buckets: tuple[float, ...] | None = None) -> None:
        bounds = tuple(buckets) if buckets else DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name!r} buckets must be ascending: {bounds}")
        if not bounds or bounds[-1] != math.inf:
            bounds = bounds + (math.inf,)
        self.name = name
        self.buckets = bounds
        self._lock = threading.Lock()
        self._counts = [0] * len(bounds)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[i] += 1
                    break

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def _snapshot(self) -> tuple[int, float, float, float, list[int]]:
        """A mutually consistent (count, sum, min, max, counts) quintuple.

        Taken under the lock: reading the fields piecemeal from a reader
        thread while a pool worker observes would tear the snapshot (a
        count that includes an observation whose bucket increment it
        misses), which the serving concurrency suite caught.
        """
        with self._lock:
            return self.count, self.sum, self.min, self.max, list(self._counts)

    def _percentile_from(
        self, q: float, count: int, lo: float, hi: float, counts: list[int]
    ) -> float | None:
        if count == 0:
            return None
        if q == 0.0:
            return lo
        rank = q * count
        cumulative = 0.0
        lower = 0.0
        for bound, in_bucket in zip(self.buckets, counts):
            before = cumulative
            cumulative += in_bucket
            if in_bucket and cumulative >= rank:
                if bound == math.inf:
                    return hi
                estimate = lower + (bound - lower) * (rank - before) / in_bucket
                return min(max(estimate, lo), hi)
            if bound != math.inf:
                lower = bound
        return hi  # pragma: no cover - rank <= count always hits a bucket

    def percentile(self, q: float) -> float | None:
        """Estimate the *q*-quantile (``0.0 <= q <= 1.0``) from the buckets.

        Uses linear interpolation inside the bucket holding the target rank
        (the ``histogram_quantile`` estimator), clamped to the observed
        ``[min, max]`` — so a single observation reports itself exactly and
        the ``+inf`` bucket never produces an infinite estimate.  Returns
        ``None`` for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        count, _, lo, hi, counts = self._snapshot()
        return self._percentile_from(q, count, lo, hi, counts)

    def bucket_counts(self) -> dict[str, int]:
        _, _, _, _, counts = self._snapshot()
        return {
            ("+inf" if bound == math.inf else f"{bound:g}"): count
            for bound, count in zip(self.buckets, counts)
        }

    def merge_dict(self, data: dict[str, object]) -> None:
        """Fold another histogram's snapshot dict into this one.

        The donor must share this histogram's bucket bounds (merging
        incompatible layouts would silently misplace observations, so it
        raises instead).  Counts and sums add, min/max take the extremes —
        an associative, commutative fold, which is what lets per-worker
        deltas arrive in any order and any grouping.
        """
        buckets: dict[str, int] = data["buckets"]  # type: ignore[assignment]
        bounds = _bounds_from_labels(buckets.keys())
        if bounds != self.buckets:
            raise ValueError(
                f"histogram {self.name!r}: cannot merge bucket layout "
                f"{bounds} into {self.buckets}"
            )
        count = int(data["count"])  # type: ignore[arg-type]
        if count == 0:
            return
        total = float(data["sum"])  # type: ignore[arg-type]
        lo = float(data["min"])  # type: ignore[arg-type]
        hi = float(data["max"])  # type: ignore[arg-type]
        incoming = list(buckets.values())
        with self._lock:
            self.count += count
            self.sum += total
            if lo < self.min:
                self.min = lo
            if hi > self.max:
                self.max = hi
            for i, c in enumerate(incoming):
                self._counts[i] += c

    def to_dict(self) -> dict[str, object]:
        # One snapshot for the whole dict, so count/sum/percentiles/buckets
        # describe the same moment even while workers keep observing.
        count, total, lo, hi, counts = self._snapshot()
        return {
            "type": "histogram",
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            "min": lo if count else None,
            "max": hi if count else None,
            "p50": self._percentile_from(0.50, count, lo, hi, counts),
            "p95": self._percentile_from(0.95, count, lo, hi, counts),
            "p99": self._percentile_from(0.99, count, lo, hi, counts),
            "buckets": {
                ("+inf" if bound == math.inf else f"{bound:g}"): c
                for bound, c in zip(self.buckets, counts)
            },
        }


class MetricsRegistry:
    """Thread-safe, create-on-first-use registry of named series."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, kind, *args):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = kind(name, *args)
                self._metrics[name] = metric
        if not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str, buckets: tuple[float, ...] | None = None) -> Histogram:
        return self._get_or_create(name, Histogram, buckets)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        with self._lock:
            return self._metrics.get(name)

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()

    def discard_prefix(self, prefix: str) -> None:
        """Forget every series whose name starts with *prefix*."""
        with self._lock:
            for name in [n for n in self._metrics if n.startswith(prefix)]:
                del self._metrics[name]

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    # -- cross-process aggregation ---------------------------------------------

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold a worker's snapshot *delta* into this registry.

        The contract for crossing a worker boundary (a shard thread today,
        a ``ProcessPoolExecutor`` worker tomorrow): the worker records into
        a **fresh** registry, serializes ``snapshot()`` (plain dicts, so it
        survives JSON or pickle), and the parent merges it here.  The fold
        is associative and commutative — per-worker deltas may arrive in
        any order and any grouping and the result is the same registry a
        serial run would have produced:

        * **counters** add;
        * **histograms** add bucket-wise (sum/count accumulate, min/max
          take the extremes) — bucket layouts must match;
        * **gauges** add as *signed offsets*.  A fresh worker registry's
          gauge value is its offset from zero, so disjointly-named gauges
          (the ``serving.shard.<id>.*`` convention) merge exactly; a gauge
          written by several workers under one name sums, which is why
          shared last-write-wins gauges (pool size, live rates) must be
          written on the parent registry, not inside the worker delta.

        Thread-safe: concurrent merges interleave per-series but never
        tear an individual counter/histogram update.
        """
        for name, data in snapshot.items():
            kind = data["type"]
            if kind == "counter":
                self.counter(name).inc(float(data["value"]))  # type: ignore[arg-type]
            elif kind == "gauge":
                self.gauge(name).inc(float(data["value"]))  # type: ignore[arg-type]
            elif kind == "histogram":
                bounds = _bounds_from_labels(data["buckets"].keys())  # type: ignore[union-attr]
                self.histogram(name, bounds).merge_dict(data)
            else:
                raise ValueError(
                    f"unknown metric type {kind!r} for series {name!r}"
                )

    # -- reporting ------------------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """All series as plain dicts, sorted by name (JSON-serializable)."""
        with self._lock:
            items = sorted(self._metrics.items())
        return {name: metric.to_dict() for name, metric in items}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, default=str)

    def export(self, path) -> None:
        """Write the snapshot to *path* as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    def render_text(self) -> str:
        """A human-readable one-line-per-series report."""
        lines = []
        for name, data in self.snapshot().items():
            if data["type"] == "histogram":
                quantiles = " ".join(
                    f"{key}={data[key]:.3f}" if data[key] is not None else f"{key}=-"
                    for key in ("p50", "p95", "p99")
                )
                lines.append(
                    f"{name:<40} histogram  count={data['count']:<8g} "
                    f"mean={data['mean']:<10.3f} {quantiles} "
                    f"min={data['min']} max={data['max']}"
                )
            else:
                lines.append(f"{name:<40} {data['type']:<9}  value={data['value']:g}")
        return "\n".join(lines)


class _NullMetric:
    """Accepts any recording call and does nothing."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


class NullMetrics:
    """Registry stand-in while metrics are disabled: all no-ops."""

    __slots__ = ()
    _METRIC = _NullMetric()

    def counter(self, name: str) -> _NullMetric:
        return self._METRIC

    def gauge(self, name: str) -> _NullMetric:
        return self._METRIC

    def histogram(self, name: str, buckets=None) -> _NullMetric:
        return self._METRIC

    def snapshot(self) -> dict[str, dict[str, object]]:
        return {}


NULL_METRICS = NullMetrics()

_active: MetricsRegistry | NullMetrics = NULL_METRICS


def metrics() -> MetricsRegistry | NullMetrics:
    """The active registry — the no-op singleton unless enabled."""
    return _active


def enable_metrics(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install *registry* (or a fresh one) as the active metrics sink."""
    global _active
    if not isinstance(_active, MetricsRegistry) or registry is not None:
        # Explicit None test: an empty registry is falsy (it has __len__),
        # and `registry or ...` would silently swap it for a fresh one.
        _active = MetricsRegistry() if registry is None else registry
    return _active


def disable_metrics() -> None:
    """Swap the no-op registry back in."""
    global _active
    _active = NULL_METRICS


def metrics_enabled() -> bool:
    return isinstance(_active, MetricsRegistry)
