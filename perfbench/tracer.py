"""Spans and counts around the program's public entry points.

Used by the traced run only.  :meth:`Tracer.install` replaces each entry
point with a wrapper that records a span (name, start, end, parent,
request id) or just counts calls, and :meth:`Tracer.restore` puts the
originals back.  Spans are kept in memory; self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter
from dataclasses import dataclass

SPAN = "span"    # record a span
COUNT = "count"  # count calls only (hot, tiny functions)
SETTLED = "settled"  # record a span and add len(result) to "<name>.settled"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None


def entry_points(top_only: bool = False) -> list[tuple[object, str, str, str]]:
    """``(owner, attribute, name, mode)`` for every wrapped entry point.

    ``top_only`` keeps just ``summarize_many`` and ``submit``: in a forked
    process-pool worker the inner spans would be recorded where the
    benchmark cannot read them, and would only slow the worker down.
    """
    from repro.calibration import AnchorCalibrator
    from repro.core import summarizer
    from repro.core.selection import FeatureSelector
    from repro.features import FeaturePipeline
    from repro.mapmatch import hmm
    from repro.roadnet import RoadNetwork
    from repro.routes import HistoricalFeatureMap, PopularRouteMiner
    from repro.server import SummarizationServer

    top = [
        (summarizer.STMaker, "summarize_many", "summarize_many", SPAN),
        (SummarizationServer, "submit", "submit", SPAN),
    ]
    if top_only:
        return top
    return top + [
        (summarizer, "sanitize_trajectory", "sanitize", SPAN),
        (AnchorCalibrator, "calibrate", "calibrate", SPAN),
        (FeaturePipeline, "extract", "extract", SPAN),
        (hmm.HMMMapMatcher, "match", "mapmatch", SPAN),
        # The name hmm.py calls, not repro.roadnet's: other callers of
        # dijkstra_all are outside the item path.
        (hmm, "dijkstra_all", "dijkstra", SETTLED),
        (RoadNetwork, "out_edges", "out_edges", COUNT),
        (RoadNetwork, "edges_near", "edges_near", COUNT),
        (summarizer.STMaker, "partition", "partition", SPAN),
        (FeatureSelector, "assess", "select", SPAN),
        (summarizer, "partition_sentence", "realize", SPAN),
        (PopularRouteMiner, "popular_route", "popular_route", SPAN),
        (HistoricalFeatureMap, "regular_value", "regular_value", SPAN),
    ]


def _request_of(args: tuple) -> str | None:
    """The first trajectory id of a ``summarize_many``/``submit`` call."""
    if len(args) > 1 and isinstance(args[1], (list, tuple)) and args[1]:
        return getattr(args[1][0], "trajectory_id", None)
    return None


class Tracer:
    """Records spans and call counts while installed."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, mode: str):
        counts = self.counts
        if mode == COUNT:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        spans, clock, stack_of = self.spans, self.clock, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            request = (
                spans[parent].request if parent is not None else _request_of(args)
            )
            record = Span(name, 0.0, 0.0, parent, request)
            stack.append(len(spans))
            spans.append(record)
            record.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record.end = clock()
                stack.pop()
            counts[name] += 1
            if mode == SETTLED:
                counts[f"{name}.settled"] += len(result)
            return result
        return traced

    def install(self, points) -> None:
        for owner, attr, name, mode in points:
            # None marks an attribute the class inherits: restore deletes it.
            self._saved.append((owner, attr, vars(owner).get(attr)))
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, mode))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]
