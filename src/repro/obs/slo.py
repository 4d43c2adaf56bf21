"""Declarative service-level objectives evaluated live on the event bus.

An :class:`SLObjective` states what "healthy" means for batch serving —
"p95 item latency stays under 500 ms", "99 % of items succeed" — and the
:class:`SLOEngine` holds the pipeline to it while it runs.  The engine is
an ordinary :class:`~repro.obs.events.EventBus` subscriber: it consumes
the ``item_end`` event the batch runner emits, in the caller's process,
for every settled item (whichever process ran it), keeps a sliding
window of samples, and evaluates each objective with the standard
error-budget machinery:

* the **error budget** is the fraction of bad items the objective
  tolerates (``1 - target`` for a success-ratio objective, the implied
  5 % for a p95 latency objective);
* the **burn rate** is how fast the budget is being spent — a burn rate
  of 1.0 consumes exactly the budget over the window, 10.0 consumes it
  ten times too fast;
* evaluation is **multi-window**: a breach requires the slow window
  (sustained damage) *and* the fast window (still happening now) to both
  burn at or above :attr:`~SLObjective.burn_rate_threshold`, the classic
  guard against paging on stale or flapping signals.

State transitions are edge-triggered events on the same bus —
``slo_breach`` once per excursion (re-armed on recovery) and
``budget_exhausted`` once when the cumulative budget for the run is fully
spent — so the flight recorder can freeze the surrounding context and any
sink can alert.  Continuous health lands on the ``slo.<name>.*`` metric
series and in :meth:`SLOEngine.snapshot`, which the ops server serves
under ``/status``.

::

    from repro import obs
    from repro.obs.slo import SLObjective, SLOEngine

    bus = obs.enable_events()
    engine = bus.subscribe(SLOEngine([
        SLObjective(name="latency", kind="latency_p95", threshold_ms=500.0),
        SLObjective(name="success", kind="success_ratio", target=0.99),
    ], bus=bus))
    stmaker.summarize_many(trips, workers=4)
    print(engine.snapshot())
    bus.unsubscribe(engine)
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.exceptions import ConfigError
from repro.obs.events import EventBus, PipelineEvent, events
from repro.obs.metrics import clamped_p95, metrics

#: Objective kinds the engine can evaluate.
SLO_KINDS = ("latency_p95", "success_ratio")

#: The bad-item fraction a p95 latency objective tolerates by definition.
_P95_BUDGET = 0.05


@dataclass(frozen=True, slots=True)
class SLObjective:
    """One service-level objective over the ``item_end`` stream.

    ``kind="latency_p95"`` requires *threshold_ms* and means "at most 5 %
    of items in the window may exceed it" (equivalently: windowed p95 at
    or under the threshold).  ``kind="success_ratio"`` requires *target*
    in ``(0, 1)`` and tolerates a bad-item fraction of ``1 - target``.
    """

    name: str
    kind: str
    #: Latency ceiling for ``latency_p95`` objectives.
    threshold_ms: float | None = None
    #: Success-fraction floor for ``success_ratio`` objectives.
    target: float | None = None
    #: The slow (sustained-damage) evaluation window, seconds.
    window_s: float = 300.0
    #: The fast (still-happening-now) evaluation window, seconds.
    fast_window_s: float = 60.0
    #: Both windows must burn at least this fast to count as a breach.
    burn_rate_threshold: float = 1.0
    #: Below this many samples in the slow window the objective abstains.
    min_samples: int = 10

    def __post_init__(self) -> None:
        if self.kind not in SLO_KINDS:
            raise ConfigError(
                f"unknown SLO kind {self.kind!r}; expected one of {SLO_KINDS}"
            )
        if not self.name:
            raise ConfigError("SLO objectives need a non-empty name")
        if self.kind == "latency_p95":
            if self.threshold_ms is None or self.threshold_ms <= 0.0:
                raise ConfigError(
                    f"latency_p95 objective {self.name!r} needs threshold_ms > 0"
                )
        else:
            if self.target is None or not 0.0 < self.target < 1.0:
                raise ConfigError(
                    f"success_ratio objective {self.name!r} needs "
                    f"0 < target < 1, got {self.target}"
                )
        if self.window_s <= 0.0 or self.fast_window_s <= 0.0:
            raise ConfigError(
                f"objective {self.name!r}: windows must be > 0 seconds"
            )
        if self.fast_window_s > self.window_s:
            raise ConfigError(
                f"objective {self.name!r}: fast_window_s must not exceed window_s"
            )
        if self.burn_rate_threshold <= 0.0:
            raise ConfigError(
                f"objective {self.name!r}: burn_rate_threshold must be > 0"
            )
        if self.min_samples < 1:
            raise ConfigError(
                f"objective {self.name!r}: min_samples must be >= 1"
            )

    @property
    def budget_fraction(self) -> float:
        """The tolerated bad-item fraction (the error budget)."""
        if self.kind == "latency_p95":
            return _P95_BUDGET
        return 1.0 - float(self.target)  # type: ignore[arg-type]

    def is_bad(self, duration_ms: float, ok: bool) -> bool:
        """Does one settled item spend budget under this objective?"""
        if self.kind == "latency_p95":
            return duration_ms > float(self.threshold_ms)  # type: ignore[arg-type]
        return not ok

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "threshold_ms": self.threshold_ms,
            "target": self.target,
            "window_s": self.window_s,
            "fast_window_s": self.fast_window_s,
            "burn_rate_threshold": self.burn_rate_threshold,
            "min_samples": self.min_samples,
        }


def parse_slo(spec: str) -> SLObjective:
    """Build an objective from a compact CLI spec.

    The first clause picks the kind — ``p95_ms=<float>`` or
    ``success=<ratio>`` — and optional comma-separated clauses tune it::

        p95_ms=500
        p95_ms=500,window=60,fast=15,min=5,name=item-latency
        success=0.99,burn=2

    Clauses: ``window`` (slow window seconds), ``fast`` (fast window
    seconds), ``min`` (minimum samples), ``burn`` (burn-rate threshold),
    ``name``.
    """
    kind: str | None = None
    threshold_ms: float | None = None
    target: float | None = None
    options: dict[str, str] = {}
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        if "=" not in clause:
            raise ConfigError(
                f"bad SLO clause {clause!r} in {spec!r}; expected key=value"
            )
        key, _, value = clause.partition("=")
        key = key.strip()
        value = value.strip()
        if key == "p95_ms":
            kind, threshold_ms = "latency_p95", float(value)
        elif key == "success":
            kind, target = "success_ratio", float(value)
        else:
            options[key] = value
    if kind is None:
        raise ConfigError(
            f"SLO spec {spec!r} needs a p95_ms=<ms> or success=<ratio> clause"
        )
    known = {"window", "fast", "min", "burn", "name"}
    unknown = set(options) - known
    if unknown:
        raise ConfigError(
            f"unknown SLO clause(s) {sorted(unknown)} in {spec!r}; "
            f"expected {sorted(known)}"
        )
    kwargs: dict[str, object] = {}
    if "window" in options:
        kwargs["window_s"] = float(options["window"])
    if "fast" in options:
        kwargs["fast_window_s"] = float(options["fast"])
    if "min" in options:
        kwargs["min_samples"] = int(options["min"])
    if "burn" in options:
        kwargs["burn_rate_threshold"] = float(options["burn"])
    name = options.get("name") or ("latency_p95" if kind == "latency_p95" else "success")
    return SLObjective(
        name=name, kind=kind, threshold_ms=threshold_ms, target=target,
        **kwargs,  # type: ignore[arg-type]
    )


class _ObjectiveState:
    """Mutable evaluation state the engine keeps per objective."""

    __slots__ = (
        "objective", "breached", "breaches", "budget_exhausted",
        "seen", "bad_seen", "last",
    )

    def __init__(self, objective: SLObjective) -> None:
        self.objective = objective
        self.breached = False
        #: Completed False→True transitions (the paging signal count).
        self.breaches = 0
        self.budget_exhausted = False
        #: Cumulative items / bad items since the engine started — the
        #: run-lifetime budget, as opposed to the windowed burn rate.
        self.seen = 0
        self.bad_seen = 0
        #: The most recent evaluation (the ``snapshot()`` payload).
        self.last: dict[str, object] = {}


class SLOEngine:
    """Evaluates :class:`SLObjective` s over the live ``item_end`` stream.

    Subscribe it to a bus; *bus* is where its transition events go (the
    active bus when ``None``).  Thread-safe: item events arrive from
    whatever thread settled the item; transition events are emitted after
    the internal lock is released, so the engine can safely publish onto
    the same bus it subscribes to.
    """

    def __init__(
        self,
        objectives: Sequence[SLObjective] | Iterable[SLObjective],
        *,
        bus: EventBus | None = None,
        clock=time.perf_counter,
    ) -> None:
        objectives = list(objectives)
        if not objectives:
            raise ConfigError("SLOEngine needs at least one objective")
        names = [o.name for o in objectives]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate SLO objective names in {names}")
        self._states = [_ObjectiveState(o) for o in objectives]
        self._bus = bus
        self._clock = clock
        self._lock = threading.Lock()
        #: (ts, duration_ms, ok) samples, pruned to the longest window.
        self._samples: deque[tuple[float, float, bool]] = deque()
        self._max_window_s = max(o.window_s for o in objectives)

    @property
    def objectives(self) -> list[SLObjective]:
        return [state.objective for state in self._states]

    # -- bus subscriber ---------------------------------------------------------

    def __call__(self, event: PipelineEvent) -> None:
        if event.kind != "item_end":
            return
        payload = event.payload
        try:
            duration_ms = float(payload.get("duration_ms", 0.0))  # type: ignore[arg-type]
            ok = bool(payload.get("ok", False))
        except (TypeError, ValueError):
            return
        now = self._clock()
        with self._lock:
            self._samples.append((now, duration_ms, ok))
            while self._samples and now - self._samples[0][0] > self._max_window_s:
                self._samples.popleft()
            transitions = self._evaluate_locked(now)
        self._publish(transitions)

    # -- evaluation -------------------------------------------------------------

    def _evaluate_locked(self, now: float) -> list[tuple[str, dict[str, object]]]:
        """Re-evaluate every objective; returns the transition events due."""
        transitions: list[tuple[str, dict[str, object]]] = []
        m = metrics()
        samples = list(self._samples)
        for state in self._states:
            o = state.objective
            window = [s for s in samples if now - s[0] <= o.window_s]
            fast = [s for s in window if now - s[0] <= o.fast_window_s]
            bad = sum(1 for s in window if o.is_bad(s[1], s[2]))
            fast_bad = sum(1 for s in fast if o.is_bad(s[1], s[2]))
            budget = o.budget_fraction
            burn = (bad / len(window)) / budget if window else 0.0
            fast_burn = (fast_bad / len(fast)) / budget if fast else 0.0
            evaluation: dict[str, object] = {
                "objective": o.to_dict(),
                "samples": len(window),
                "bad": bad,
                "burn_rate": burn,
                "fast_burn_rate": fast_burn,
                "breached": state.breached,
                "breaches": state.breaches,
            }
            if o.kind == "latency_p95":
                durations = sorted(s[1] for s in window)
                p95 = clamped_p95(durations)
                evaluation["p95_ms"] = p95
                m.gauge(f"slo.{o.name}.p95_ms").set(p95 or 0.0)
            else:
                ratio = (
                    (len(window) - bad) / len(window) if window else None
                )
                evaluation["success_ratio"] = ratio
                m.gauge(f"slo.{o.name}.success_ratio").set(
                    1.0 if ratio is None else ratio
                )
            # Run-lifetime budget: every new sample is charged exactly once
            # (the newest sample is this call's — older ones were charged
            # on their own arrival).
            state.seen += 1
            newest = samples[-1]
            if o.is_bad(newest[1], newest[2]):
                state.bad_seen += 1
            spent = (
                (state.bad_seen / state.seen) / budget if state.seen else 0.0
            )
            remaining = max(0.0, 1.0 - spent)
            evaluation["budget_remaining"] = remaining
            m.gauge(f"slo.{o.name}.burn_rate").set(burn)
            m.gauge(f"slo.{o.name}.budget_remaining").set(remaining)
            if (
                remaining <= 0.0
                and not state.budget_exhausted
                and state.seen >= o.min_samples
            ):
                state.budget_exhausted = True
                m.counter(f"slo.{o.name}.budget_exhausted").inc()
                transitions.append(("budget_exhausted", {
                    "name": o.name, "objective_kind": o.kind,
                    "bad": state.bad_seen, "seen": state.seen,
                }))
            evaluation["budget_exhausted"] = state.budget_exhausted
            breached_now = (
                len(window) >= o.min_samples
                and burn >= o.burn_rate_threshold
                and fast_burn >= o.burn_rate_threshold
            )
            if breached_now and not state.breached:
                state.breached = True
                state.breaches += 1
                m.counter(f"slo.{o.name}.breaches").inc()
                transitions.append(("slo_breach", dict(
                    name=o.name, objective_kind=o.kind,
                    burn_rate=burn, fast_burn_rate=fast_burn,
                    samples=len(window), bad=bad,
                    threshold_ms=o.threshold_ms, target=o.target,
                    **(
                        {"p95_ms": evaluation["p95_ms"]}
                        if o.kind == "latency_p95"
                        else {"success_ratio": evaluation["success_ratio"]}
                    ),
                )))
            elif state.breached and not breached_now:
                # Recovery re-arms the edge trigger; no event — dashboards
                # read the gauge, pagers only care about new excursions.
                state.breached = False
            evaluation["breached"] = state.breached
            evaluation["breaches"] = state.breaches
            m.gauge(f"slo.{o.name}.breached").set(1.0 if state.breached else 0.0)
            state.last = evaluation
        return transitions

    def _publish(self, transitions: list[tuple[str, dict[str, object]]]) -> None:
        if not transitions:
            return
        bus = self._bus if self._bus is not None else events()
        if bus is None:
            return
        for kind, payload in transitions:
            bus.emit(kind, **payload)

    # -- surfaces ---------------------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """Per-objective health for ``/status`` and reports."""
        with self._lock:
            return {
                "objectives": [dict(state.last) for state in self._states],
                "samples": len(self._samples),
            }
