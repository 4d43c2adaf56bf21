"""Unit tests of the benchmark's timing machinery, on fake clocks.

No program code runs here: the drift correction, the open-loop
generator and the span recorder are checked against a simulated host.
"""

from __future__ import annotations

import pytest

from hostref import DriftCorrector
from openloop import OpenLoop, due_latencies, poisson_gaps
from tracer import COUNT, SPAN, Tracer

NOMINAL_MS = 0.5


class FakeHost:
    """A host whose slowness multiplies every duration, probes included."""

    def __init__(self) -> None:
        self.now = 0.0
        self.slowness = 1.0

    def clock(self) -> float:
        return self.now

    def probe(self) -> float:
        observed = NOMINAL_MS * self.slowness
        self.now += 5 * observed / 1000.0
        return observed

    def work(self, base_s: float) -> tuple[float, float]:
        start = self.now
        self.now += base_s * self.slowness
        return start, self.now


def measure(host: FakeHost, bases: list[float], slowness_of=None) -> tuple[DriftCorrector, list]:
    corrector = DriftCorrector(NOMINAL_MS, host.probe, clock=host.clock, interval_s=0.05)
    intervals = []
    for i, base in enumerate(bases):
        if slowness_of is not None:
            host.slowness = slowness_of(i)
        corrector.sample_if_due()
        intervals.append(host.work(base))
    corrector.sample()
    return corrector, intervals


BASES = [0.010 + 0.002 * (i % 7) for i in range(200)]


def test_correction_leaves_timings_unchanged_at_constant_nominal_speed():
    corrector, intervals = measure(FakeHost(), BASES)
    for base, (start, end) in zip(BASES, intervals):
        assert end - start == pytest.approx(base)
        assert corrector.corrected(start, end) == pytest.approx(base)


@pytest.mark.parametrize("slowness", [0.6, 1.7, 3.0])
def test_correction_cancels_a_uniform_slowdown(slowness):
    host = FakeHost()
    host.slowness = slowness
    corrector, intervals = measure(host, BASES)
    for base, (start, end) in zip(BASES, intervals):
        assert end - start == pytest.approx(base * slowness)
        assert corrector.corrected(start, end) == pytest.approx(base)
        assert corrector.factor(start, end) == pytest.approx(1.0 / slowness)


def test_correction_follows_a_drift_phase():
    # Fast for the first half, 1.8x slower for the second: every item that
    # lies wholly inside one phase, probes included, is corrected exactly.
    corrector, intervals = measure(
        FakeHost(), BASES, slowness_of=lambda i: 1.0 if i < 100 else 1.8
    )
    switch = intervals[100][0]
    last_fast_probe = max(t for t in corrector.times if t <= switch)
    for base, (start, end) in zip(BASES, intervals):
        if end <= last_fast_probe or start >= switch + 0.1:
            assert corrector.corrected(start, end) == pytest.approx(base)


def test_latest_scale_tracks_the_last_probe():
    host = FakeHost()
    corrector = DriftCorrector(NOMINAL_MS, host.probe, clock=host.clock)
    assert corrector.latest_scale() == 1.0
    host.slowness = 2.0
    corrector.sample()
    assert corrector.latest_scale() == pytest.approx(2.0)


class FakeTime:
    def __init__(self) -> None:
        self.now = 0.0

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


def test_stalled_consumer_shows_in_due_time_latency():
    """A stall that holds up the sender is invisible when timed from the send."""
    t = FakeTime()
    service_s, stall_s = 0.005, 0.5

    def send(i: int) -> float:
        done = t.now + service_s  # the request's completion time
        if i == 5:
            t.now += stall_s  # the consumer stalls and holds the sender up
        return done

    records = OpenLoop([0.02] * 40, send, clock=t.clock, sleep=t.sleep).run()
    done = [r.handle for r in records]
    from_send = [d - r.sent for r, d in zip(records, done)]
    from_due = due_latencies(records, done)

    assert max(from_send) == pytest.approx(service_s)
    assert max(from_due) == pytest.approx(stall_s - 0.02 + service_s)
    # Every request that fell due during the stall waited for it.
    assert sum(lat > 0.1 for lat in from_due) >= 20


def test_open_loop_stretches_gaps_by_host_slowness():
    t = FakeTime()
    records = OpenLoop(
        [0.01] * 10, lambda i: None, clock=t.clock, sleep=t.sleep, scale=lambda: 2.0
    ).run()
    dues = [r.due for r in records]
    assert [b - a for a, b in zip(dues, dues[1:])] == pytest.approx([0.02] * 9)
    assert all(r.sent == pytest.approx(r.due) for r in records)


def test_poisson_gaps_offer_the_same_load_on_every_seed():
    a, b = poisson_gaps(500, 0.02, seed=1), poisson_gaps(500, 0.02, seed=2)
    assert a == poisson_gaps(500, 0.02, seed=1)
    assert a != b
    assert sum(a) == pytest.approx(10.0) and sum(b) == pytest.approx(10.0)
    # Stratified draws: the sorted gaps nearly coincide across seeds, and
    # every block of 10 holds one gap from each tenth of the distribution.
    for x, y in zip(sorted(a)[:-25], sorted(b)[:-25]):
        assert x == pytest.approx(y, rel=0.1, abs=1e-3)
    cuts = sorted(a)[50::50]
    for start in range(0, 500, 10):
        tenths = sorted(sum(g > c for c in cuts) for g in a[start:start + 10])
        assert max(abs(t - i) for i, t in enumerate(tenths)) <= 1


class Pipeline:
    def outer(self, n: int) -> int:
        return sum(self.inner(i) for i in range(n))

    def inner(self, i: int) -> int:
        self.tick(0.25)
        return i

    def tick(self, seconds: float) -> None:
        Pipeline.now += seconds

    now = 0.0


def test_tracer_records_self_time_and_restores_originals():
    methods = ("outer", "inner", "tick")
    originals = [Pipeline.__dict__[name] for name in methods]
    tracer = Tracer(clock=lambda: Pipeline.now)
    tracer.install([
        (Pipeline, "outer", "outer", SPAN),
        (Pipeline, "inner", "inner", SPAN),
        (Pipeline, "tick", "tick", COUNT),
    ])
    try:
        assert Pipeline().outer(4) == 6
    finally:
        tracer.restore()
    assert [Pipeline.__dict__[name] for name in methods] == originals
    names = [s.name for s in tracer.spans]
    assert names == ["outer"] + ["inner"] * 4
    assert all(s.parent == 0 for s in tracer.spans[1:])
    assert tracer.self_times() == pytest.approx([0.0] + [0.25] * 4)
    assert tracer.counts == {"outer": 1, "inner": 4, "tick": 4}
