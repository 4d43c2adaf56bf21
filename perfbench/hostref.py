"""Host-speed reference: a fixed kernel timed in a helper process.

The benchmark host's speed drifts by tens of percent, in phases from tens
of milliseconds to several seconds long.  To take that drift out of the measurements, a fixed
pure-Python kernel (bounded Dijkstra over a small grid with per-edge
attribute reads and float maths, the same mix of work as the program's
hot path) is timed in a helper process, and only while the measured
process sits idle waiting for the answer.  Each measured interval is then
scaled by ``nominal_ms / observed_ms``, where ``observed_ms`` comes from
the probes around it (piecewise between probes inside it) and
``nominal_ms`` is the pinned kernel time at the reference host speed
(``config.json``).

The kernel never changes with the program: it lives here, not in
``src/``, so a later optimisation of the program cannot move it.

The two vCPUs of the development VM drift independently (one can be in
a slow phase while the other is fast), so the probe runs on the CPUs the
measured work runs on: the benchmark pins a single-threaded workload and
the helper to one CPU, and a process pool's probe averages one kernel
timing per CPU it may use.

Run as ``python3 perfbench/hostref.py --helper CPU [CPU ...]`` to serve
probes over stdin/stdout (the benchmark does this itself).
"""

from __future__ import annotations

import bisect
import heapq
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Kernel calls per probe; the probe reports their median.
PROBE_REPEATS = 5


class _Edge:
    __slots__ = ("u", "v", "length", "grade")

    def __init__(self, u: int, v: int, length: float, grade: int) -> None:
        self.u = u
        self.v = v
        self.length = length
        self.grade = grade


def _build_grid(side: int = 16) -> tuple[dict[int, list[_Edge]], list[tuple[float, float]]]:
    """A fixed grid road network with deterministic jittered geometry."""
    state = 12345

    def lcg() -> float:
        nonlocal state
        state = (1103515245 * state + 12345) % (1 << 31)
        return state / float(1 << 31)

    coords = [
        (x * 100.0 + 30.0 * lcg(), y * 100.0 + 30.0 * lcg())
        for y in range(side) for x in range(side)
    ]
    adjacency: dict[int, list[_Edge]] = {n: [] for n in range(side * side)}
    for n in range(side * side):
        x, y = n % side, n // side
        for m in ((n + 1) if x + 1 < side else None, (n + side) if y + 1 < side else None):
            if m is None:
                continue
            (ax, ay), (bx, by) = coords[n], coords[m]
            edge = _Edge(n, m, math.hypot(bx - ax, by - ay), int(lcg() * 4))
            adjacency[n].append(edge)
            adjacency[m].append(edge)
    return adjacency, coords


_GRID = None


def kernel() -> float:
    """One fixed unit of work; returns a checksum so nothing is elided."""
    global _GRID
    if _GRID is None:
        _GRID = _build_grid()
    adjacency, coords = _GRID
    total = 0.0
    for source in (0, 37, 118, 201):
        dist = {source: 0.0}
        done: set[int] = set()
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for edge in adjacency[u]:
                v = edge.v if edge.u == u else edge.u
                if v in done:
                    continue
                nd = d + edge.length * (1.0 + 0.1 * edge.grade)
                if nd > 900.0:
                    continue
                if nd < dist.get(v, math.inf):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        sx, sy = coords[source]
        for node, d in dist.items():
            x, y = coords[node]
            total += d / (1.0 + math.hypot(x - sx, y - sy))
    return total


def probe_ms(repeats: int = PROBE_REPEATS) -> float:
    """Median wall time of *repeats* kernel calls, in milliseconds."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        kernel()
        times.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(times)


def _serve(cpus: list[int]) -> None:
    kernel()  # build the grid and warm up before the first probe
    for line in sys.stdin:
        if line.strip() != "probe":
            break
        times = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(probe_ms())
        sys.stdout.write(f"{sum(times) / len(times)!r}\n")
        sys.stdout.flush()


class HelperProbe:
    """Runs :func:`probe_ms` on each of *cpus* in a helper process.

    Each probe reports the mean over the CPUs; the caller waits for it.
    """

    def __init__(self, cpus: list[int]) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--helper", *map(str, cpus)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
        )

    def __call__(self) -> float:
        assert self._proc.stdin is not None and self._proc.stdout is not None
        self._proc.stdin.write("probe\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("host reference helper exited")
        return float(line)

    def close(self) -> None:
        proc = self._proc
        if proc.poll() is None:
            try:
                assert proc.stdin is not None
                # Say it explicitly: forked pool workers may hold the pipe
                # open, so end-of-file alone could come late.
                proc.stdin.write("quit\n")
                proc.stdin.close()
                proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                proc.kill()
                proc.wait(timeout=10)
        if proc.stdout is not None:
            proc.stdout.close()


class DriftCorrector:
    """Host-speed probes over time, and the correction they imply.

    ``probe`` returns the reference kernel's time in ms and ``clock`` the
    current time in seconds; both are injectable so the correction can be
    tested with a fake host.  Call :meth:`sample` whenever the measured
    work is idle; correct intervals with :meth:`corrected` once the run's
    last sample is in, so every interval has a probe after it.
    """

    def __init__(
        self, nominal_ms: float, probe, clock=time.perf_counter, interval_s: float = 0.1
    ) -> None:
        self.nominal_ms = nominal_ms
        self.probe = probe
        self.interval_s = interval_s
        self._clock = clock
        self.times: list[float] = []
        self.values: list[float] = []

    def sample(self) -> float:
        """Probe the host now; returns the observed kernel ms."""
        value = self.probe()
        self.times.append(self._clock())
        self.values.append(value)
        return value

    def sample_if_due(self) -> None:
        """Probe unless the last probe is under ``interval_s`` old."""
        if not self.times or self._clock() - self.times[-1] >= self.interval_s:
            self.sample()

    def latest_scale(self) -> float:
        """Observed / nominal at the last probe (1.0 before any)."""
        return self.values[-1] / self.nominal_ms if self.values else 1.0

    def corrected(self, start: float, end: float) -> float:
        """The interval's duration at the nominal host speed, in seconds.

        The probes inside the interval cut it into pieces; each piece is
        scaled by ``nominal_ms`` over the mean of the two probes around
        it (the nearest probe alone beyond either end of the record).
        """
        times = self.times
        i = bisect.bisect_right(times, start)
        total = 0.0
        while True:
            piece_end = min(end, times[i]) if i < len(times) else end
            total += (piece_end - start) * self._piece_factor(i)
            if piece_end >= end:
                return total
            start, i = piece_end, i + 1

    def factor(self, start: float, end: float) -> float:
        """nominal / observed over the interval [start, end]."""
        if end <= start:
            return self._piece_factor(bisect.bisect_right(self.times, start))
        return self.corrected(start, end) / (end - start)

    def _piece_factor(self, i: int) -> float:
        """nominal / observed between probes ``i - 1`` and ``i``."""
        values = self.values
        if not values:
            raise ValueError("no host probe recorded")
        before, after = values[max(i - 1, 0)], values[min(i, len(values) - 1)]
        return 2.0 * self.nominal_ms / (before + after)


if __name__ == "__main__" and sys.argv[1:2] == ["--helper"]:
    _serve([int(cpu) for cpu in sys.argv[2:]])
