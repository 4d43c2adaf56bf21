"""Open-loop arrivals: a seeded schedule, and latency from each due time.

An open loop sends every request when it falls due, whether or not the
server has kept up, so a stall shows up as a queue.  Latency is measured
from the due time, not from the moment the request went out: when the
sender itself is held up (a blocked submit, a busy interpreter), the
requests that fell due meanwhile leave late, and timing them from the
send would hide exactly the wait the stall imposed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


def poisson_gaps(n: int, mean: float, seed: int, block: int = 10) -> list[float]:
    """*n* exponential inter-arrival gaps with the given *mean*.

    The uniform draws are stratified: each run of *block* gaps holds one
    draw from every ``1/block`` slice, in seeded order.  The gaps are then
    rescaled to sum to exactly ``n * mean``.  Every seed thus offers the
    same load with the same spread of gaps and bursts no longer than a
    block; the seed changes their order.
    """
    rng = np.random.default_rng([seed, 0x0A11])
    blocks = -(-n // block)
    u = (np.argsort(rng.random((blocks, block)), axis=1) + rng.random((blocks, block))) / block
    gaps = -np.log1p(-u.ravel()[:n])
    return [float(g) for g in gaps * (n * mean / gaps.sum())]


@dataclass(slots=True)
class Sent:
    """One request as the generator sent it."""

    due: float
    sent: float
    handle: object


class OpenLoop:
    """Sends ``send(i)`` for each gap at its due time.

    *gaps* are in reference units; each is stretched by ``scale()`` (the
    host's current slowness, 1.0 at nominal speed) when the next due time
    is computed, so the offered load stays the same share of the server's
    capacity on a slow host as on a fast one.  ``idle(due)`` runs before
    each wait, when the next request is not yet due; it may do work that
    ends well before *due* (the benchmark probes the host there).
    """

    def __init__(
        self,
        gaps: list[float],
        send: Callable[[int], object],
        *,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
        scale: Callable[[], float] = lambda: 1.0,
        idle: Callable[[float], None] | None = None,
    ) -> None:
        self.gaps = gaps
        self._send = send
        self._clock = clock
        self._sleep = sleep
        self._scale = scale
        self._idle = idle

    def run(self) -> list[Sent]:
        clock = self._clock
        records: list[Sent] = []
        due = clock()
        for i, gap in enumerate(self.gaps):
            if i:
                due += gap * self._scale()
            if self._idle is not None and due > clock():
                self._idle(due)
            wait = due - clock()
            if wait > 0.0:
                self._sleep(wait)
            sent = clock()
            records.append(Sent(due, sent, self._send(i)))
        return records


def due_latencies(records: list[Sent], done: list[float]) -> list[float]:
    """Completion minus due time, per request."""
    return [d - r.due for r, d in zip(records, done)]
