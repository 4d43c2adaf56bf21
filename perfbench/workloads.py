"""The four workloads: seeded inputs and the measured loop of each.

Every workload shares one city and model (``CityScenario`` seed 7, 300
training trips).  The workload seed only chooses the trips, the request
mix and the arrival schedule; the program receives nothing but those
inputs.  Timings are raw ``perf_counter`` intervals here; ``run.py``
corrects them for host speed with the probes each loop takes while it
sits idle (:class:`hostref.DriftCorrector`).
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from openloop import OpenLoop, Sent, poisson_gaps
from repro.artifact import save_artifact
from repro.exceptions import OverloadError
from repro.server import ServerConfig, SummarizationServer
from repro.simulate import CityScenario, ScenarioConfig
from repro.trajectory import RawTrajectory

#: Partition counts that batch items cycle through: the CRF-optimal DP
#: (``None``) and the fixed-k DP.
KS = (None, 2, 4)

clock = time.perf_counter


def build_scenario(config: dict) -> CityScenario:
    return CityScenario.build(ScenarioConfig(
        seed=config["scenario_seed"], n_training_trips=config["training_trips"],
    ))


def thin(raw: RawTrajectory, every: int) -> RawTrajectory:
    """Keep every *every*-th sample (and the last): 5 s sampling to 30 s."""
    points = raw.points[::every]
    if (len(raw.points) - 1) % every:
        points += (raw.points[-1],)
    return RawTrajectory(points, raw.trajectory_id)


class TripStream:
    """Fresh fleet trips from a seed, stratified by length.

    Trips are drawn from the scenario's fleet simulator and sorted into
    length strata (sample-count cut points pinned in ``config.json``); a
    block holds one trip per stratum, in stratum order.  Every seed thus
    gives the same mix of short and long trips, which keeps the per-item
    cost distribution, and so p50 and p95, from moving with the seed.
    A stratum holds at most ``STRATUM_CAP`` waiting trips and drops the
    rest, so memory does not grow with the run.
    """

    STRATUM_CAP = 2

    def __init__(self, scenario: CityScenario, seed: int, cuts: list[int], prefix: str) -> None:
        self._fleet = scenario.fleet
        self._rng = np.random.default_rng(seed)
        self._cuts = cuts
        self._strata: list[deque] = [deque() for _ in range(len(cuts) + 1)]
        self._prefix = prefix
        self._made = 0

    def block(self) -> list[RawTrajectory]:
        while not all(self._strata):
            raw = self._fleet.generate(1, self._rng, days=1)[0].raw
            stratum = self._strata[bisect.bisect_right(self._cuts, len(raw))]
            if len(stratum) < self.STRATUM_CAP:
                stratum.append(raw)
        out = []
        for stratum in self._strata:
            raw = stratum.popleft()
            out.append(RawTrajectory(raw.points, f"{self._prefix}-{self._made}"))
            self._made += 1
        return out


@dataclass
class Run:
    """What one measured phase produced, as raw clock readings."""

    #: Per item: the interval its latency is measured over.
    intervals: list[tuple[float, float]] = field(default_factory=list)
    #: Intervals whose corrected sum is the busy time behind throughput.
    busy: list[tuple[float, float]] = field(default_factory=list)
    #: Per item, in input order: [trajectory id, summary text, spans].
    outputs: list[list] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: The inputs, so a traced phase can replay exactly the same work.
    replay: list = field(default_factory=list)
    #: Open loop: the generator's send records and completion times.
    sent: list[Sent] = field(default_factory=list)
    done: list[float] = field(default_factory=list)
    #: Process pool: per call (start, end, longest in-worker shard seconds).
    calls: list[tuple[float, float, float]] = field(default_factory=list)

    def record(self, items: list[RawTrajectory], result) -> None:
        """Check a batch result against its inputs and keep its outputs."""
        by_id = {s.trajectory_id: s for s in result.summaries}
        for raw in items:
            self.attempted += 1
            summary = by_id.get(raw.trajectory_id)
            if summary is None or not summary.text:
                self.failed += 1
                self.outputs.append([raw.trajectory_id, None, None])
                continue
            self.outputs.append([
                raw.trajectory_id, summary.text,
                [[p.span.start_seg, p.span.end_seg] for p in summary.partitions],
            ])


def digest(outputs: list[list]) -> str:
    """sha256 over (trajectory id, summary text, partition spans), in order."""
    h = hashlib.sha256()
    for out in outputs:
        h.update(json.dumps(out, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


class Workload:
    """Set-up, measured loop and tear-down of one workload."""

    #: Whether the traced run can see spans inside items (not across forks).
    traces_items = True

    def __init__(self, name: str, scenario: CityScenario, config: dict, seed: int, workdir: Path) -> None:
        self.name = name
        self.scenario = scenario
        self.config = config
        self.spec = config["workloads"][name]
        self.seed = seed
        self.workdir = workdir

    def start(self) -> None:
        """The timed part of set-up after the scenario build."""

    def stop(self) -> None:
        """Untimed clean-up."""

    def measure(self, host, seconds: float, replay: Run | None = None, keep: bool = False) -> Run:
        """Run for about *seconds*, or replay *replay*'s inputs.

        *keep* keeps the inputs in the result for a later replay; without
        it they are dropped as they go, so peak memory does not grow with
        the number of items the host got through.
        """
        raise NotImplementedError


class Batch(Workload):
    """Closed loop: one caller, serial ``summarize_many``, one trip per call."""

    def measure(self, host, seconds, replay=None, keep=False):
        stmaker = self.scenario.stmaker
        every = self.spec.get("thin_every", 1)
        stream = TripStream(self.scenario, self.seed, self.config["length_cuts"], self.name)
        run = Run()
        pending: deque = deque()
        stop_at = clock() + seconds
        while True:
            i = run.attempted
            if replay is not None:
                if i == len(replay.replay):
                    break
                raw, k = replay.replay[i]
            else:
                if not pending:
                    if clock() >= stop_at and i >= self.config["digest_items"]:
                        break
                    pending.extend(stream.block())
                raw, k = pending.popleft(), KS[i % len(KS)]
                if every > 1:
                    raw = thin(raw, every)
            host.sample_if_due()
            start = clock()
            result = stmaker.summarize_many([raw], k=k)
            end = clock()
            run.intervals.append((start, end))
            run.busy.append((start, end))
            if keep:
                run.replay.append((raw, k))
            run.record([raw], result)
        host.sample()
        return run


class ProcessPool(Workload):
    """``summarize_many(workers=2, executor="process")`` on batches of trips.

    The pool is spawned inside every call, so each call pays for worker
    start-up and the artifact load.  Workers are forked: the benchmark
    process runs no threads here, and fork keeps every file the pool
    touches inside the checkout.
    """

    traces_items = False

    def start(self):
        os.environ["REPRO_MP_START_METHOD"] = "fork"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.artifact = str(self.workdir / "city-model.bin")
        save_artifact(self.scenario.stmaker, self.artifact)

    def measure(self, host, seconds, replay=None, keep=False):
        from repro.obs import metrics, metrics_enabled

        stmaker = self.scenario.stmaker
        size, workers = self.spec["batch"], self.spec["workers"]
        stream = TripStream(self.scenario, self.seed, self.config["length_cuts"], self.name)
        run = Run()
        pending: deque = deque()
        stop_at = clock() + seconds
        while True:
            i = len(run.calls)
            if replay is not None:
                if i == len(replay.replay):
                    break
                batch, k = replay.replay[i]
            else:
                if not pending:
                    if clock() >= stop_at and run.attempted >= self.config["digest_items"]:
                        break
                    block = stream.block()
                    # Interleave strata so every call gets the same length mix.
                    for j in range(len(block) // size):
                        pending.append(block[j::len(block) // size])
                batch, k = pending.popleft(), KS[i % len(KS)]
            host.sample_if_due()
            start = clock()
            result = stmaker.summarize_many(
                batch, k=k, workers=workers, executor="process", artifact=self.artifact,
            )
            end = clock()
            exec_s = max(
                metrics().gauge(f"serving.shard.{s}.duration_ms").value
                for s in range(workers)
            ) / 1000.0 if metrics_enabled() else 0.0
            run.calls.append((start, end, exec_s))
            run.intervals.extend([(start, end)] * len(batch))
            run.busy.append((start, end))
            if keep:
                run.replay.append((batch, k))
            run.record(batch, result)
        host.sample()
        return run


class Served(Workload):
    """Open loop into one ``SummarizationServer``: 4 tenants, Zipf repeats.

    Requests hold one trajectory each, drawn with Zipf repetition from a
    seeded, length-stratified pool, so landmark hops repeat and the hot
    caches have something to hit.  Arrival gaps are seeded Poisson in
    reference units: the offered load is ``load`` times one consumer's
    pinned nominal capacity on a fast host and a slow one alike.
    """

    def start(self):
        spec = self.spec
        self.server = SummarizationServer(self.scenario.stmaker, ServerConfig(
            consumers=1, executor="thread",
            tenant_weights=dict(spec["tenants"]),
            max_queue_requests=spec["max_queue_requests"],
        )).start()

    def stop(self):
        server = getattr(self, "server", None)
        if server is not None:
            server.stop(drain=False)

    def requests(self, seconds: float) -> tuple[list, list[float]]:
        """The seeded request list and its gaps (reference seconds).

        The pool holds ``pool`` trips, ``pool / 10`` per length decile.
        Each run of 10 requests takes one trip from every decile, in
        seeded order, Zipf-distributed over that decile's trips, so hot
        trips repeat while every seed sends the same length mix.
        """
        spec = self.spec
        mean_gap = spec["service_ms"] / 1000.0 / spec["load"]
        n = max(self.config["digest_items"], round(seconds / mean_gap))
        stream = TripStream(self.scenario, self.seed, self.config["length_cuts"], self.name)
        pool: list[RawTrajectory] = []
        while len(pool) < spec["pool"]:
            pool.extend(stream.block())
        strata = len(self.config["length_cuts"]) + 1
        deciles = [
            [pool[b + v] for b in range(0, len(pool), strata)
             for v in range(d * strata // 10, (d + 1) * strata // 10)]
            for d in range(10)
        ]
        per_decile = len(deciles[0])
        popularity = 1.0 / np.arange(1, per_decile + 1) ** spec["zipf"]
        # One stream per draw, so the first requests do not depend on n.
        rngs = [np.random.default_rng([self.seed, 0x5E4E, i]) for i in range(3)]
        picks = rngs[0].choice(per_decile, size=(-(-n // 10), 10), p=popularity / popularity.sum())
        order = np.argsort(rngs[1].random(picks.shape), axis=1)
        tenants = list(spec["tenants"])
        shares = np.array(spec["tenant_shares"], dtype=float)
        who = rngs[2].choice(len(tenants), size=n, p=shares / shares.sum())
        reqs = []
        for i in range(n):
            d = order[i // 10, i % 10]
            rank = picks[i // 10, d]
            trip = deciles[d][rank]
            reqs.append((
                RawTrajectory(trip.points, f"{trip.trajectory_id}-r{i}"),
                KS[rank % len(KS)], tenants[who[i]],
            ))
        return reqs, poisson_gaps(n, mean_gap, self.seed)

    def measure(self, host, seconds, replay=None, keep=False):
        if replay is not None:
            self.start()  # a fresh server: cold caches, like the untraced phase
            reqs, gaps = replay.replay
        else:
            reqs, gaps = self.requests(seconds)
        server = self.server
        margin = self.spec["probe_margin_s"]
        pending: deque = deque()  # handles not yet seen done, oldest first

        def send(i: int):
            raw, k, tenant = reqs[i]
            try:
                handle = server.submit([raw], tenant=tenant, k=k)
            except OverloadError as exc:
                return exc
            pending.append(handle)
            return handle

        def idle(due: float) -> None:
            # Wait (without holding the interpreter lock) for the newest
            # request, and probe if the server has then drained and the
            # next request is not about to fall due.  Under a long busy
            # spell, probe anyway every stale_probe_s, or the arrival
            # scale would stay stale through an overload it causes.
            stale = clock() - host.times[-1] >= self.spec["stale_probe_s"]
            if pending and not stale:
                pending[-1].wait(max(0.0, due - clock() - margin))
            while pending and pending[0].done:
                pending.popleft()
            drained = all(h.done for h in pending)
            if (drained or stale) and due - clock() > margin:
                host.sample_if_due()

        host.sample()
        sent = OpenLoop(gaps, send, scale=host.latest_scale, idle=idle).run()
        for record in sent:
            if not isinstance(record.handle, Exception):
                record.handle.wait(timeout=120.0)
        server.stop(drain=True)
        host.sample()
        run = Run(sent=sent, replay=(reqs, gaps))
        for record, (raw, _k, _t) in zip(sent, reqs):
            handle = record.handle
            if isinstance(handle, Exception) or handle.exception() is not None:
                run.done.append(record.sent)
                run.attempted += 1
                run.failed += 1
                run.outputs.append([raw.trajectory_id, None, None])
                continue
            run.done.append(record.sent + handle.queue_wait_s + handle.service_s)
            run.record([raw], handle.result())
        run.intervals = [(r.due, d) for r, d in zip(sent, run.done)]
        run.busy = [(sent[0].due, max(run.done))]
        return run

    def spot_check(self, run: Run, n: int) -> int:
        """Served outputs that differ from direct ``summarize_many`` calls.

        Checks *n* seeded requests, outside any timed section.
        """
        reqs, _gaps = run.replay
        rng = np.random.default_rng([self.seed, 0xC4EC])
        mismatches = 0
        for i in rng.choice(len(reqs), size=min(n, len(reqs)), replace=False):
            raw, k, _tenant = reqs[i]
            direct = Run()
            direct.record([raw], self.scenario.stmaker.summarize_many([raw], k=k))
            mismatches += direct.outputs[0] != run.outputs[i]
        return mismatches


WORKLOADS = {
    "dense-5s": Batch,
    "sparse-30s": Batch,
    "served-open": Served,
    "process-pool": ProcessPool,
}
