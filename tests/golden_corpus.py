"""The golden corpus: end-to-end batch outputs pinned to a committed file.

The differential suites prove that serial, thread-pool, process-pool and
served execution agree with each other; they cannot see a change that
shifts every path the same way.  This module pins what the batch path
returns for a small fixed corpus — three scenario seeds, ``k`` in
``{None, 2, 4}``, the sanitizer on and off, plus items armed with
``trajectory_id``-targeted, unbounded faults (so every executor degrades
or quarantines exactly the same items):

* per summarized item: the summary text, the partition spans, Γ per
  assessed feature of every partition (exact ``repr`` floats), and the
  degradation dict;
* per quarantined item: the verdict (error type, message, attempts).

``tests/test_golden_corpus.py`` diffs ``golden_corpus.json`` against the
live code.  Regenerate it (only when an output change is intended, and
review the diff) with::

    PYTHONPATH=src python -m tests.golden_corpus            # check only
    PYTHONPATH=src python -m tests.golden_corpus --accept   # overwrite
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from repro.exceptions import TransientError
from repro.geo import GeoPoint
from repro.resilience import FaultInjector, FaultSpec, RetryPolicy
from repro.roadnet import CityConfig
from repro.simulate import CityScenario, ScenarioConfig
from repro.simulate.scenario import POIConfig
from repro.trajectory import RawTrajectory, TrajectoryPoint

FIXTURE = Path(__file__).with_name("golden_corpus.json")

#: ``(seed, k, sanitize)`` per batch: every k runs with the sanitizer on
#: and off, each time on a different city.
CASES = (
    (3, None, True), (3, 4, False),
    (11, 2, True), (11, None, False),
    (19, 4, True), (19, 2, False),
)

#: No backoff, so retried items never sleep and any sleeper pickles.
RETRY = RetryPolicy(max_retries=1, backoff_base_s=0.0)


@functools.lru_cache(maxsize=None)
def scenario(seed: int) -> CityScenario:
    return CityScenario.build(ScenarioConfig(
        seed=seed,
        city=CityConfig(blocks=8),
        pois=POIConfig(count=400),
        n_training_trips=30,
    ))


@functools.lru_cache(maxsize=None)
def corpus(seed: int) -> tuple[RawTrajectory, ...]:
    """Three healthy trips, a duplicated-sample mutant, and an off-map item."""
    rng = np.random.default_rng(seed)
    trips = [
        scenario(seed).simulate_trip(depart_time=(7.0 + 2.5 * i) * 3600.0, rng=rng)
        for i in range(3)
    ]
    items = [
        RawTrajectory(trip.raw.points, f"s{seed}-trip-{i}")
        for i, trip in enumerate(trips)
    ]
    doubled = []
    for p in trips[0].raw:
        doubled.append(p)
        doubled.append(TrajectoryPoint(p.point, p.t))
    items.append(RawTrajectory(doubled, f"s{seed}-dup-samples"))
    items.append(RawTrajectory(
        [
            TrajectoryPoint(GeoPoint(10.0, 10.0 + 0.001 * i), float(i * 30))
            for i in range(12)
        ],
        f"s{seed}-off-map",
    ))
    return tuple(items)


def faults(seed: int) -> FaultInjector:
    """Unbounded faults aimed at single items: one degrades, one quarantines."""
    return FaultInjector([
        FaultSpec(stage="partition", times=None, trajectory_id=f"s{seed}-trip-1"),
        FaultSpec(
            stage="extract", error=TransientError, times=None,
            trajectory_id=f"s{seed}-trip-2",
        ),
    ])


def run_case(seed: int, k: int | None, sanitize: bool, **pool) -> list[dict]:
    """One batch of the corpus through ``summarize_many``, as golden records.

    *pool* is forwarded to ``summarize_many`` (``workers``, ``shard_size``,
    ``executor``); empty means the default serial call.
    """
    stmaker = scenario(seed).stmaker
    with faults(seed).installed(stmaker):
        result = stmaker.summarize_many(
            list(corpus(seed)), k=k, sanitize=sanitize, retry=RETRY, **pool
        )
    return records(result)


def records(result) -> list[dict]:
    """The golden view of a batch result, one record per item in input order."""
    quarantined = {q.index: q for q in result.quarantined}
    summaries = iter(result.summaries)
    out = []
    for index in range(len(result.sanitization)):
        q = quarantined.get(index)
        if q is not None:
            out.append({
                "id": q.trajectory_id,
                "quarantine": {
                    "error_type": q.error_type,
                    "error": q.error,
                    "attempts": q.attempts,
                },
            })
            continue
        s = next(summaries)
        out.append({
            "id": s.trajectory_id,
            "text": s.text,
            "partitions": [[p.span.start_seg, p.span.end_seg] for p in s.partitions],
            "gamma": [
                {a.key: repr(a.irregular_rate) for a in p.assessments}
                for p in s.partitions
            ],
            "degradation": s.degradation.to_dict(),
        })
    return out


def case_name(seed: int, k: int | None, sanitize: bool) -> str:
    return f"seed={seed} k={k} sanitize={'on' if sanitize else 'off'}"


def generate() -> dict[str, list[dict]]:
    """Every case of the corpus, run serially."""
    return {case_name(*case): run_case(*case) for case in CASES}


def render(golden: dict[str, list[dict]]) -> str:
    """One JSON object per line per item, so a fixture diff reads per item."""
    lines = ["{"]
    for n, (name, items) in enumerate(golden.items()):
        lines.append(f" {json.dumps(name)}: [")
        lines.extend(
            "  " + json.dumps(item, sort_keys=True) + ("," if i < len(items) - 1 else "")
            for i, item in enumerate(items)
        )
        lines.append(" ]" + ("," if n < len(golden) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--accept", action="store_true",
        help="overwrite the committed fixture with the regenerated corpus",
    )
    args = parser.parse_args(argv)
    fresh = render(generate())
    if FIXTURE.exists() and FIXTURE.read_text() == fresh:
        print(f"{FIXTURE.name}: unchanged")
        return 0
    if FIXTURE.exists() and not args.accept:
        print(
            f"{FIXTURE.name}: the regenerated corpus differs; rerun with "
            "--accept to overwrite it (and review the diff)",
            file=sys.stderr,
        )
        return 1
    FIXTURE.write_text(fresh)
    print(f"{FIXTURE.name}: written ({len(fresh)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
