"""Shared scenario fixtures for the benchmark harness.

Each bench regenerates one table/figure of the paper's evaluation section
(see DESIGN.md for the experiment index).  The scenario is built once per
session; per-figure workload sizes are chosen so the whole harness runs in
a few minutes on a laptop.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.simulate import CityScenario, ScenarioConfig

#: Training-corpus size: large enough for dense feature-map coverage.
TRAINING_TRIPS = 1_200


@pytest.fixture(autouse=True)
def stage_breakdown(request):
    """Trace every bench and print a per-figure stage-time breakdown.

    Each bench test runs with a fresh trace collector; on teardown the
    spans are aggregated by stage name (``calibrate``, ``extract``,
    ``partition``, ``select``, ``realize``, ...) so every figure reports
    where its wall time went.  The collector is capped so week-long
    workloads cannot exhaust memory.
    """
    collector = obs.enable_tracing(max_spans=200_000)
    try:
        yield
    finally:
        totals = collector.stage_totals()
        obs.disable_tracing()
    if totals:
        print(f"\n--- stage-time breakdown: {request.node.name} ---")
        print(f"{'stage':<24} {'calls':>8} {'total ms':>12} {'mean ms':>10}")
        for stage in totals:
            print(
                f"{stage.name:<24} {stage.count:>8} "
                f"{stage.total_ms:>12.2f} {stage.mean_ms:>10.3f}"
            )
        if collector.dropped:
            print(f"(+{collector.dropped} spans dropped at the collector cap)")


@pytest.fixture(scope="session")
def scenario() -> CityScenario:
    """The standard evaluation scenario (6 paper features)."""
    return CityScenario.build(
        ScenarioConfig(seed=7, n_training_trips=TRAINING_TRIPS, training_days=5)
    )


@pytest.fixture(scope="session")
def scenario_with_spec() -> CityScenario:
    """Scenario whose registry includes the SpeC extension feature
    (Fig. 10(b) reports seven features)."""
    return CityScenario.build(
        ScenarioConfig(
            seed=7,
            n_training_trips=TRAINING_TRIPS,
            training_days=5,
            include_speed_change_feature=True,
        )
    )
