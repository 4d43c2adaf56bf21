"""Shared fixtures: projector, hand-built micro network, generated city."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geo import GeoPoint, LocalProjector
from repro.roadnet import (
    CityConfig,
    RoadGrade,
    RoadNetwork,
    TrafficDirection,
    generate_city,
)

CITY_CENTER = GeoPoint(39.91, 116.40)


@pytest.fixture(autouse=True)
def _isolate_process_globals():
    """Reset process-wide singletons after every test.

    The breaker registry (:func:`repro.serving.get_breaker`), the tracked
    ops server, the status-section registry, and the obs enable/disable
    globals (dropping the event bus detaches every sink subscribed to it)
    are process-wide by design — which means a test that enables
    one and fails (or just forgets to disable) leaks it into every test
    that runs after it.  This guard makes each test see the pristine
    disabled-by-default world, so suites pass in any order and under
    ``-p no:randomly``-style reshuffles alike.
    """
    yield
    from repro import obs
    from repro.serving import reset_breakers

    reset_breakers()
    obs.stop_ops_server()
    for name in list(obs.status_sections()):
        obs.unregister_status_section(name)
    obs.disable_events()
    obs.disable_tracing()
    obs.disable_metrics()
    obs.clear_span_context()


@pytest.fixture(scope="session")
def projector() -> LocalProjector:
    return LocalProjector(CITY_CENTER)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture(scope="session")
def micro_network() -> RoadNetwork:
    """A 3x3 grid network with mixed grades and one one-way street.

    Layout (node ids), spacing 500 m::

        6 - 7 - 8
        |   |   |
        3 - 4 - 5
        |   |   |
        0 - 1 - 2

    Horizontal rows are NATIONAL roads; vertical columns are FEEDER lanes,
    the middle column (1-4-7) one-way northbound.
    """
    projector = LocalProjector(CITY_CENTER)
    network = RoadNetwork(projector)
    for j in range(3):
        for i in range(3):
            network.add_node(projector.to_point(i * 500.0, j * 500.0))
    for j in range(3):  # horizontal edges
        for i in range(2):
            network.add_edge(
                j * 3 + i, j * 3 + i + 1, RoadGrade.NATIONAL, 18.0,
                TrafficDirection.TWO_WAY, f"Row {j} Avenue",
            )
    for i in range(3):  # vertical edges
        direction = TrafficDirection.ONE_WAY if i == 1 else TrafficDirection.TWO_WAY
        for j in range(2):
            network.add_edge(
                j * 3 + i, (j + 1) * 3 + i, RoadGrade.FEEDER, 5.0,
                direction, f"Col {i} Lane",
            )
    return network


@pytest.fixture(scope="session")
def city() -> RoadNetwork:
    """A small generated city shared across the test session."""
    rng = np.random.default_rng(7)
    return generate_city(CityConfig(blocks=10), rng)


@pytest.fixture(scope="session")
def scenario():
    """A fully built scenario (city + landmarks + trained STMaker)."""
    from repro.simulate import CityScenario, ScenarioConfig

    return CityScenario.build(ScenarioConfig(seed=7, n_training_trips=120))
