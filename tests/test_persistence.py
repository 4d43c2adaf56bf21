"""Tests for landmark and STMaker persistence."""

import numpy as np
import pytest

from repro.artifact import (
    load_artifact,
    save_artifact,
    stmaker_from_dict,
    stmaker_to_dict,
)
from repro.core import SummarizerConfig
from repro.exceptions import ConfigError, GeometryError
from repro.features import (
    FeatureDefinition,
    FeatureDtype,
    FeatureKind,
    default_registry,
)
from repro.landmarks import (
    landmarks_from_dict,
    landmarks_to_dict,
    load_landmarks,
    save_landmarks,
)
from repro.routes import HistoricalFeatureMap, TransferNetwork


class TestLandmarkIO:
    def test_roundtrip(self, scenario, tmp_path):
        path = tmp_path / "landmarks.json"
        save_landmarks(scenario.landmarks, path)
        back = load_landmarks(path)
        assert len(back) == len(scenario.landmarks)
        for lm in scenario.landmarks:
            twin = back.get(lm.landmark_id)
            assert twin.name == lm.name
            assert twin.kind == lm.kind
            assert twin.significance == pytest.approx(lm.significance)
            assert twin.point == lm.point

    def test_spatial_queries_survive(self, scenario, tmp_path):
        path = tmp_path / "landmarks.json"
        save_landmarks(scenario.landmarks, path)
        back = load_landmarks(path)
        probe = next(iter(scenario.landmarks)).point
        hit = back.nearest(probe)
        assert hit is not None and hit[0] == pytest.approx(0.0, abs=1e-6)

    def test_bad_version_rejected(self, scenario):
        data = landmarks_to_dict(scenario.landmarks)
        data["version"] = 99
        with pytest.raises(GeometryError):
            landmarks_from_dict(data)


class TestHistoryDicts:
    def test_transfer_roundtrip(self):
        tn = TransferNetwork()
        tn.add_transition(1, 2, 5)
        tn.add_transition(2, 3, 1)
        back = TransferNetwork.from_dict(tn.to_dict())
        assert back.transition_count(1, 2) == 5
        assert back.total_transitions == 6

    def test_feature_map_roundtrip_exact(self):
        fm = HistoricalFeatureMap()
        fm.add_observation(1, 2, {"speed": 10.0, "stays": 1.0})
        fm.add_observation(1, 2, {"speed": 14.0})
        back = HistoricalFeatureMap.from_dict(fm.to_dict())
        assert back.regular_value(1, 2, "speed") == pytest.approx(12.0)
        assert back.observation_count(1, 2, "speed") == 2
        assert back.global_average("stays") == pytest.approx(1.0)
        # Further observations keep accumulating correctly.
        back.add_observation(1, 2, {"speed": 18.0})
        assert back.regular_value(1, 2, "speed") == pytest.approx(14.0)


class TestSTMakerPersistence:
    def test_roundtrip_preserves_summaries(self, scenario, tmp_path):
        path = tmp_path / "model.json"
        save_artifact(scenario.stmaker, path)
        loaded, _ = load_artifact(path)
        trip = scenario.simulate_trip(
            depart_time=9 * 3600.0, rng=np.random.default_rng(5)
        )
        original = scenario.stmaker.summarize(trip.raw, k=2)
        restored = loaded.summarize(trip.raw, k=2)
        assert restored.text == original.text

    def test_config_preserved(self, scenario, tmp_path):
        tuned = scenario.summarizer_with(
            SummarizerConfig(ca=0.8, feature_weights={"speed": 2.0})
        )
        path = tmp_path / "tuned.json"
        save_artifact(tuned, path)
        loaded, _ = load_artifact(path)
        assert loaded.config.ca == 0.8
        assert loaded.config.weight("speed") == 2.0

    def test_bad_version_rejected(self, scenario):
        data = stmaker_to_dict(scenario.stmaker)
        data["version"] = 42
        with pytest.raises(ConfigError):
            stmaker_from_dict(data)

    def test_custom_feature_requires_registry(self, scenario):
        registry = default_registry()
        registry.register(
            FeatureDefinition(
                "fuel", "F", FeatureKind.MOVING, FeatureDtype.NUMERIC,
                extractor=lambda ctx: 0.0,
            )
        )
        stmaker = scenario.stmaker
        data = stmaker_to_dict(stmaker)
        data["feature_keys"] = data["feature_keys"] + ["fuel"]
        with pytest.raises(ConfigError):
            stmaker_from_dict(data)  # registry lacking "fuel"
        rebuilt = stmaker_from_dict(data, registry=registry)
        assert "fuel" in rebuilt.registry
