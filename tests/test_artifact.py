"""The versioned city-model artifact: codecs, fingerprints, cache, atomicity.

The load-bearing properties:

* **round-trip** — train → save → load yields a model that produces
  byte-identical summaries on a seeded corpus, for both codecs;
* **fingerprint** — codec-independent content identity, verified on
  load, so truncation/tampering is an :class:`ArtifactError`, never a
  silently different model;
* **cache** — one rebuild per ``(path, fingerprint)`` per process;
* **atomic writes** — a save that dies mid-write (simulated by making
  the final rename fail) leaves the previous artifact intact and no
  temp debris behind.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.artifact import (
    ARTIFACT_FORMATS,
    BINARY_MAGIC,
    artifact_cache_clear,
    artifact_cache_size,
    artifact_info,
    cached_stmaker,
    compute_fingerprint,
    ensure_artifact,
    load_artifact,
    save_artifact,
    stmaker_to_dict,
)
from repro.exceptions import ArtifactError, ConfigError


@pytest.fixture()
def stmaker(scenario):
    return scenario.stmaker


@pytest.fixture()
def trips(scenario):
    rng = np.random.default_rng(42)
    return [
        scenario.simulate_trips(1, depart_time=(7.0 + 0.5 * i) * 3600.0, rng=rng)[
            0
        ].raw
        for i in range(5)
    ]


def _texts(stmaker, trips):
    return [stmaker.summarize(t, k=2).text for t in trips]


# -- round-trips --------------------------------------------------------------


@pytest.mark.parametrize("format", ARTIFACT_FORMATS)
def test_round_trip_identical_summaries(stmaker, trips, tmp_path, format):
    path = tmp_path / f"model.{format}"
    info = save_artifact(stmaker, path, format=format)
    loaded, loaded_info = load_artifact(path)
    assert _texts(loaded, trips) == _texts(stmaker, trips)
    assert info.format == loaded_info.format == format
    assert info.fingerprint == loaded_info.fingerprint


def test_format_inferred_from_extension(stmaker, tmp_path):
    json_info = save_artifact(stmaker, tmp_path / "m.json")
    bin_info = save_artifact(stmaker, tmp_path / "m.stm")
    assert json_info.format == "json"
    assert bin_info.format == "binary"
    # The JSON file really is JSON; the binary file really leads with magic.
    assert json.loads((tmp_path / "m.json").read_text())["version"] == 1
    assert (tmp_path / "m.stm").read_bytes()[: len(BINARY_MAGIC)] == BINARY_MAGIC


def test_load_sniffs_codec_regardless_of_extension(stmaker, trips, tmp_path):
    path = tmp_path / "model.json"  # lying extension: binary content
    save_artifact(stmaker, path, format="binary")
    loaded, info = load_artifact(path)
    assert info.format == "binary"
    assert _texts(loaded, trips[:1]) == _texts(stmaker, trips[:1])


def test_unknown_format_rejected(stmaker, tmp_path):
    with pytest.raises(ArtifactError, match="unknown artifact format"):
        save_artifact(stmaker, tmp_path / "m.bin", format="msgpack")


def test_legacy_fingerprintless_json_still_loads(stmaker, trips, tmp_path):
    """Files written before fingerprints existed load (and verify) fine."""
    path = tmp_path / "old.json"
    path.write_text(json.dumps(stmaker_to_dict(stmaker)), encoding="utf-8")
    loaded, info = load_artifact(path)
    assert _texts(loaded, trips[:1]) == _texts(stmaker, trips[:1])
    assert info.fingerprint == compute_fingerprint(stmaker_to_dict(stmaker))


def test_unsupported_version_raises_config_error(stmaker, tmp_path):
    data = stmaker_to_dict(stmaker)
    data["version"] = 99
    path = tmp_path / "future.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ConfigError, match="format version"):
        load_artifact(path)


# -- fingerprints -------------------------------------------------------------


def test_fingerprint_is_codec_independent(stmaker, tmp_path):
    a = save_artifact(stmaker, tmp_path / "a.json")
    b = save_artifact(stmaker, tmp_path / "b.stm")
    assert a.fingerprint == b.fingerprint
    assert len(a.fingerprint) == 64  # sha256 hex


def test_fingerprint_ignores_key_order():
    data = {"version": 1, "alpha": [1, 2], "beta": {"x": 1.5}}
    shuffled = {"beta": {"x": 1.5}, "alpha": [1, 2], "version": 1}
    assert compute_fingerprint(data) == compute_fingerprint(shuffled)
    assert compute_fingerprint({**data, "fingerprint": "zzz"}) == (
        compute_fingerprint(data)
    )


def test_artifact_info_reads_binary_header_only(stmaker, tmp_path):
    path = tmp_path / "m.stm"
    saved = save_artifact(stmaker, path)
    info = artifact_info(path)
    assert info == saved
    assert info.size_bytes == path.stat().st_size


def test_truncated_binary_rejected(stmaker, tmp_path):
    path = tmp_path / "m.stm"
    save_artifact(stmaker, path)
    raw = path.read_bytes()
    bad = tmp_path / "truncated.stm"
    bad.write_bytes(raw[:-20])
    with pytest.raises(ArtifactError, match="truncated"):
        load_artifact(bad)


def test_tampered_binary_payload_rejected(stmaker, tmp_path):
    path = tmp_path / "m.stm"
    save_artifact(stmaker, path)
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF  # flip one payload bit, keep the length
    bad = tmp_path / "tampered.stm"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ArtifactError):
        load_artifact(bad)


def test_tampered_json_rejected(stmaker, tmp_path):
    path = tmp_path / "m.json"
    save_artifact(stmaker, path)
    data = json.loads(path.read_text())
    data["config"]["ca"] = data["config"]["ca"] + 1.0  # content/fingerprint split
    path.write_text(json.dumps(data))
    with pytest.raises(ArtifactError, match="fingerprint mismatch"):
        load_artifact(path)


def test_garbage_file_rejected(tmp_path):
    path = tmp_path / "garbage.stm"
    path.write_bytes(b"\x00\x01\x02 definitely not an artifact")
    with pytest.raises(ArtifactError):
        load_artifact(path)
    with pytest.raises(ArtifactError):
        load_artifact(tmp_path / "does-not-exist.stm")


# -- per-process cache --------------------------------------------------------


def test_cached_stmaker_loads_once_per_fingerprint(stmaker, tmp_path):
    artifact_cache_clear()
    path = tmp_path / "m.stm"
    info = save_artifact(stmaker, path)
    first = cached_stmaker(path, info.fingerprint)
    second = cached_stmaker(path, info.fingerprint)
    assert first is second
    assert artifact_cache_size() == 1

    # Republishing different content under the same path is a miss, not
    # a stale hit, and the new model replaces the old one: a long-lived
    # worker holds one model per artifact file.
    import dataclasses
    sibling = stmaker.with_config(dataclasses.replace(stmaker.config, ca=0.33))
    new_info = save_artifact(sibling, path)
    assert new_info.fingerprint != info.fingerprint
    third = cached_stmaker(path, new_info.fingerprint)
    assert third is not first
    assert artifact_cache_size() == 1
    assert cached_stmaker(path, new_info.fingerprint) is third
    artifact_cache_clear()
    assert artifact_cache_size() == 0


def test_cached_stmaker_rejects_stale_fingerprint(stmaker, tmp_path):
    artifact_cache_clear()
    path = tmp_path / "m.stm"
    save_artifact(stmaker, path)
    with pytest.raises(ArtifactError, match="expected fingerprint"):
        cached_stmaker(path, "0" * 64)
    artifact_cache_clear()


def test_ensure_artifact_is_memoized(stmaker, tmp_path):
    first = ensure_artifact(stmaker, directory=tmp_path)
    second = ensure_artifact(stmaker, directory=tmp_path)
    assert first.path == second.path
    assert first.fingerprint == second.fingerprint
    assert Path(first.path).exists()
    assert first.format == "binary"


# -- atomic writes (crash-safety satellite) -----------------------------------


@pytest.mark.parametrize("format", ARTIFACT_FORMATS)
def test_failed_save_leaves_previous_artifact_intact(
    stmaker, trips, tmp_path, monkeypatch, format
):
    """A save that dies at the final rename must be a no-op on the target."""
    path = tmp_path / f"model.{format}"
    save_artifact(stmaker, path, format=format)
    before = path.read_bytes()

    def exploding_replace(src, dst):
        raise OSError("disk died mid-save")

    monkeypatch.setattr(os, "replace", exploding_replace)
    import dataclasses
    victim = stmaker.with_config(dataclasses.replace(stmaker.config, ca=0.9))
    with pytest.raises(OSError, match="disk died"):
        save_artifact(victim, path, format=format)
    monkeypatch.undo()

    assert path.read_bytes() == before  # previous version untouched
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temp debris
    loaded, _ = load_artifact(path)
    assert _texts(loaded, trips[:1]) == _texts(stmaker, trips[:1])


def test_failed_first_save_leaves_no_file(stmaker, tmp_path, monkeypatch):
    path = tmp_path / "model.stm"

    monkeypatch.setattr(os, "replace", lambda s, d: (_ for _ in ()).throw(OSError("boom")))
    with pytest.raises(OSError):
        save_artifact(stmaker, path)
    monkeypatch.undo()

    assert not path.exists()
    assert list(tmp_path.iterdir()) == []
