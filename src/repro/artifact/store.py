"""Artifact codecs, fingerprints, atomic IO, and the per-process cache.

The on-disk schema is the versioned dict produced by
:func:`stmaker_to_dict` — one schema, two codecs:

* **json** — the legacy human-readable format (``*.json``).  The
  fingerprint travels as a top-level ``"fingerprint"`` key and covers the
  canonical (sorted-keys, no-whitespace) serialization of everything
  else, so re-encoding the same model always fingerprints identically.
  Files written before fingerprints existed load fine — their
  fingerprint is computed on read instead of verified.
* **binary** — ``BINARY_MAGIC`` + one JSON header line (format version,
  codec, payload size, fingerprint) + a pickle-protocol-5 payload of the
  same dict.  The header is designed to be readable without unpickling:
  :func:`artifact_info` on a binary artifact costs one ``readline``.
  The fingerprint is the SHA-256 of the payload bytes.

Both codecs write atomically (temp file in the destination directory,
fsync, ``os.replace``) and verify the fingerprint on load, so a partially
written or corrupted file is an :class:`~repro.exceptions.ArtifactError`,
never a silently wrong model.

Custom feature *definitions* carry Python callables and cannot be
serialized; only their keys are stored, and :func:`stmaker_from_dict`
(so :func:`load_artifact`) takes an optional registry carrying the same
definitions for models trained with extensions.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import pickle
import shutil
import tempfile
import threading
import time
import weakref
from dataclasses import dataclass
from pathlib import Path

from repro.core.config import SummarizerConfig
from repro.core.summarizer import STMaker
from repro.exceptions import ArtifactError, ConfigError
from repro.features import FeatureRegistry, default_registry
from repro.landmarks.io import landmarks_from_dict, landmarks_to_dict
from repro.obs import metrics
from repro.roadnet import network_from_dict, network_to_dict
from repro.routes import HistoricalFeatureMap, TransferNetwork

#: Leading bytes of a binary city-model artifact (8 bytes, version-tagged).
BINARY_MAGIC = b"REPROCM1"

ARTIFACT_FORMATS = ("json", "binary")

_PICKLE_PROTOCOL = 5

#: Schema version of the model dict inside every artifact.
_FORMAT_VERSION = 1


def stmaker_to_dict(stmaker: STMaker) -> dict:
    """JSON-compatible snapshot of a trained STMaker (the artifact schema)."""
    return {
        "version": _FORMAT_VERSION,
        "network": network_to_dict(stmaker.network),
        "landmarks": landmarks_to_dict(stmaker.landmarks),
        "transfers": stmaker.transfers.to_dict(),
        "feature_map": stmaker.feature_map.to_dict(),
        "config": {
            "ca": stmaker.config.ca,
            "irregular_threshold": stmaker.config.irregular_threshold,
            "feature_weights": stmaker.config.feature_weights,
            "popular_route_min_support": stmaker.config.popular_route_min_support,
        },
        "feature_keys": stmaker.registry.keys(),
    }


def stmaker_from_dict(
    data: dict, registry: FeatureRegistry | None = None
) -> STMaker:
    """Rebuild an STMaker from :func:`stmaker_to_dict` output.

    *registry* must be provided when the model was trained with custom
    features (their extractors are code, not data); its keys must cover
    the stored ``feature_keys``.
    """
    version = data.get("version")
    if version != _FORMAT_VERSION:
        raise ConfigError(f"unsupported STMaker format version: {version}")
    registry = registry or default_registry(
        include_speed_change="speed_changes" in data["feature_keys"]
    )
    missing = [key for key in data["feature_keys"] if key not in registry]
    if missing:
        raise ConfigError(
            f"model was trained with features {missing}; pass a registry "
            "containing their definitions"
        )
    config = SummarizerConfig(
        ca=data["config"]["ca"],
        irregular_threshold=data["config"]["irregular_threshold"],
        feature_weights=dict(data["config"]["feature_weights"]),
        popular_route_min_support=data["config"]["popular_route_min_support"],
    )
    return STMaker(
        network_from_dict(data["network"]),
        landmarks_from_dict(data["landmarks"]),
        TransferNetwork.from_dict(data["transfers"]),
        HistoricalFeatureMap.from_dict(data["feature_map"]),
        config=config,
        registry=registry,
    )


@dataclass(frozen=True, slots=True)
class ArtifactInfo:
    """Identity of one artifact file: where, which codec, which content."""

    path: str
    format: str  # "json" | "binary"
    #: SHA-256 hex digest of the serialized model content.
    fingerprint: str
    #: Schema version of the embedded model dict.
    version: int
    size_bytes: int

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "format": self.format,
            "fingerprint": self.fingerprint,
            "version": self.version,
            "size_bytes": self.size_bytes,
        }


def _infer_format(path: Path, format: str | None) -> str:
    if format is None:
        format = "json" if path.suffix.lower() == ".json" else "binary"
    if format not in ARTIFACT_FORMATS:
        raise ArtifactError(
            f"unknown artifact format {format!r}; expected one of {ARTIFACT_FORMATS}"
        )
    return format


def compute_fingerprint(data: dict) -> str:
    """Canonical content fingerprint of a model dict (codec-independent).

    SHA-256 over the sorted-keys compact JSON of the dict (minus any
    embedded ``"fingerprint"``), so the same trained state fingerprints
    identically no matter which codec carried it or what key order the
    producer used.
    """
    body = {key: value for key, value in data.items() if key != "fingerprint"}
    canonical = json.dumps(
        body, sort_keys=True, separators=(",", ":"), allow_nan=True
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write *payload* to *path* via temp file + rename in one directory.

    Either *path* ends up as the complete new content, or it is left
    exactly as it was (absent, or the previous version) — a crash between
    the write and the rename leaves only a stray ``*.tmp`` that this
    function also removes on its own failures.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def save_artifact(stmaker, path: str | Path, *, format: str | None = None) -> ArtifactInfo:
    """Persist a trained STMaker to *path*; returns the artifact identity.

    *format* defaults by extension: ``*.json`` writes the JSON codec,
    anything else the binary codec.  The write is atomic (see
    :func:`_atomic_write_bytes`).
    """
    path = Path(path)
    format = _infer_format(path, format)
    data = stmaker_to_dict(stmaker)
    fingerprint = compute_fingerprint(data)
    if format == "json":
        data["fingerprint"] = fingerprint
        payload = json.dumps(data).encode("utf-8")
    else:
        body = pickle.dumps(data, protocol=_PICKLE_PROTOCOL)
        header = json.dumps({
            "format_version": int(data["version"]),
            "codec": f"pickle/{_PICKLE_PROTOCOL}",
            "fingerprint": fingerprint,
            "payload_bytes": len(body),
            "created_unix": time.time(),
        }).encode("ascii")
        payload = BINARY_MAGIC + b"\n" + header + b"\n" + body
    _atomic_write_bytes(path, payload)
    metrics().counter("artifact.saves").inc()
    return ArtifactInfo(
        str(path), format, fingerprint, int(data["version"]), len(payload)
    )


def _read_binary(path: Path) -> tuple[dict, dict]:
    """(header, model dict) of a binary artifact, fingerprint-verified."""
    with open(path, "rb") as fh:
        magic = fh.read(len(BINARY_MAGIC) + 1)
        if magic != BINARY_MAGIC + b"\n":
            raise ArtifactError(
                f"{path}: not a binary city-model artifact "
                f"(bad magic {magic[:8]!r})"
            )
        try:
            header = json.loads(fh.readline().decode("ascii"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise ArtifactError(f"{path}: unreadable artifact header: {exc}") from exc
        body = fh.read()
    expected = int(header.get("payload_bytes", -1))
    if expected >= 0 and len(body) != expected:
        raise ArtifactError(
            f"{path}: truncated artifact payload "
            f"({len(body)} bytes, header says {expected})"
        )
    try:
        data = pickle.loads(body)
    except Exception as exc:
        raise ArtifactError(f"{path}: undecodable artifact payload: {exc}") from exc
    fingerprint = compute_fingerprint(data)
    if header.get("fingerprint") not in (None, fingerprint):
        raise ArtifactError(
            f"{path}: fingerprint mismatch — header says "
            f"{header['fingerprint']}, payload hashes to {fingerprint}"
        )
    header["fingerprint"] = fingerprint
    return header, data


def _read_json(path: Path) -> tuple[dict, dict]:
    """(pseudo-header, model dict) of a JSON artifact, fingerprint-verified."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ArtifactError(f"{path}: unreadable JSON artifact: {exc}") from exc
    if not isinstance(data, dict):
        raise ArtifactError(f"{path}: JSON artifact is not an object")
    fingerprint = compute_fingerprint(data)
    stored = data.pop("fingerprint", None)
    if stored is not None and stored != fingerprint:
        raise ArtifactError(
            f"{path}: fingerprint mismatch — file says {stored}, "
            f"content hashes to {fingerprint}"
        )
    header = {"format_version": data.get("version"), "fingerprint": fingerprint}
    return header, data


def _read(path: Path) -> tuple[str, dict, dict]:
    """Sniff the codec and return ``(format, header, model dict)``."""
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            lead = fh.read(len(BINARY_MAGIC))
    except OSError as exc:
        raise ArtifactError(f"cannot read artifact {path}: {exc}") from exc
    if lead == BINARY_MAGIC:
        header, data = _read_binary(path)
        return "binary", header, data
    header, data = _read_json(path)
    return "json", header, data


def artifact_info(path: str | Path) -> ArtifactInfo:
    """Identity of the artifact at *path* without rebuilding the model.

    Binary artifacts answer from the header alone (one ``readline``);
    JSON artifacts are parsed and fingerprint-verified.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
        with open(path, "rb") as fh:
            lead = fh.read(len(BINARY_MAGIC) + 1)
            if lead == BINARY_MAGIC + b"\n":
                try:
                    header = json.loads(fh.readline().decode("ascii"))
                except (ValueError, UnicodeDecodeError) as exc:
                    raise ArtifactError(
                        f"{path}: unreadable artifact header: {exc}"
                    ) from exc
                return ArtifactInfo(
                    str(path), "binary",
                    str(header.get("fingerprint", "")),
                    int(header.get("format_version", 0)), size,
                )
    except OSError as exc:
        raise ArtifactError(f"cannot read artifact {path}: {exc}") from exc
    header, _ = _read_json(path)
    return ArtifactInfo(
        str(path), "json", str(header["fingerprint"]),
        int(header.get("format_version") or 0), size,
    )


def load_artifact(
    path: str | Path, registry: FeatureRegistry | None = None
) -> tuple[object, ArtifactInfo]:
    """Rebuild the STMaker stored at *path*; returns ``(stmaker, info)``.

    Codec is sniffed from the file, the fingerprint is verified, and
    *registry* is forwarded for models trained with custom features (their
    extractors are code, not data — see :func:`stmaker_from_dict`).
    """
    path = Path(path)
    format, header, data = _read(path)
    stmaker = stmaker_from_dict(data, registry=registry)
    metrics().counter("artifact.loads").inc()
    return stmaker, ArtifactInfo(
        str(path), format, str(header["fingerprint"]),
        int(data["version"]), path.stat().st_size,
    )


# -- per-process cache ---------------------------------------------------------

_cache_lock = threading.Lock()
_cache: dict[tuple[str, str], object] = {}


def cached_stmaker(
    path: str | Path,
    fingerprint: str | None = None,
    registry: FeatureRegistry | None = None,
):
    """The STMaker for *path*, loaded at most once per process.

    The cache key is ``(realpath, fingerprint)``: re-publishing a new
    model under the same filename is a cache miss (new fingerprint),
    while N shards handed to one worker process all share a single load.
    When *fingerprint* is given, the file's fingerprint must match — a
    worker handed a stale reference fails loudly instead of serving a
    different model than its parent intended.
    """
    real = os.path.realpath(os.fspath(path))
    if fingerprint is not None:
        key = (real, fingerprint)
        with _cache_lock:
            hit = _cache.get(key)
        if hit is not None:
            metrics().counter("artifact.cache.hits").inc()
            return hit
    stmaker, info = load_artifact(path, registry=registry)
    if fingerprint is not None and info.fingerprint != fingerprint:
        raise ArtifactError(
            f"{path}: expected fingerprint {fingerprint}, "
            f"file has {info.fingerprint}"
        )
    key = (real, info.fingerprint)
    with _cache_lock:
        cached = _cache.setdefault(key, stmaker)
    metrics().counter("artifact.cache.misses").inc()
    return cached


def artifact_cache_size() -> int:
    with _cache_lock:
        return len(_cache)


def artifact_cache_clear() -> None:
    with _cache_lock:
        _cache.clear()


# -- parent-side auto-publication ----------------------------------------------

_publish_lock = threading.Lock()
_published: "weakref.WeakKeyDictionary[object, ArtifactInfo]" = (
    weakref.WeakKeyDictionary()
)
_session_dir: str | None = None


def _session_artifact_dir() -> Path:
    global _session_dir
    with _publish_lock:
        if _session_dir is None:
            _session_dir = tempfile.mkdtemp(prefix="repro-city-model-")
            atexit.register(shutil.rmtree, _session_dir, ignore_errors=True)
    return Path(_session_dir)


def ensure_artifact(stmaker, *, directory: str | Path | None = None) -> ArtifactInfo:
    """Publish *stmaker* as a binary artifact, memoized per model object.

    The process executor's parent-side half: an in-memory model is saved
    once to a session temp directory (or *directory*), and every later
    batch against the same object reuses the file.  The memo assumes the
    trained state is immutable after construction — which it is; the only
    mutable STMaker attribute (``fault_injector``) is deliberately not
    part of the artifact and travels separately.
    """
    with _publish_lock:
        info = _published.get(stmaker)
    if info is not None and Path(info.path).exists():
        return info
    base = Path(directory) if directory is not None else _session_artifact_dir()
    data = stmaker_to_dict(stmaker)
    fingerprint = compute_fingerprint(data)
    path = base / f"city-model-{fingerprint[:16]}.stm"
    if path.exists():
        info = artifact_info(path)
    else:
        info = save_artifact(stmaker, path, format="binary")
    with _publish_lock:
        _published[stmaker] = info
    return info
