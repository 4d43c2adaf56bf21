"""Versioned, immutable city-model artifacts.

Training an :class:`~repro.core.STMaker` calibrates a trajectory corpus
into a transfer network and a historical feature map — work worth doing
once.  This package freezes the whole trained world (road network, scored
landmarks, transfer network, feature map, configuration) into a single
**artifact file** with a content fingerprint, so a process-pool worker, a
remote shard, or tomorrow's serving job can rebuild the exact model the
parent trained without re-training or sharing memory:

* :func:`stmaker_to_dict` / :func:`stmaker_from_dict` — the versioned
  dict schema both codecs carry;
* :func:`save_artifact` / :func:`load_artifact` — write/read an artifact
  in either the legacy JSON format or a compact binary format
  (pickle protocol 5 of the same versioned dict schema).  Writes are
  atomic: temp file in the target directory + ``os.replace``, so a crash
  mid-write never leaves a corrupt artifact behind;
* :func:`artifact_info` — path, format, version and fingerprint without
  rebuilding the model;
* :func:`cached_stmaker` — a per-process cache keyed by
  ``(path, fingerprint)``: N shards served by one worker process load
  and rebuild the model exactly once;
* :func:`ensure_artifact` — parent-side helper that persists an
  in-memory ``STMaker`` to a session-scoped temp artifact (memoized per
  model object), which is how ``executor="process"`` serving ships a
  model reference instead of the model itself.

See ``docs/SERVING.md`` ("The city-model artifact") for the train once →
save → serve many workflow.
"""

from repro.artifact.store import (
    ARTIFACT_FORMATS,
    BINARY_MAGIC,
    ArtifactInfo,
    artifact_cache_clear,
    artifact_cache_size,
    artifact_info,
    cached_stmaker,
    compute_fingerprint,
    ensure_artifact,
    load_artifact,
    save_artifact,
    stmaker_from_dict,
    stmaker_to_dict,
)

__all__ = [
    "ARTIFACT_FORMATS",
    "BINARY_MAGIC",
    "ArtifactInfo",
    "artifact_cache_clear",
    "artifact_cache_size",
    "artifact_info",
    "cached_stmaker",
    "compute_fingerprint",
    "ensure_artifact",
    "load_artifact",
    "save_artifact",
    "stmaker_from_dict",
    "stmaker_to_dict",
]
