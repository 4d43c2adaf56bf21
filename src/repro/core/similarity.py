"""Weighted cosine similarity between segment feature vectors (Eq. 3).

``S(TS_i, TS_{i+1})`` is the weighted cosine of the two normalized feature
vectors, affinely mapped from ``[-1, 1]`` to ``[0, 1]``.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.exceptions import FeatureError


def _peak_scaled(values: Sequence[float]) -> Sequence[float]:
    peak = max((abs(x) for x in values), default=0.0)
    if peak > 0.0 and math.isfinite(peak):
        return [x / peak for x in values]
    return values


def _scaled_with_norm(
    u: Sequence[float], weights: Sequence[float]
) -> tuple[Sequence[float], float]:
    """*u* peak-scaled, with its norm under the (peak-scaled) *weights*."""
    u = _peak_scaled(u)
    return u, math.sqrt(sum(w * a * a for w, a in zip(weights, u)))


def _check_dimensions(
    u: Sequence[float], v: Sequence[float], weights: Sequence[float]
) -> None:
    if not (len(u) == len(v) == len(weights)):
        raise FeatureError(
            f"dimension mismatch: |u|={len(u)}, |v|={len(v)}, |w|={len(weights)}"
        )


def weighted_cosine_similarity(
    u: Sequence[float], v: Sequence[float], weights: Sequence[float]
) -> float:
    """Eq. 3 of the paper: ``0.5 * (weighted_cos(u, v) + 1)`` in ``[0, 1]``.

    Conventions for degenerate vectors (all features zero under the given
    weights): two zero vectors are identical (similarity 1); a zero vector
    against a non-zero one is treated as uncorrelated (cosine 0, similarity
    0.5).
    """
    return segment_similarities([u, v], weights)[0]


def segment_similarities(
    vectors: Sequence[Sequence[float]], weights: Sequence[float]
) -> list[float]:
    """``S(TS_i, TS_{i+1})`` for every consecutive pair of segment vectors.

    The weights are checked and scaled once per call, and each vector is
    scaled, and its norm taken, once.  A pair's dimensions are checked
    before it is compared, and the weights after the first pair's, so the
    first error raised is the one a pair-by-pair
    :func:`weighted_cosine_similarity` would raise.
    """
    out: list[float] = []
    if len(vectors) < 2:
        return out
    _check_dimensions(vectors[0], vectors[1], weights)
    if any(w < 0.0 for w in weights):
        raise FeatureError("feature weights must be non-negative")
    # The cosine is invariant under positive rescaling of u, v, and the
    # weights; normalizing each by its peak keeps the products below out
    # of the subnormal range, where rounding is coarse enough to break
    # symmetry (w=5e-324 made S(u,v) != S(v,u) before this).
    weights = _peak_scaled(weights)
    u, norm_u = _scaled_with_norm(vectors[0], weights)
    for a, b in zip(vectors, vectors[1:]):
        _check_dimensions(a, b, weights)
        v, norm_v = _scaled_with_norm(b, weights)
        if norm_u == 0.0 and norm_v == 0.0:
            cosine = 1.0
        elif norm_u == 0.0 or norm_v == 0.0:
            cosine = 0.0
        else:
            dot = sum(w * x * y for w, x, y in zip(weights, u, v))
            cosine = max(-1.0, min(1.0, dot / (norm_u * norm_v)))
        out.append(0.5 * (cosine + 1.0))
        u, norm_u = v, norm_v
    return out
