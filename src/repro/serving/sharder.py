"""Batch partitioning: split N items into contiguous shards of indices.

A :class:`Shard` is pure bookkeeping — a shard id plus the *input indices*
it owns.  Keeping shards index-based (instead of copying items) makes the
invariants trivial to state and test: across every shard of a plan, each
index in ``range(n)`` appears exactly once, and shard order is input
order.

There is one plan: contiguous slices whose sizes differ by at most one,
sized by a shard count or by a per-shard item count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ConfigError


@dataclass(frozen=True, slots=True)
class Shard:
    """One shard of a batch plan: which input indices it owns."""

    shard_id: int
    #: Input indices assigned to this shard, in ascending order.
    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


def plan_shards(
    n: int,
    *,
    num_shards: int | None = None,
    shard_size: int | None = None,
) -> list[Shard]:
    """Split indices ``0..n-1`` into contiguous balanced shards.

    Exactly one sizing knob applies: ``shard_size`` (number of shards is
    ``ceil(n / shard_size)``) wins over ``num_shards`` when both are
    given.  Shard sizes differ by at most one, the first ``n % count``
    shards taking the extra item, and no shard is empty.  The returned
    shards partition ``range(n)`` in order: every index appears in
    exactly one shard.
    """
    if n < 0:
        raise ConfigError(f"cannot shard a negative batch size: {n}")
    if shard_size is not None:
        if shard_size < 1:
            raise ConfigError(f"shard_size must be >= 1, got {shard_size}")
        count = math.ceil(n / shard_size) if n else 1
    elif num_shards is not None:
        if num_shards < 1:
            raise ConfigError(f"num_shards must be >= 1, got {num_shards}")
        count = num_shards
    else:
        raise ConfigError("one of num_shards/shard_size is required")
    if n == 0:
        return []
    count = min(count, n)
    base, extra = divmod(n, count)
    shards: list[Shard] = []
    start = 0
    for shard_id in range(count):
        size = base + (1 if shard_id < extra else 0)
        shards.append(Shard(shard_id, tuple(range(start, start + size))))
        start += size
    return shards
