"""Property-based tests for the serving shard planner and reassembly.

Hand-rolled generators (seeded ``random.Random``, no hypothesis
dependency) drive hundreds of randomized cases against the two invariants
the serving layer is built on:

* every plan produced by :func:`plan_shards` partitions ``range(n)`` into
  contiguous slices — each index appears in exactly one shard, in input
  order, and shard sizes differ by at most one;
* :func:`reassemble` is the permutation inverse of *any* completion
  order: shuffled outcomes rebuild exactly the input-ordered batch, and
  corrupted index bookkeeping (lost/duplicate/out-of-range) always raises
  :class:`~repro.exceptions.ServingError`.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import ConfigError, ServingError
from repro.resilience import ItemOutcome, QuarantineEntry
from repro.serving import Shard, plan_shards, reassemble

N_CASES = 150


def random_cases(seed: int, n_cases: int = N_CASES):
    """Seeded stream of (n, sizing-kwargs) planner cases."""
    rng = random.Random(seed)
    for _ in range(n_cases):
        n = rng.randint(0, 64)
        if rng.random() < 0.5:
            kwargs = {"num_shards": rng.randint(1, 12)}
        else:
            kwargs = {"shard_size": rng.randint(1, 12)}
        yield n, kwargs


# -- plan_shards invariants ---------------------------------------------------


def test_every_index_appears_exactly_once():
    for n, kwargs in random_cases(seed=1):
        shards = plan_shards(n, **kwargs)
        covered = [i for shard in shards for i in shard.indices]
        assert sorted(covered) == list(range(n)), (n, kwargs)


def test_no_empty_shards_and_ids_are_ordered():
    for n, kwargs in random_cases(seed=2):
        shards = plan_shards(n, **kwargs)
        assert all(len(shard) > 0 for shard in shards)
        assert [s.shard_id for s in shards] == sorted(s.shard_id for s in shards)
        for shard in shards:
            assert list(shard.indices) == sorted(shard.indices)


def test_balanced_sizes_within_one():
    for n, kwargs in random_cases(seed=3):
        if n == 0:
            continue
        shards = plan_shards(n, **kwargs)
        sizes = [len(s) for s in shards]
        assert max(sizes) - min(sizes) <= 1, (n, kwargs, sizes)
        # Contiguity: concatenating the shards yields 0..n-1 in order.
        flat = [i for s in shards for i in s.indices]
        assert flat == list(range(n))


def test_shard_size_bounds_every_shard():
    rng = random.Random(5)
    for _ in range(N_CASES):
        n = rng.randint(1, 64)
        shard_size = rng.randint(1, 12)
        shards = plan_shards(n, shard_size=shard_size)
        assert all(len(s) <= shard_size for s in shards), (n, shard_size)


def test_planner_rejects_bad_configs():
    with pytest.raises(ConfigError):
        plan_shards(4)
    with pytest.raises(ConfigError):
        plan_shards(4, num_shards=0)
    with pytest.raises(ConfigError):
        plan_shards(4, shard_size=0)
    with pytest.raises(ConfigError):
        plan_shards(-1, num_shards=2)


def test_empty_batch_yields_empty_plan():
    assert plan_shards(0, num_shards=3) == []


def test_shard_is_sized_bookkeeping():
    shard = Shard(0, (3, 4, 5))
    assert len(shard) == 3


# -- reassemble: permutation inverse ------------------------------------------


def _outcome(index: int, ok: bool) -> ItemOutcome:
    """A minimal ItemOutcome; summaries are opaque to reassembly."""
    if ok:
        return ItemOutcome(
            index=index, summary=f"summary-{index}",  # type: ignore[arg-type]
            quarantine=None, sanitization=None,
        )
    return ItemOutcome(
        index=index,
        summary=None,
        quarantine=QuarantineEntry(
            index=index, trajectory_id=f"t-{index}",
            error_type="InjectedFault", error="boom", attempts=1,
        ),
        sanitization=None,
    )


def test_reassemble_inverts_any_completion_order():
    rng = random.Random(8)
    for _ in range(N_CASES):
        total = rng.randint(0, 48)
        ok_flags = [rng.random() < 0.7 for _ in range(total)]
        outcomes = [_outcome(i, ok) for i, ok in enumerate(ok_flags)]
        rng.shuffle(outcomes)  # arbitrary completion order

        result = reassemble(outcomes, total)
        assert [s for s in result.summaries] == [
            f"summary-{i}" for i, ok in enumerate(ok_flags) if ok
        ]
        assert [q.index for q in result.quarantined] == [
            i for i, ok in enumerate(ok_flags) if not ok
        ]
        assert result.ok_count + result.quarantined_count == total
        assert len(result.sanitization) == total


def test_reassemble_rejects_missing_index():
    rng = random.Random(9)
    for _ in range(40):
        total = rng.randint(2, 32)
        outcomes = [_outcome(i, True) for i in range(total)]
        del outcomes[rng.randrange(total)]
        with pytest.raises(ServingError, match="no outcome"):
            reassemble(outcomes, total)


def test_reassemble_rejects_duplicate_index():
    rng = random.Random(10)
    for _ in range(40):
        total = rng.randint(2, 32)
        outcomes = [_outcome(i, True) for i in range(total)]
        outcomes.append(_outcome(rng.randrange(total), False))
        rng.shuffle(outcomes)
        with pytest.raises(ServingError, match="duplicate"):
            reassemble(outcomes, total)


def test_reassemble_rejects_out_of_range_index():
    for bad in (-1, 5, 99):
        outcomes = [_outcome(i, True) for i in range(5)]
        outcomes[2] = _outcome(bad, True)
        with pytest.raises(ServingError, match="outside batch"):
            reassemble(outcomes, 5)


def test_item_outcome_requires_exactly_one_of_summary_or_quarantine():
    with pytest.raises(ValueError):
        ItemOutcome(index=0, summary=None, quarantine=None, sanitization=None)
    with pytest.raises(ValueError):
        ItemOutcome(
            index=0,
            summary="s",  # type: ignore[arg-type]
            quarantine=QuarantineEntry(0, "t", "E", "m", 1),
            sanitization=None,
        )
