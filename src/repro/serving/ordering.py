"""Order-preserving reassembly of per-item outcomes into a batch result.

Shards complete in whatever order the scheduler allows; callers of
``summarize_many`` are promised results in *input* order regardless.  This
module is that guarantee: :func:`reassemble` takes the
:class:`~repro.resilience.ItemOutcome` s of a batch in **any** order and
rebuilds the exact :class:`~repro.resilience.BatchResult` a serial run
would have produced — reassembly is the permutation inverse of whatever
completion order happened.

The index bookkeeping is checked, not assumed: a lost, duplicated, or
out-of-range index raises :class:`~repro.exceptions.ServingError`, because
silently returning a hole where an item should be is how batch servers
corrupt downstream joins.
"""

from __future__ import annotations

from typing import Iterable

from repro.exceptions import ServingError
from repro.resilience.batch import BatchResult, ItemOutcome


def reassemble(outcomes: Iterable[ItemOutcome], total: int) -> BatchResult:
    """Rebuild the input-ordered :class:`BatchResult` of *total* items.

    *outcomes* may arrive in any completion order; the result lists
    (summaries, quarantine entries, sanitization reports) come back
    exactly as a serial run would have appended them.
    """
    slots: list[ItemOutcome | None] = [None] * total
    for outcome in outcomes:
        if not 0 <= outcome.index < total:
            raise ServingError(
                f"item index {outcome.index} outside batch of {total}"
            )
        if slots[outcome.index] is not None:
            raise ServingError(f"duplicate outcome for item index {outcome.index}")
        slots[outcome.index] = outcome

    result = BatchResult()
    for index, outcome in enumerate(slots):
        if outcome is None:
            raise ServingError(f"no outcome for item index {index}")
        result.sanitization.append(outcome.sanitization)
        result.latencies.append(outcome.latency)
        if outcome.summary is not None:
            result.summaries.append(outcome.summary)
        if outcome.quarantine is not None:
            result.quarantined.append(outcome.quarantine)
    return result
