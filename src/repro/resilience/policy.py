"""Retry and deadline policies for batch summarization.

Both are deliberately deterministic: the backoff schedule is a plain
geometric progression with no jitter, so a failing batch replays exactly
the same way twice — essential for the fault-injection tests and for
debugging production incidents from logs alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

from repro.exceptions import ConfigError, DeadlineExceeded


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded retry with deterministic geometric backoff.

    ``max_retries`` is the number of *re*-tries: an item is attempted at
    most ``max_retries + 1`` times.  The delay before retry ``n`` (1-based)
    is ``backoff_base_s * backoff_factor ** (n - 1)``.
    """

    max_retries: int = 1
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        # Written so that NaN fails too: every comparison with NaN is false.
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if not self.backoff_base_s >= 0.0:
            raise ConfigError(f"backoff_base_s must be >= 0, got {self.backoff_base_s}")
        if not self.backoff_factor >= 1.0:
            raise ConfigError(f"backoff_factor must be >= 1, got {self.backoff_factor}")

    def delay_s(self, retry_number: int) -> float:
        """Backoff before the *retry_number*-th retry (1-based)."""
        if retry_number < 1:
            raise ConfigError(f"retry numbers are 1-based, got {retry_number}")
        return self.backoff_base_s * self.backoff_factor ** (retry_number - 1)


class Deadline:
    """A wall-clock budget: ``Deadline(2.0)`` expires two seconds from now.

    A ``budget_s`` of ``None`` never expires.  The clock is injectable for
    tests (any zero-argument callable returning seconds).
    """

    __slots__ = ("budget_s", "_clock", "_t0")

    def __init__(
        self, budget_s: float | None, clock: Callable[[], float] = time.monotonic
    ) -> None:
        if budget_s is not None and not budget_s >= 0.0:
            raise ConfigError(f"deadline budget must be >= 0, got {budget_s}")
        self.budget_s = budget_s
        self._clock = clock
        self._t0 = clock()

    def remaining_s(self) -> float:
        """Seconds left in the budget, clamped at 0.0 (``inf`` when unbounded).

        The clamp matters in long retry loops: raw ``budget - elapsed``
        arithmetic goes negative once the budget is spent (and can even
        go negative on a *fresh* deadline when the clock churns
        backwards, e.g. a test clock or a suspended VM), and a negative
        "remaining" poisons any downstream arithmetic that scales work
        by the time left.  Spent is spent: the floor is 0.0.
        """
        if self.budget_s is None:
            return math.inf
        return max(0.0, self.budget_s - (self._clock() - self._t0))

    @property
    def expired(self) -> bool:
        """True once no budget remains (consistent with the 0.0 clamp)."""
        if self.budget_s is None:
            return False
        return self.remaining_s() <= 0.0

    def check(self, label: str = "operation") -> None:
        """Raise :class:`DeadlineExceeded` when the budget is spent."""
        if self.expired:
            raise DeadlineExceeded(
                f"{label} exceeded the {self.budget_s:g}s deadline budget"
            )

    def __repr__(self) -> str:
        if self.budget_s is None:
            return "Deadline(unbounded)"
        return f"Deadline(budget={self.budget_s:g}s, remaining={self.remaining_s():.3f}s)"
