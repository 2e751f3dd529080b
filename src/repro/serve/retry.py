"""Shared retry policy for the serving stack: backoff and per-request budgets.

Every layer that re-dispatches work — :class:`PipelinedSession` resubmits
after a dead connection, the gateway's shed/``draining`` shard retries and
hedged dispatch — draws from the same two primitives here:

* :func:`retry_backoff` — jittered exponential backoff.  Jitter decorrelates
  clients: under overload, synchronized retries arrive as a thundering herd
  and re-trigger the very shedding they are retrying around.
* :class:`RetryBudget` — a thread-safe cap on the *total* retries a single
  request may consume across shards, endpoints, and layers.  One budget
  object travels with the request (see ``InferenceRequest.retry_budget``)
  so a request fanned out over N shards cannot turn into an unbounded
  retry storm: every retry, wherever it happens, consumes from the same
  pool.  Exhaustion surfaces as :class:`RetryBudgetExhausted`, a structured
  error naming the attempts.

The module is stdlib-only so :mod:`repro.serve.schema` can depend on it
without import cycles.
"""

from __future__ import annotations

import random
import threading

__all__ = [
    "RETRY_BACKOFF_BASE_S",
    "RetryBudget",
    "RetryBudgetExhausted",
    "retry_backoff",
]

#: Default first-retry backoff. Doubles per attempt, +/-50% jitter.
RETRY_BACKOFF_BASE_S = 0.05


def retry_backoff(
    attempt: int,
    *,
    base_s: float = RETRY_BACKOFF_BASE_S,
    cap_s: float | None = None,
) -> float:
    """Jittered exponential backoff delay for retry number ``attempt`` (0-based).

    The uncapped delay is ``base_s * 2**attempt``; ``cap_s`` bounds it before
    jitter so the worst case stays ``1.5 * cap_s``.  Jitter multiplies by a
    uniform factor in ``[0.5, 1.5)`` to decorrelate concurrent retriers.
    """
    delay = base_s * (2.0 ** max(0, int(attempt)))
    if cap_s is not None:
        delay = min(delay, cap_s)
    return delay * (0.5 + random.random())


class RetryBudgetExhausted(RuntimeError):
    """A request ran out of retries. Carries the accounting that proves it."""

    def __init__(self, message: str, *, attempts: int, retries: int) -> None:
        super().__init__(message)
        #: Total tries this budget allowed (initial dispatch + retries).
        self.attempts = attempts
        #: Retries actually consumed before exhaustion.
        self.retries = retries


class RetryBudget:
    """Thread-safe retry allowance shared by every shard of one request.

    ``max_attempts`` counts total tries for any single unit of work: the
    first dispatch is free, and up to ``max_attempts - 1`` retries may be
    consumed *in total across the whole request* — a deliberate pooling, so
    wide fan-outs don't multiply retry pressure on an overloaded fleet.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        *,
        backoff_base_s: float = RETRY_BACKOFF_BASE_S,
        backoff_cap_s: float | None = 2.0,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if backoff_base_s < 0:
            raise ValueError(f"backoff_base_s must be >= 0, got {backoff_base_s}")
        self.max_attempts = int(max_attempts)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = None if backoff_cap_s is None else float(backoff_cap_s)
        self._lock = threading.Lock()
        self._retries_used = 0

    @property
    def retries_used(self) -> int:
        with self._lock:
            return self._retries_used

    @property
    def remaining(self) -> int:
        with self._lock:
            return max(0, self.max_attempts - 1 - self._retries_used)

    def try_consume(self) -> int | None:
        """Consume one retry; returns its 0-based ordinal, or None if exhausted."""
        with self._lock:
            if self._retries_used >= self.max_attempts - 1:
                return None
            ordinal = self._retries_used
            self._retries_used += 1
            return ordinal

    def backoff_s(self, attempt: int) -> float:
        """Backoff delay for retry ordinal ``attempt`` under this budget's policy."""
        return retry_backoff(
            attempt, base_s=self.backoff_base_s, cap_s=self.backoff_cap_s
        )

    def exhausted(self, last_error: BaseException | None = None) -> RetryBudgetExhausted:
        """Build the structured exhaustion error, chaining ``last_error`` if given."""
        retries = self.retries_used
        detail = (
            f": last error {type(last_error).__name__}: {last_error}"
            if last_error is not None
            else ""
        )
        error = RetryBudgetExhausted(
            f"retry budget exhausted after {self.max_attempts} attempt(s) "
            f"({retries} retr{'y' if retries == 1 else 'ies'} consumed){detail}",
            attempts=self.max_attempts,
            retries=retries,
        )
        error.__cause__ = last_error
        return error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RetryBudget(max_attempts={self.max_attempts}, "
            f"retries_used={self.retries_used})"
        )
