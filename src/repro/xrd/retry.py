"""Retry and deadline policy for the dispatch fabric.

The paper's fault-tolerance story (section 5.6) is "the czar
re-dispatches a chunk through a surviving Xrootd replica".  A bare
re-attempt is not enough for continuous operation under partial
failure: a hung worker must surface as a timeout instead of a deadlock,
and a flapping replica must not be hammered in a tight loop.  This
module provides the two small primitives every layer shares:

- :class:`RetryPolicy` -- bounded attempts with exponential backoff and
  *deterministic* jitter (keyed on the operation, so a test run is
  reproducible byte for byte while concurrent chunks still de-correlate);
- :class:`Deadline` -- an absolute monotonic-clock budget threaded from
  ``Czar.submit(sql, deadline=...)`` down to the worker's result-ready
  wait;
- :class:`CancelToken` -- a cooperative cancellation flag threaded from
  the frontend's job/kill surface through ``Czar.submit`` into the
  dispatch loops, so an abandoned query stops consuming attempts and
  worker slots instead of running to completion unobserved.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass
from typing import Optional

__all__ = ["RetryPolicy", "Deadline", "CancelToken"]


class Deadline:
    """An absolute point on the monotonic clock; ``None`` means forever.

    Use :meth:`after` to start a budget, :meth:`remaining` to bound a
    wait, and :attr:`expired` to decide whether another attempt is
    still worth making.
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float):
        self.expires_at = float(expires_at)

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now."""
        return cls(time.monotonic() + float(seconds))

    def remaining(self) -> float:
        """Seconds left; never negative."""
        return max(self.expires_at - time.monotonic(), 0.0)

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def __repr__(self):
        return f"Deadline(remaining={self.remaining():.3f}s)"


class CancelToken:
    """A one-way cooperative cancellation flag.

    ``cancel()`` is idempotent and thread-safe; holders poll
    :attr:`cancelled` at loop boundaries (the dispatch retry loop, the
    attempt-wait loop, the worker's dequeue) and unwind with a typed
    error.  ``reason`` records who pulled the trigger, for events.
    """

    __slots__ = ("_event", "reason")

    def __init__(self):
        self._event = threading.Event()
        self.reason: str = ""

    def cancel(self, reason: str = "cancelled") -> None:
        self.reason = self.reason or reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def __repr__(self):
        return f"CancelToken(cancelled={self.cancelled})"


def _jitter_fraction(key: str, attempt: int) -> float:
    """A deterministic pseudo-random fraction in [0, 1).

    CRC32 of ``key:attempt`` -- stable across runs and processes (no
    ``PYTHONHASHSEED`` dependence), distinct across chunks and attempts
    so concurrent retries do not thunder in lockstep.
    """
    return (zlib.crc32(f"{key}:{attempt}".encode()) & 0xFFFFFFFF) / 2**32


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    Parameters
    ----------
    max_attempts:
        Total tries for one operation (1 = the old one-shot behavior).
    base_backoff:
        Sleep before the second attempt, in seconds; grows by
        ``backoff_multiplier`` per further attempt, capped at
        ``max_backoff``.
    jitter:
        Fraction of the computed backoff added deterministically from
        the operation key (0 disables; 0.5 means up to +50%).
    """

    max_attempts: int = 3
    base_backoff: float = 0.01
    backoff_multiplier: float = 2.0
    max_backoff: float = 0.5
    jitter: float = 0.5

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff < 0 or self.max_backoff < 0:
            raise ValueError("backoff must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")

    def backoff(self, attempt: int, key: str = "") -> float:
        """Sleep before attempt ``attempt`` (attempt 0 never sleeps)."""
        if attempt <= 0 or self.base_backoff == 0:
            return 0.0
        delay = min(
            self.base_backoff * self.backoff_multiplier ** (attempt - 1),
            self.max_backoff,
        )
        return delay * (1.0 + self.jitter * _jitter_fraction(key, attempt))

    def sleep_before(
        self, attempt: int, key: str = "", deadline: Optional[Deadline] = None
    ) -> bool:
        """Sleep the backoff for ``attempt``; False if the deadline forbids it."""
        delay = self.backoff(attempt, key)
        if deadline is not None:
            left = deadline.remaining()
            if left <= 0:
                return False
            delay = min(delay, left)
        if delay > 0:
            time.sleep(delay)
        return True
