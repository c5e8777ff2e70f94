"""Cooperative deadline budgets.

A :class:`Deadline` is an absolute point on the monotonic clock that
long-running stages poll at natural checkpoints (crash-point boundaries,
image classification, checker phases). Cooperative cancellation keeps two
properties a hard kill cannot give:

* **partial results stay well-formed** — a stage that notices expiry
  finishes the item it is on and returns everything enumerated so far,
  explicitly marked truncated, instead of tearing down mid-mutation;
* **no orphaned work** — the budget travels *into* the stage as a plain
  value, so a worker process honours the same deadline its request
  carried, with no cross-process signalling.

``Deadline.never()`` is the no-op budget: ``expired()`` is always False
and ``remaining()`` is ``inf``, so call sites need no None-checks on hot
paths. Budgets are relative seconds at construction; the absolute
monotonic deadline is computed once, so repeated polling is one clock
read and one comparison.
"""

from __future__ import annotations

import math
from time import monotonic
from typing import Optional


class Deadline:
    """An absolute monotonic-clock budget that stages poll cooperatively."""

    __slots__ = ("_at",)

    def __init__(self, seconds: Optional[float] = None):
        """A deadline ``seconds`` from now; ``None`` never expires."""
        if seconds is None:
            self._at: Optional[float] = None
        else:
            self._at = monotonic() + max(float(seconds), 0.0)

    @classmethod
    def never(cls) -> "Deadline":
        return cls(None)

    @classmethod
    def at(cls, monotonic_deadline: Optional[float]) -> "Deadline":
        """Wrap an absolute ``time.monotonic()`` value (or None)."""
        dl = cls(None)
        dl._at = monotonic_deadline
        return dl

    def remaining(self) -> float:
        """Seconds left (may be negative once expired); ``inf`` when
        unbounded."""
        if self._at is None:
            return math.inf
        return self._at - monotonic()

    def expired(self) -> bool:
        return self._at is not None and monotonic() >= self._at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._at is None:
            return "Deadline(never)"
        return f"Deadline(remaining={self.remaining():.3f}s)"
