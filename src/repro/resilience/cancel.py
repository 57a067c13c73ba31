"""Cooperative cancellation: one token per query, checked at loop boundaries.

A :class:`CancellationToken` is the cheap half of query governance: it holds
an optional absolute deadline (``time.monotonic`` domain) and a cancel flag
any thread may set.  The engine checks
it cooperatively: per fixpoint iteration in :class:`~repro.core.executor.
IRExecutor` and per sub-query batch in the vectorized operators.
Unbounded-growth programs therefore abort within one
iteration of the deadline instead of spinning to ``max_iterations``.

:data:`NOOP_TOKEN` is the disabled singleton — ``active`` is False, every
method is a no-op — so un-governed queries pay a single attribute test, the
same zero-overhead discipline as ``NOOP_TRACER``.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.resilience.errors import Cancelled, DeadlineExceeded


class CancellationToken:
    """One query's cancel flag + optional absolute monotonic deadline."""

    __slots__ = ("deadline", "_cancelled", "_reason")

    #: Guard for hot paths: live tokens always check, the no-op never does.
    active = True

    def __init__(self, deadline: Optional[float] = None) -> None:
        self.deadline = deadline
        self._cancelled = False
        self._reason: Optional[str] = None

    @classmethod
    def with_timeout(cls, seconds: float) -> "CancellationToken":
        """A token whose deadline is ``seconds`` from now."""
        return cls(deadline=time.monotonic() + seconds)

    # -- state ------------------------------------------------------------------

    def cancel(self, reason: str = "cancelled") -> None:
        """Flag the token; safe from any thread (plain attribute store)."""
        self._reason = reason
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (may be negative); None when unbounded."""
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline

    # -- the cooperative check --------------------------------------------------

    def check(self) -> None:
        """Raise :class:`Cancelled` / :class:`DeadlineExceeded` when due."""
        if self._cancelled:
            raise Cancelled(
                f"query cancelled: {self._reason}", reason=self._reason
            )
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise DeadlineExceeded("query deadline exceeded")


class _NoopToken:
    """The shared disabled token: never cancels, never expires."""

    __slots__ = ()

    active = False
    cancelled = False
    deadline: Optional[float] = None

    def cancel(self, reason: str = "cancelled") -> None:  # pragma: no cover
        pass

    def remaining(self) -> Optional[float]:
        return None

    def expired(self) -> bool:
        return False

    def check(self) -> None:
        pass


NOOP_TOKEN = _NoopToken()
