"""Query limits and the governor that enforces them during evaluation.

:class:`QueryLimits` is the declarative half — a frozen value object a
caller attaches to one query (``connection.query(..., limits=...)``) or to
a whole session (``EngineConfig.with_(limits=...)``).  :class:`QueryGovernor`
is the runtime half: one per evaluation, folding the limits and an optional
:class:`~repro.resilience.cancel.CancellationToken` into a single object the
executors poll at iteration boundaries.

The split mirrors ``TelemetryConfig`` vs ``Tracer``: limits are config,
the governor is per-run state (row/round counters).  With no limits and no
token the executors hold :data:`NOOP_GOVERNOR` and pay one attribute test
per iteration — the overhead the ``resilience`` bench section gates ≤2%.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.resilience.cancel import NOOP_TOKEN, CancellationToken
from repro.resilience.errors import DeadlineExceeded, ResourceExhausted


@dataclass(frozen=True)
class QueryLimits:
    """Bounds for one query's evaluation; ``None`` means unbounded."""

    #: Wall-clock budget in seconds (mapped onto a token deadline).
    deadline_seconds: Optional[float] = None
    #: Cap on rows derived (promoted into the fixpoint) by this evaluation.
    max_rows: Optional[int] = None
    #: Cap on semi-naive rounds summed across strata (catches unbounded
    #: growth even when each round derives few rows).
    max_rounds: Optional[int] = None
    #: Cap on the estimated result payload (rows x arity x 8 bytes — the
    #: packed machine-word footprint under dictionary encoding).
    max_result_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("deadline_seconds", "max_rows", "max_rounds",
                     "max_result_bytes"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")

    @property
    def unbounded(self) -> bool:
        return (self.deadline_seconds is None and self.max_rows is None
                and self.max_rounds is None and self.max_result_bytes is None)


class QueryGovernor:
    """Per-evaluation enforcement of one :class:`QueryLimits` + token."""

    __slots__ = ("token", "limits", "deadline", "rows_derived", "rounds")

    active = True

    def __init__(self, limits: Optional[QueryLimits] = None,
                 token: Optional[CancellationToken] = None) -> None:
        self.limits = limits or QueryLimits()
        if token is None or not token.active:
            token = CancellationToken()
        # The caller's token stays authoritative for cancellation; the
        # effective deadline is the tighter of its deadline and the limit.
        self.token = token
        deadline = token.deadline
        if self.limits.deadline_seconds is not None:
            budget = time.monotonic() + self.limits.deadline_seconds
            deadline = budget if deadline is None else min(deadline, budget)
        #: Absolute monotonic deadline.
        self.deadline = deadline
        self.rows_derived = 0
        self.rounds = 0

    def check(self) -> None:
        """The cheap boundary check: cancel flag + deadline only."""
        self.token.check()
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise DeadlineExceeded("query deadline exceeded")

    def on_round(self, promoted: int = 0) -> None:
        """Account one fixpoint round; raise when a bound is crossed."""
        self.check()
        self.rounds += 1
        self.rows_derived += promoted
        limits = self.limits
        if limits.max_rounds is not None and self.rounds > limits.max_rounds:
            raise ResourceExhausted(
                f"fixpoint exceeded max_rounds={limits.max_rounds}",
                reason="max_rounds", rounds=self.rounds,
            )
        if limits.max_rows is not None and self.rows_derived > limits.max_rows:
            raise ResourceExhausted(
                f"evaluation derived more than max_rows={limits.max_rows} rows",
                reason="max_rows", rows=self.rows_derived,
            )

    def check_result_bytes(self, estimated_bytes: int) -> None:
        """Guard the result-fetch boundary against oversized payloads."""
        limit = self.limits.max_result_bytes
        if limit is not None and estimated_bytes > limit:
            raise ResourceExhausted(
                f"result of ~{estimated_bytes} bytes exceeds "
                f"max_result_bytes={limit}",
                reason="max_result_bytes", estimated_bytes=estimated_bytes,
            )


class _NoopGovernor:
    """The disabled governor: one shared instance, every check a no-op."""

    __slots__ = ()

    active = False
    deadline: Optional[float] = None
    token = NOOP_TOKEN
    rows_derived = 0
    rounds = 0

    def check(self) -> None:
        pass

    def on_round(self, promoted: int = 0) -> None:
        pass

    def check_result_bytes(self, estimated_bytes: int) -> None:
        pass


NOOP_GOVERNOR = _NoopGovernor()


def governor_of(limits: Optional[QueryLimits] = None,
                token: Optional[CancellationToken] = None):
    """A governor when anything is bounded, else the shared no-op."""
    if token is not None and token.active:
        return QueryGovernor(limits, token)
    if limits is not None and not limits.unbounded:
        return QueryGovernor(limits, token)
    return NOOP_GOVERNOR
