"""Resilience: fault injection, query governance, typed failure taxonomy.

Three small modules wired through every layer of the engine:

- :mod:`repro.resilience.errors` — the stable error taxonomy
  (``DeadlineExceeded`` / ``ResourceExhausted`` / ``Cancelled`` /
  ``DurabilityError``) with wire-stable codes.
- :mod:`repro.resilience.faults` — named fault points at the real failure
  sites with deterministic seeded schedules; zero-overhead when disabled.
- :mod:`repro.resilience.limits` / :mod:`repro.resilience.cancel` — per
  query ``QueryLimits`` + cooperative ``CancellationToken``, enforced by a
  ``QueryGovernor`` the executors poll at iteration boundaries.

This package sits below the engine layers (it imports nothing from them),
so storage, durability and server code can all use it freely.
"""

from repro.resilience.cancel import NOOP_TOKEN, CancellationToken
from repro.resilience.errors import (
    Cancelled,
    DeadlineExceeded,
    DurabilityError,
    ResilienceError,
    ResourceExhausted,
    TAXONOMY,
    error_from_code,
)
from repro.resilience.faults import (
    ENV_VAR,
    FAULT_POINTS,
    FaultRegistry,
    FaultSpec,
    NOOP_FAULTS,
    fault_scope,
    install_from_env,
)
from repro.resilience.limits import (
    NOOP_GOVERNOR,
    QueryGovernor,
    QueryLimits,
    governor_of,
)

__all__ = [
    "CancellationToken",
    "Cancelled",
    "DeadlineExceeded",
    "DurabilityError",
    "ENV_VAR",
    "FAULT_POINTS",
    "FaultRegistry",
    "FaultSpec",
    "NOOP_FAULTS",
    "NOOP_GOVERNOR",
    "NOOP_TOKEN",
    "QueryGovernor",
    "QueryLimits",
    "ResilienceError",
    "ResourceExhausted",
    "TAXONOMY",
    "error_from_code",
    "fault_scope",
    "governor_of",
    "install_from_env",
]
