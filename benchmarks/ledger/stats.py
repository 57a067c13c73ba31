"""Sample statistics: medians, the tail percentile a sample can support."""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.
_TAILS = ((0.999, "p99.9"), (0.99, "p99"), (0.95, "p95"), (0.90, "p90"),
          (0.75, "p75"))


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank quantile (``samples`` need not be sorted)."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def supported_tail(samples: Sequence[float]) -> Optional[Tuple[str, float]]:
    """The highest percentile with at least ten samples beyond it, as
    (label, value); None when the sample supports no tail at all."""
    count = len(samples)
    for fraction, label in _TAILS:
        if count * (1.0 - fraction) >= 10.0:
            return label, percentile(samples, fraction)
    return None
