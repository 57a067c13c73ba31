"""Metrics: named counters, gauges and fixed-bucket histograms.

One :class:`MetricsRegistry` aggregates across every connection of a
:class:`~repro.api.database.Database`.
Instruments are keyed by ``(name, sorted label items)`` — asking for the
same name+labels twice returns the same instrument, so concurrent
connections share counters instead of shadowing each other.

The registry folds :class:`~repro.core.profile.RuntimeProfile` snapshots in
through :meth:`MetricsRegistry.absorb_profile`, so the ``explain()`` counters
and the metrics surface cannot drift: both are views of the same profile.

Exporters: :meth:`MetricsRegistry.snapshot` (stable plain dict),
:meth:`MetricsRegistry.to_prometheus` (text exposition format) and
:meth:`MetricsRegistry.to_json`.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

LabelKey = Tuple[str, Tuple[Tuple[str, Any], ...]]

#: Default latency buckets (seconds) — sub-millisecond through 30 s.
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def _label_suffix(labels: Tuple[Tuple[str, Any], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{key}={value}" for key, value in labels)
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "_lock", "_value")

    kind = "counter"

    def __init__(self, name: str, labels: Tuple[Tuple[str, Any], ...],
                 lock: threading.Lock) -> None:
        self.name = name
        self.labels = labels
        self._lock = lock
        self._value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self):
        return self._value

    def export(self) -> Any:
        return self._value


class Gauge:
    """A point-in-time value that can move either way."""

    __slots__ = ("name", "labels", "_lock", "_value")

    kind = "gauge"

    def __init__(self, name: str, labels: Tuple[Tuple[str, Any], ...],
                 lock: threading.Lock) -> None:
        self.name = name
        self.labels = labels
        self._lock = lock
        self._value = 0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self):
        return self._value

    def export(self) -> Any:
        return self._value


class Histogram:
    """Fixed-bucket histogram: cumulative counts per upper bound, sum, count."""

    __slots__ = ("name", "labels", "buckets", "_lock", "_counts", "_sum",
                 "_count")

    kind = "histogram"

    def __init__(self, name: str, labels: Tuple[Tuple[str, Any], ...],
                 lock: threading.Lock,
                 buckets: Sequence[float] = LATENCY_BUCKETS) -> None:
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(buckets))
        self._lock = lock
        self._counts = [0] * len(self.buckets)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[index] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile by linear interpolation over the buckets.

        The standard fixed-bucket estimator (what Prometheus'
        ``histogram_quantile`` computes server-side): find the bucket the
        target rank falls into and interpolate linearly between its bounds.
        Observations beyond the last bound clamp to it (the ``+Inf`` bucket
        has no width to interpolate over); an empty histogram reports 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        count = self._count
        if count == 0:
            return 0.0
        target = q * count
        if target == 0:
            return 0.0
        previous_cumulative = 0
        lower = 0.0
        for bound, cumulative in zip(self.buckets, self._counts):
            if cumulative >= target:
                in_bucket = cumulative - previous_cumulative
                if in_bucket <= 0:  # pragma: no cover - defensive
                    return bound
                fraction = (target - previous_cumulative) / in_bucket
                return lower + (bound - lower) * min(1.0, max(0.0, fraction))
            previous_cumulative = cumulative
            lower = bound
        return self.buckets[-1]

    def export(self) -> Dict[str, Any]:
        return {
            "count": self._count,
            "sum": self._sum,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": {
                repr(bound): count
                for bound, count in zip(self.buckets, self._counts)
            },
        }


class MetricsRegistry:
    """The shared instrument store behind ``Database.metrics()``.

    Thread-safe; instruments share one registry lock (updates are short
    increments, contention is negligible next to evaluation work).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[LabelKey, Any] = {}
        # Gauges derived from absorbed profiles are set, not accumulated, so
        # re-absorbing a lifetime profile stays idempotent for them.

    # -- instrument access -------------------------------------------------------

    def _get(self, cls, name: str, labels: Dict[str, Any], **kwargs):
        key: LabelKey = (name, tuple(sorted(labels.items())))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(name, key[1], self._lock, **kwargs)
                self._instruments[key] = instrument
            elif not isinstance(instrument, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {instrument.kind}"
                )
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, buckets: Optional[Sequence[float]] = None,
                  **labels: Any) -> Histogram:
        if buckets is None:
            return self._get(Histogram, name, labels)
        return self._get(Histogram, name, labels, buckets=buckets)

    # -- profile folding ---------------------------------------------------------

    def absorb_profile(self, profile) -> None:
        """Fold one :class:`RuntimeProfile`'s deltas into the registry.

        Counter-like profile fields are *added* (callers pass per-update
        profiles, or per-evaluation ones, never the same snapshot twice);
        size-like fields become gauges and are *set*.
        """
        iterations = getattr(profile, "iterations", ())
        if iterations:
            self.counter("engine_iterations_total").inc(len(iterations))
            self.counter("rows_derived_total").inc(
                sum(record.promoted for record in iterations)
            )
        reorders = getattr(profile, "reorders", ())
        if reorders:
            self.counter("reorders_total").inc(len(reorders))
            self.counter("reorders_changed_total").inc(
                sum(1 for record in reorders if record.decision.changed)
            )
        compile_events = getattr(profile, "compile_events", ())
        if compile_events:
            self.counter("compilations_total").inc(len(compile_events))
            self.counter("compile_seconds_total").inc(
                sum(event.seconds for event in compile_events)
            )
        sources = getattr(profile, "sources", None)
        if sources is not None:
            for source in ("interpreted", "compiled", "vectorized"):
                count = getattr(sources, source, 0)
                if count:
                    self.counter("subqueries_total", source=source).inc(count)
        for kind, count in getattr(profile, "block_joins", {}).items():
            if count:
                # Two of the kernel counters count rows, not batches.
                family = ("vectorized_head_rows_total"
                          if kind in ("candidates", "projected")
                          else "vectorized_batches_total")
                self.counter(family, kind=kind).inc(count)
        for relation, rows in getattr(profile, "result_sizes", {}).items():
            self.gauge("relation_rows", relation=relation).set(rows)
        symbol_stats = getattr(profile, "symbol_stats", None) or {}
        if "symbols" in symbol_stats:
            self.gauge("symbol_table_size").set(symbol_stats["symbols"])
        if "rows_encoded" in symbol_stats:
            self.gauge("symbol_rows_encoded").set(symbol_stats["rows_encoded"])
        if "rows_decoded" in symbol_stats:
            self.gauge("symbol_rows_decoded").set(symbol_stats["rows_decoded"])
        for result, count in getattr(profile, "cache_probes", {}).items():
            if count:
                self.counter("snapshot_cache_total", result=result).inc(count)

    # -- exporters ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A stable plain-dict snapshot, keys ``name`` or ``name{k=v,...}``."""
        with self._lock:
            instruments = sorted(self._instruments.items())
        return {
            name + _label_suffix(labels): instrument.export()
            for (name, labels), instrument in instruments
        }

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True, default=str)

    def rows(self) -> List[Tuple[str, str, str, float]]:
        """One ``(name, labels, kind, value)`` tuple per exported series —
        the ``sys_metrics`` system-catalog shape.

        Counters and gauges export one row each; histograms expand into
        ``histogram_count``, ``histogram_sum`` and the derived
        ``histogram_p50``/``p95``/``p99`` quantile rows.  Labels render as
        the stable ``k=v,...`` text of :meth:`snapshot` keys.
        """
        with self._lock:
            instruments = sorted(self._instruments.items())
        rows: List[Tuple[str, str, str, float]] = []
        for (name, labels), instrument in instruments:
            label_text = ",".join(f"{key}={value}" for key, value in labels)
            if isinstance(instrument, Histogram):
                rows.append((name, label_text, "histogram_count",
                             float(instrument.count)))
                rows.append((name, label_text, "histogram_sum",
                             float(instrument.sum)))
                for quantile_name, q in (("p50", 0.5), ("p95", 0.95),
                                         ("p99", 0.99)):
                    rows.append((
                        name, label_text, f"histogram_{quantile_name}",
                        float(instrument.quantile(q)),
                    ))
            else:
                rows.append((name, label_text, instrument.kind,
                             float(instrument.value)))
        return rows

    def to_prometheus(self, prefix: str = "repro_") -> str:
        """Prometheus text exposition format (one ``# TYPE`` line per family)."""
        with self._lock:
            instruments = sorted(self._instruments.items())
        lines: List[str] = []
        seen_types = set()
        for (name, labels), instrument in instruments:
            family = prefix + name
            if family not in seen_types:
                seen_types.add(family)
                lines.append(f"# TYPE {family} {instrument.kind}")
            label_text = ",".join(
                f'{key}="{value}"' for key, value in labels
            )
            if isinstance(instrument, Histogram):
                cumulative_labels = (
                    label_text + "," if label_text else ""
                )
                for bound, count in zip(instrument.buckets,
                                        instrument._counts):
                    lines.append(
                        f'{family}_bucket{{{cumulative_labels}le="{bound}"}}'
                        f" {count}"
                    )
                lines.append(
                    f'{family}_bucket{{{cumulative_labels}le="+Inf"}}'
                    f" {instrument.count}"
                )
                # Derived quantiles, summary-style: pre-interpolated here so
                # scrapes need no server-side histogram_quantile() step.
                for q_label, q in (("0.5", 0.5), ("0.95", 0.95),
                                   ("0.99", 0.99)):
                    lines.append(
                        f'{family}{{{cumulative_labels}quantile="{q_label}"}}'
                        f" {instrument.quantile(q)}"
                    )
                suffix = "{" + label_text + "}" if label_text else ""
                lines.append(f"{family}_sum{suffix} {instrument.sum}")
                lines.append(f"{family}_count{suffix} {instrument.count}")
            else:
                suffix = "{" + label_text + "}" if label_text else ""
                lines.append(f"{family}{suffix} {instrument.value}")
        return "\n".join(lines) + ("\n" if lines else "")
