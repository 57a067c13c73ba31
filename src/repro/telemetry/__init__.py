"""Telemetry: hierarchical trace spans, metrics, and pluggable sinks.

The observability layer under the future query server.  Three pieces:

* :mod:`repro.telemetry.spans` — a :class:`Tracer` producing hierarchical
  :class:`Span` trees (monotonic ``perf_counter_ns`` timestamps, attributes,
  status, ambient current-span via ``contextvars``), and the zero-overhead
  :data:`NOOP_TRACER` the engine defaults to.
* :mod:`repro.telemetry.metrics` — a :class:`MetricsRegistry` of named
  counters, gauges and fixed-bucket histograms, aggregating across
  connections, with stable-snapshot, Prometheus-text and JSON
  exporters.
* :mod:`repro.telemetry.sinks` — pluggable :class:`SpanSink`\\ s (in-memory
  ring buffer, JSON-lines file, stderr slow-query log).

Layering rule: engine-core modules (``core``, ``engine``, ``incremental``,
``relational``) may import ``spans``/``metrics``/``config``
but never ``sinks`` — sinks are user-facing policy, wired in through
``EngineConfig.with_(telemetry=...)``.  CI greps for violations.

Quickstart::

    from repro import Database, EngineConfig
    from repro.telemetry import tracing

    telemetry = tracing(slow_query_seconds=0.5)
    db = Database(program, EngineConfig().with_(telemetry=telemetry))
    with db.connect() as conn:
        result = conn.query("path")
        print(result.trace().render())      # the span tree of this query
    print(db.metrics()["queries_total"])    # aggregated across connections
    print(db.metrics_prometheus())          # Prometheus text exposition
"""

from __future__ import annotations

from typing import Optional

from repro.telemetry.config import TelemetryConfig
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.sinks import (
    JsonLinesSink,
    RingBufferSink,
    SlowQueryLog,
    SpanSink,
    format_slow_query,
    query_summary_rows,
)
from repro.telemetry.spans import (
    NOOP_TRACER,
    Span,
    Trace,
    Tracer,
    current_span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonLinesSink",
    "MetricsRegistry",
    "NOOP_TRACER",
    "RingBufferSink",
    "SlowQueryLog",
    "Span",
    "SpanSink",
    "TelemetryConfig",
    "Trace",
    "Tracer",
    "current_span",
    "format_slow_query",
    "query_summary_rows",
    "tracing",
]


def tracing(
    ring: int = 256,
    jsonl_path: Optional[str] = None,
    slow_query_seconds: Optional[float] = None,
    stream=None,
) -> TelemetryConfig:
    """A ready-to-use :class:`TelemetryConfig` with the common sinks.

    Always includes a :class:`RingBufferSink` of ``ring`` traces (reachable
    as ``config.ring`` for post-hoc inspection); ``jsonl_path`` adds a
    JSON-lines file sink, ``slow_query_seconds`` a slow-query log writing a
    single structured line per over-threshold query to ``stream`` (stderr
    by default).
    """
    sinks: list = [RingBufferSink(capacity=ring)]
    if jsonl_path is not None:
        sinks.append(JsonLinesSink(jsonl_path))
    if slow_query_seconds is not None:
        sinks.append(SlowQueryLog(slow_query_seconds, stream=stream))
    return TelemetryConfig(sinks=tuple(sinks))
