"""Hierarchical trace spans: Tracer, Span, Trace.

Design constraints (see the telemetry package docstring):

* **Monotonic clocks.**  Timestamps are ``time.perf_counter_ns()`` —
  monotonic and nanosecond-resolution.
* **Ambient current span.**  The parent of a new span defaults to the
  calling context's current span (a ``contextvars.ContextVar``), so nested
  engine calls attach to whatever root the API layer opened without any
  explicit threading of span handles through the engine.
* **Zero-overhead when disabled.**  The engine defaults to
  :data:`NOOP_TRACER`; hot paths guard with ``if tracer.enabled`` so the
  disabled cost is one attribute load and a branch — no allocation.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

_CURRENT_SPAN: ContextVar[Optional["Span"]] = ContextVar(
    "repro_current_span", default=None
)

#: Traces whose root never finishes (an exception unwound past the engine)
#: must not accumulate forever; the oldest open trace is dropped past this.
_MAX_OPEN_TRACES = 128


def current_span() -> Optional["Span"]:
    """The ambient span of the calling context (None outside any trace)."""
    return _CURRENT_SPAN.get()


class Span:
    """One timed operation inside a trace.

    Spans are context managers (``with tracer.span("stratum", index=0):``)
    and double as plain handles: ``span = tracer.span(...)`` followed by
    ``span.finish()`` records the same interval.  While open (and created
    with ``ambient=True``), the span is the context's current span, so
    spans opened underneath attach to it automatically.
    """

    __slots__ = (
        "trace_id", "span_id", "parent_id", "name", "start_ns", "end_ns",
        "attributes", "events", "status", "trace", "_tracer", "_token",
        "_ambient",
    )

    #: Real spans record; the no-op singleton overrides this with True.
    noop = False

    def __init__(
        self,
        tracer: Optional["Tracer"],
        trace_id: str,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        attributes: Dict[str, Any],
        start_ns: Optional[int] = None,
        ambient: bool = True,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_ns = time.perf_counter_ns() if start_ns is None else start_ns
        self.end_ns: Optional[int] = None
        self.attributes = attributes
        self.events: List[Tuple[str, int, Dict[str, Any]]] = []
        self.status = "ok"
        #: Set on the root span once its trace is assembled.
        self.trace: Optional["Trace"] = None
        self._tracer = tracer
        self._ambient = ambient
        self._token = _CURRENT_SPAN.set(self) if ambient else None

    # -- recording --------------------------------------------------------------

    def set(self, **attributes: Any) -> "Span":
        """Attach (or overwrite) attributes; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def event(self, name: str, **attributes: Any) -> None:
        """A point-in-time annotation inside this span's interval."""
        self.events.append((name, time.perf_counter_ns(), attributes))

    def finish(self) -> None:
        """Close the span (idempotent); roots assemble and export their trace."""
        if self.end_ns is not None:
            return
        self.end_ns = time.perf_counter_ns()
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
            self._token = None
        if self._tracer is not None:
            self._tracer._finished(self)

    # -- reading ----------------------------------------------------------------

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    @property
    def duration_seconds(self) -> float:
        return self.duration_ns / 1e9

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe record of this span (the JSON-lines sink format)."""
        record: Dict[str, Any] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "status": self.status,
            "attributes": dict(self.attributes),
        }
        if self.events:
            record["events"] = [
                {"name": name, "at_ns": at_ns, "attributes": dict(attributes)}
                for name, at_ns, attributes in self.events
            ]
        return record

    # -- context manager --------------------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.status = f"error:{exc_type.__name__}"
        self.finish()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "open" if self.end_ns is None else f"{self.duration_ns}ns"
        return f"Span({self.name!r}, id={self.span_id}, {state})"


class _NoopSpan:
    """The shared do-nothing span: every operation is a constant method call."""

    __slots__ = ()
    noop = True
    trace = None
    trace_id = ""
    span_id = 0
    parent_id = None
    name = ""
    status = "ok"
    duration_ns = 0
    duration_seconds = 0.0

    def set(self, **attributes: Any) -> "_NoopSpan":
        return self

    def event(self, name: str, **attributes: Any) -> None:
        pass

    def finish(self) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class _NoopTracer:
    """The default tracer: disabled, allocation-free, a shared singleton."""

    __slots__ = ()
    enabled = False

    def span(self, name: str, **kwargs: Any) -> _NoopSpan:
        return NOOP_SPAN

    def event(self, name: str, **attributes: Any) -> None:
        pass


NOOP_SPAN = _NoopSpan()
NOOP_TRACER = _NoopTracer()


class Tracer:
    """Produces spans and assembles finished traces for the sinks.

    Thread-safe: span bookkeeping is guarded by a lock, and parenting uses
    a ``contextvars`` ambient (so spans opened on other threads simply start
    their own traces unless given an explicit ``parent``).
    """

    enabled = True

    def __init__(self, sinks: Sequence[object] = ()) -> None:
        self._sinks: List[object] = list(sinks)
        self._lock = threading.Lock()
        self._next_span = itertools.count(1)
        self._next_trace = itertools.count(1)
        # Distinguishes traces of different tracer instances in shared sinks.
        self._seed = f"{time.time_ns() & 0xFFFFFF:06x}"
        self._open: Dict[str, List[Span]] = {}

    # -- span production --------------------------------------------------------

    def span(
        self,
        name: str,
        parent: Optional[Span] = None,
        root: bool = False,
        ambient: bool = True,
        **attributes: Any,
    ) -> Span:
        """Open a span.

        Parent resolution: an explicit ``parent`` wins; ``root=True`` forces
        a fresh trace; otherwise the ambient current span (if any) is the
        parent.  ``ambient=False`` skips installing the span as the current
        span — the cheap choice for leaf spans that never have children
        (e.g. per-operator spans in the vectorized executor's batch loop).
        """
        if parent is None and not root:
            ambient_parent = _CURRENT_SPAN.get()
            if ambient_parent is not None and not ambient_parent.noop:
                parent = ambient_parent
        if parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            trace_id = f"{self._seed}-{next(self._next_trace):06x}"
            parent_id = None
        with self._lock:
            span_id = next(self._next_span)
        return Span(
            self, trace_id, span_id, parent_id, name, attributes,
            ambient=ambient,
        )

    def event(self, name: str, **attributes: Any) -> None:
        """Attach an event to the ambient span (dropped outside any trace)."""
        span = _CURRENT_SPAN.get()
        if span is not None and not span.noop:
            span.event(name, **attributes)

    def add_sink(self, sink: object) -> None:
        self._sinks.append(sink)

    # -- trace assembly ---------------------------------------------------------

    def _finished(self, span: Span) -> None:
        trace: Optional[Trace] = None
        with self._lock:
            bucket = self._open.setdefault(span.trace_id, [])
            bucket.append(span)
            if span.parent_id is None:
                del self._open[span.trace_id]
                trace = Trace(span.trace_id, bucket)
            elif len(self._open) > _MAX_OPEN_TRACES:
                self._open.pop(next(iter(self._open)))
        if trace is not None:
            span.trace = trace
            for sink in self._sinks:
                sink.export(trace)


class Trace:
    """One finished span tree, ordered by start time."""

    __slots__ = ("trace_id", "spans", "root")

    def __init__(self, trace_id: str, spans: Sequence[Span]) -> None:
        self.trace_id = trace_id
        self.spans: Tuple[Span, ...] = tuple(
            sorted(spans, key=lambda span: (span.start_ns, span.span_id))
        )
        roots = [span for span in self.spans if span.parent_id is None]
        self.root: Optional[Span] = roots[0] if roots else None

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    @property
    def duration_seconds(self) -> float:
        return self.root.duration_seconds if self.root is not None else 0.0

    def find(self, name: str) -> List[Span]:
        """Every span named ``name``, in start order."""
        return [span for span in self.spans if span.name == name]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def depth_of(self, span: Span) -> int:
        """Root distance of ``span`` (root = 0); orphans count from their top."""
        by_id = {s.span_id: s for s in self.spans}
        depth = 0
        current = span
        while current.parent_id is not None and current.parent_id in by_id:
            current = by_id[current.parent_id]
            depth += 1
        return depth

    def render(self) -> str:
        """An indented tree: name, duration, status, attributes."""
        lines: List[str] = [f"trace {self.trace_id} ({len(self.spans)} spans)"]
        children: Dict[Optional[int], List[Span]] = {}
        by_id = {span.span_id: span for span in self.spans}
        for span in self.spans:
            parent = span.parent_id if span.parent_id in by_id else None
            children.setdefault(parent, []).append(span)

        def emit(span: Span, indent: int) -> None:
            attrs = " ".join(
                f"{key}={value}" for key, value in sorted(span.attributes.items())
            )
            status = "" if span.status == "ok" else f" [{span.status}]"
            lines.append(
                "  " * indent
                + f"{span.name} ({span.duration_ns / 1e6:.2f} ms){status}"
                + (f" {attrs}" if attrs else "")
            )
            for event_name, _at_ns, event_attrs in span.events:
                event_text = " ".join(
                    f"{key}={value}" for key, value in sorted(event_attrs.items())
                )
                lines.append(
                    "  " * (indent + 1)
                    + f"@ {event_name}" + (f" {event_text}" if event_text else "")
                )
            for child in children.get(span.span_id, []):
                emit(child, indent + 1)

        for top in children.get(None, []):
            emit(top, 1)
        return "\n".join(lines)

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [span.to_dict() for span in self.spans]

    def span_rows(self) -> List[Tuple[Any, ...]]:
        """One ``(span_id, parent_id, trace_id, name, start_ns, duration_ns)``
        tuple per span — the ``sys_spans`` system-catalog shape.  Roots get
        parent ``-1`` (span ids start at 1, so the sentinel is unambiguous
        and keeps the column integer-typed for Datalog comparisons)."""
        return [
            (
                span.span_id,
                -1 if span.parent_id is None else span.parent_id,
                span.trace_id,
                span.name,
                span.start_ns,
                span.duration_ns,
            )
            for span in self.spans
        ]

    def attr_rows(self) -> List[Tuple[Any, ...]]:
        """One ``(span_id, key, value)`` tuple per span attribute — the
        ``sys_span_attrs`` system-catalog shape.  Values are stringified so
        the column holds one comparable type."""
        rows: List[Tuple[Any, ...]] = []
        for span in self.spans:
            for key in sorted(span.attributes):
                rows.append((span.span_id, key, str(span.attributes[key])))
        return rows

    def to_json(self) -> str:
        return json.dumps(
            {"trace_id": self.trace_id, "spans": self.to_dicts()},
            sort_keys=True, default=str,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        root = self.root.name if self.root is not None else "?"
        return f"Trace({self.trace_id!r}, root={root!r}, spans={len(self.spans)})"
