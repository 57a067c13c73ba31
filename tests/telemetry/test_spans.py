"""Unit tests for the tracing core: Tracer, Span, Trace."""

import json

import pytest

from repro.telemetry import NOOP_TRACER, Tracer, current_span
from repro.telemetry.sinks import RingBufferSink


def make_traced():
    ring = RingBufferSink(capacity=8)
    return Tracer(sinks=[ring]), ring


class TestSpanLifecycle:
    def test_root_span_assembles_a_trace_on_finish(self):
        tracer, ring = make_traced()
        span = tracer.span("query", root=True, relation="path")
        assert span.trace is None
        span.finish()
        assert span.trace is not None
        assert span.trace.root is span
        assert ring.latest() is span.trace

    def test_finish_is_idempotent(self):
        tracer, ring = make_traced()
        span = tracer.span("query", root=True)
        span.finish()
        end = span.end_ns
        span.finish()
        assert span.end_ns == end
        assert len(ring) == 1

    def test_ambient_parenting_nests_without_explicit_handles(self):
        tracer, ring = make_traced()
        with tracer.span("query", root=True) as root:
            assert current_span() is root
            with tracer.span("stratum", index=0) as stratum:
                child = tracer.span("iteration")
                child.finish()
            assert child.parent_id == stratum.span_id
            assert stratum.parent_id == root.span_id
        assert current_span() is None
        trace = ring.latest()
        assert [s.name for s in trace] == ["query", "stratum", "iteration"]
        assert len({s.trace_id for s in trace}) == 1

    def test_non_ambient_span_does_not_become_current(self):
        tracer, _ = make_traced()
        with tracer.span("query", root=True) as root:
            leaf = tracer.span("op:join", ambient=False)
            assert current_span() is root
            leaf.finish()
            assert leaf.parent_id == root.span_id
            root.finish()

    def test_root_true_starts_a_fresh_trace_under_an_open_span(self):
        tracer, _ = make_traced()
        with tracer.span("query", root=True) as outer:
            inner = tracer.span("mutation", root=True)
            assert inner.trace_id != outer.trace_id
            assert inner.parent_id is None
            inner.finish()

    def test_exception_marks_error_status(self):
        tracer, ring = make_traced()
        with pytest.raises(ValueError):
            with tracer.span("query", root=True):
                raise ValueError("boom")
        trace = ring.latest()
        assert trace.root.status == "error:ValueError"

    def test_set_returns_self_and_events_record(self):
        tracer, ring = make_traced()
        span = tracer.span("query", root=True)
        assert span.set(rows=7) is span
        span.event("result-cache", result="hit")
        tracer.event("ambient-event", note=1)  # attaches to current span
        span.finish()
        assert span.attributes["rows"] == 7
        names = [name for name, _, _ in span.events]
        assert names == ["result-cache", "ambient-event"]

    def test_to_json_round_trips(self):
        tracer, ring = make_traced()
        with tracer.span("query", root=True, relation="path"):
            pass
        payload = json.loads(ring.latest().to_json())
        assert payload["spans"][0]["name"] == "query"
        assert payload["spans"][0]["attributes"] == {"relation": "path"}


class TestTraceReading:
    def test_render_indents_by_depth(self):
        tracer, ring = make_traced()
        with tracer.span("query", root=True):
            with tracer.span("stratum", index=0):
                tracer.span("iteration", ambient=False).finish()
        lines = ring.latest().render().splitlines()
        assert lines[1].startswith("  query")
        assert lines[2].startswith("    stratum")
        assert "index=0" in lines[2]
        assert lines[3].startswith("      iteration")

    def test_find_children_depth(self):
        tracer, ring = make_traced()
        with tracer.span("query", root=True):
            with tracer.span("stratum"):
                tracer.span("iteration", ambient=False).finish()
                tracer.span("iteration", ambient=False).finish()
        trace = ring.latest()
        (stratum,) = trace.find("stratum")
        iterations = trace.find("iteration")
        assert trace.children_of(stratum) == iterations
        assert trace.depth_of(trace.root) == 0
        assert {trace.depth_of(s) for s in iterations} == {2}


class TestNoopTracer:
    def test_disabled_and_allocation_free(self):
        assert NOOP_TRACER.enabled is False
        span = NOOP_TRACER.span("query", root=True, rows=1)
        assert span is NOOP_TRACER.span("other")
        assert span.noop and span.trace is None
        # The full recording surface is inert.
        with span as s:
            assert s.set(x=1) is s
            s.event("nope")
            s.finish()

    def test_noop_span_never_becomes_ambient_parent(self):
        tracer, ring = make_traced()
        with NOOP_TRACER.span("outer"):
            span = tracer.span("query")  # must start its own trace
            assert span.parent_id is None
            span.finish()
        assert ring.latest().root is span


class TestTabularViews:
    def build_trace(self):
        ring = RingBufferSink(capacity=2)
        tracer = Tracer(sinks=(ring,))
        with tracer.span("query", root=True, relation="path") as root:
            with tracer.span("stratum", index=0):
                pass
        return ring.latest()

    def test_span_rows_one_per_span_with_minus_one_root_parent(self):
        trace = self.build_trace()
        rows = trace.span_rows()
        assert len(rows) == len(trace.spans)
        by_id = {row[0]: row for row in rows}
        root = trace.root
        assert by_id[root.span_id][1] == -1
        child = next(s for s in trace.spans if s.parent_id is not None)
        assert by_id[child.span_id][1] == root.span_id
        for span in trace.spans:
            row = by_id[span.span_id]
            assert row[2:] == (
                trace.trace_id, span.name, span.start_ns, span.duration_ns,
            )

    def test_attr_rows_stringify_values_and_sort_keys(self):
        trace = self.build_trace()
        rows = trace.attr_rows()
        assert (trace.root.span_id, "relation", "path") in rows
        child = next(s for s in trace.spans if s.parent_id is not None)
        assert (child.span_id, "index", "0") in rows
        per_span = {}
        for span_id, key, value in rows:
            per_span.setdefault(span_id, []).append(key)
            assert isinstance(value, str)
        for keys in per_span.values():
            assert keys == sorted(keys)
