"""Property tests: trace structure invariants over randomized programs.

Two invariants, each over random edge sets:

* **Interval nesting** — every child span's ``[start_ns, end_ns]`` lies
  within its parent's interval (timestamps are ``perf_counter_ns``).
* **Cross-executor shape** — the pushdown and vectorized executors emit
  identically shaped traces at the ``query``/``stratum``/``iteration``
  levels: semi-naive runs the same rounds whatever evaluates the bodies.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyses.micro import build_transitive_closure_program
from repro.api.database import Database
from repro.core.config import EngineConfig
from repro.telemetry import tracing

edges_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=16,
)


def traced_query(edges, config_builder):
    """Evaluate the TC program over ``edges`` traced; returns the trace."""
    telemetry = tracing(ring=4)
    config = config_builder(telemetry)
    program = build_transitive_closure_program(sorted(set(edges)))
    with Database(program, config) as db, db.connect() as conn:
        trace = conn.query("path").trace()
    assert trace is not None
    return trace


def vectorized(telemetry):
    return EngineConfig.interpreted().with_(telemetry=telemetry)


@settings(max_examples=15, deadline=None)
@given(edges=edges_strategy)
def test_child_intervals_nest_inside_their_parents(edges):
    trace = traced_query(edges, vectorized)
    by_id = {span.span_id: span for span in trace}
    for span in trace:
        if span.parent_id is None:
            continue
        parent = by_id[span.parent_id]
        assert parent.start_ns <= span.start_ns, (
            f"{span.name} starts before its parent {parent.name}"
        )
        assert span.end_ns <= parent.end_ns, (
            f"{span.name} ends after its parent {parent.name}"
        )


@settings(max_examples=10, deadline=None)
@given(edges=edges_strategy)
def test_executors_emit_identically_shaped_traces(edges):
    def pushdown(telemetry):
        return EngineConfig.interpreted().with_(telemetry=telemetry)

    def shape(trace):
        skeleton = []
        for span in trace:
            if span.name == "query":
                skeleton.append(("query", span.attributes["relation"]))
            elif span.name == "stratum":
                skeleton.append(("stratum", span.attributes["index"]))
            elif span.name == "iteration":
                skeleton.append(("iteration", span.attributes.get("stratum")))
        return sorted(skeleton)

    assert shape(traced_query(edges, pushdown)) == shape(
        traced_query(edges, vectorized)
    )
