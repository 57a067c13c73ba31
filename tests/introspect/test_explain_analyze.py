"""EXPLAIN ANALYZE: operator actuals merged with join-order predictions."""

from repro import Database, EngineConfig
from repro.core.join_order import OrderingDecision
from repro.core.profile import ReorderRecord, RuntimeProfile
from repro.introspect import (
    DEFAULT_MISESTIMATE_RATIO,
    collect_operator_actuals,
    render_analyze,
)
from repro.introspect.analyze import analyze_trace
from repro.telemetry import RingBufferSink, Tracer, tracing

TC_SOURCE = """
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
"""


def tc_program(n=16):
    return TC_SOURCE + "\n".join(f"edge({i}, {i + 1})." for i in range(n))


def operator_trace(observations):
    """A real trace with one op:* span per (name, rule, rows_in, rows_out)."""
    ring = RingBufferSink(capacity=4)
    tracer = Tracer(sinks=(ring,))
    with tracer.span("query", root=True, relation="path"):
        for name, rule, rows_in, rows_out in observations:
            with tracer.span(
                name, rule=rule, relation="edge",
                rows_in=rows_in, rows_out=rows_out,
            ):
                pass
    return ring.latest()


def profile_with_prediction(rule, estimated_rows, stage="aot"):
    profile = RuntimeProfile()
    profile.reorders.append(ReorderRecord(
        node_id=1,
        rule_name=rule,
        stage=stage,
        decision=OrderingDecision(
            original_order=("edge", "path"),
            chosen_order=("path", "edge"),
            estimated_cost=10.0,
            changed=True,
            estimated_rows=tuple(estimated_rows),
        ),
    ))
    return profile


class TestCollectOperatorActuals:
    def test_positions_merge_across_iterations(self):
        trace = operator_trace([
            ("op:join", "r1", 10, 5),
            ("op:join", "r1", 5, 2),
            ("op:join", "r1", 20, 8),   # same parent: positions 0,1,2
        ])
        (operators,) = collect_operator_actuals(trace).values()
        assert [op.position for op in operators] == [0, 1, 2]
        assert [op.join_position for op in operators] == [0, 1, 2]
        assert operators[0].rows_out == 5 and operators[0].max_rows_out == 5

    def test_non_join_operators_get_no_join_position(self):
        trace = operator_trace([
            ("op:join", "r1", 10, 5),
            ("op:negation", "r1", 5, 3),
            ("op:join", "r1", 3, 1),
        ])
        (operators,) = collect_operator_actuals(trace).values()
        assert [op.name for op in operators] == [
            "op:join", "op:negation", "op:join",
        ]
        assert [op.join_position for op in operators] == [0, None, 1]


class TestMisestimateFlagging:
    def test_actual_far_over_prediction_is_flagged(self):
        trace = operator_trace([("op:join", "r1", 10, 500)])
        profile = profile_with_prediction("r1", [5.0])
        (entry,) = analyze_trace(profile, trace)
        (item,) = entry.operators
        assert item.predicted_rows == 5.0
        assert item.ratio == 100.0
        assert item.misestimate
        text = render_analyze(profile, trace)
        assert "** misestimate **" in text
        assert "predicted~5 rows" in text

    def test_accurate_prediction_is_not_flagged(self):
        trace = operator_trace([("op:join", "r1", 10, 5)])
        profile = profile_with_prediction("r1", [5.0])
        (entry,) = analyze_trace(profile, trace)
        assert not entry.operators[0].misestimate
        assert "** misestimate **" not in render_analyze(profile, trace)

    def test_threshold_is_configurable(self):
        trace = operator_trace([("op:join", "r1", 10, 20)])
        profile = profile_with_prediction("r1", [10.0])
        (entry,) = analyze_trace(profile, trace, threshold=2.0)
        assert entry.operators[0].misestimate          # ratio 2.0 >= 2.0
        (entry,) = analyze_trace(profile, trace, threshold=2.1)
        assert not entry.operators[0].misestimate
        assert DEFAULT_MISESTIMATE_RATIO == 8.0

    def test_rule_without_prediction_renders_actuals_only(self):
        trace = operator_trace([("op:join", "r1", 10, 5)])
        text = render_analyze(RuntimeProfile(), trace)
        assert "op:join" in text
        assert "predicted~" not in text


class TestRenderFallbacks:
    def test_no_trace_explains_how_to_get_one(self):
        text = render_analyze(RuntimeProfile(), None)
        assert "no trace captured" in text

    def test_trace_without_op_spans_points_at_block_kernels(self):
        ring = RingBufferSink(capacity=2)
        tracer = Tracer(sinks=(ring,))
        with tracer.span("query", root=True):
            pass
        text = render_analyze(RuntimeProfile(), ring.latest())
        assert "executor='vectorized'" in text and "jit('lambda')" in text


class TestConnectionExplainAnalyze:
    def test_analyze_section_shows_actuals_with_predictions(self):
        config = EngineConfig.aot().with_(
            executor="vectorized", telemetry=tracing()
        )
        with Database(tc_program(), config) as db, db.connect() as conn:
            conn.query("path")
            text = conn.explain(analyze=True)
        assert "explain analyze" in text
        assert "op:join" in text
        assert "predicted~" in text
        assert "rows_out=" in text

    def test_analyze_works_for_lambda_jit_artifacts(self):
        """Lambda artifacts are block kernels: same op:* spans as the
        vectorized interpreter emits, under a pushdown interpreter."""
        config = EngineConfig.jit("lambda").with_(telemetry=tracing())
        with Database(tc_program(), config) as db, db.connect() as conn:
            conn.query("path")
            text = conn.explain(analyze=True)
            trace = conn.session.last_trace
        assert "op:join" in text
        assert "predicted~" in text and "rows_out=" in text
        joins = [s for s in trace.spans if s.name == "op:join"]
        assert joins
        assert all(
            {"rule", "relation", "rows_in", "rows_out"} <= set(s.attributes)
            for s in joins
        )

    def test_misestimates_are_flagged_under_lambda_jit(self):
        # 40 starts funnel through one hub with 40 exits: the first compiled
        # iteration derives 1600 rows where the selectivity model, asked
        # again for the last (40-row) delta, predicts 164.
        facts = (
            [f"start({i}, 0)." for i in range(1, 41)]
            + [f"hop(0, {100 + j})." for j in range(1, 41)]
            + ["hop(101, 300)."]
        )
        source = (
            "reach(X, Y) :- start(X, Y).\n"
            "reach(X, Z) :- reach(X, Y), hop(Y, Z).\n" + "\n".join(facts)
        )
        config = EngineConfig.jit("lambda").with_(telemetry=tracing())
        with Database(source, config) as db, db.connect() as conn:
            assert conn.query("reach").count() == 40 + 1600 + 40
            text = conn.explain(analyze=True)
        (flagged,) = [line for line in text.splitlines() if "** misestimate **" in line]
        assert "op:join hop" in flagged and "(max 1600)" in flagged

    def test_analyze_without_telemetry_says_so(self):
        with Database(tc_program()) as db, db.connect() as conn:
            conn.query("path")
            text = conn.explain(analyze=True)
        assert "no trace captured" in text

    def test_analyze_under_pushdown_points_at_vectorized(self):
        config = EngineConfig().with_(executor="pushdown", telemetry=tracing())
        with Database(tc_program(), config) as db, db.connect() as conn:
            conn.query("path")
            text = conn.explain(analyze=True)
        assert "executor='vectorized'" in text

    def test_plain_explain_has_no_analyze_section(self):
        config = EngineConfig().with_(telemetry=tracing())
        with Database(tc_program(), config) as db, db.connect() as conn:
            conn.query("path")
            assert "explain analyze" not in conn.explain()
