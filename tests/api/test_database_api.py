"""Unit tests for the public Database / Connection / QueryResult surface."""

import pytest

from repro import (
    Database,
    EngineConfig,
    Program,
    QueryResult,
    ResultSchema,
    ResultSet,
)
from repro.api.result import default_columns, ordered_rows
from repro.incremental.cache import ResultCache

TC_SOURCE = """
edge(1, 2). edge(2, 3). edge(3, 4).
path(X, Y) :- edge(X, Y).
path(X, Z) :- path(X, Y), edge(Y, Z).
"""

TC_PATHS = {(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4)}


def build_reachability(columns=None) -> Program:
    program = Program("reach")
    edge = program.relation("edge", 2, columns=columns)
    path = program.relation("path", 2, columns=columns)
    x, y, z = program.variables("x", "y", "z")
    path(x, y) <= edge(x, y)
    path(x, z) <= path(x, y) & edge(y, z)
    edge.add_facts([(1, 2), (2, 3), (3, 4)])
    return program


class TestQueryResult:
    def make(self, rows, relation="path", columns=None):
        schema = ResultSchema.of(relation, 2, columns)
        return QueryResult(schema, frozenset(rows))

    def test_set_protocol(self):
        result = self.make({(1, 2), (2, 3)})
        assert len(result) == 2
        assert (1, 2) in result
        assert (9, 9) not in result
        assert "not-a-row" not in result
        assert result == {(1, 2), (2, 3)}
        assert {(1, 2), (2, 3)} == result
        assert result == frozenset({(1, 2), (2, 3)})
        assert result != {(1, 2)}
        assert bool(result)
        assert not bool(self.make(set()))

    def test_set_operators_yield_plain_sets(self):
        result = self.make({(1, 2), (2, 3)})
        assert result - {(1, 2)} == {(2, 3)}
        assert result | {(9, 9)} == {(1, 2), (2, 3), (9, 9)}
        assert result & {(1, 2)} == {(1, 2)}
        assert isinstance(result - {(1, 2)}, set)

    def test_results_are_hashable_snapshots(self):
        a = self.make({(1, 2)})
        b = self.make({(1, 2)})
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_deterministic_ordering(self):
        rows = {(3, 1), (1, 2), (2, 0), (1, 1)}
        result = self.make(rows)
        assert list(result) == sorted(rows)
        assert result.to_list() == sorted(rows)

    def test_mixed_type_rows_still_order_deterministically(self):
        rows = {(1, 2), ("a", "b"), (None, 0)}
        result = self.make(rows)
        assert list(result) == sorted(rows, key=repr)

    def test_pagination(self):
        result = self.make({(i, i + 1) for i in range(10)})
        assert result.take(3) == [(0, 1), (1, 2), (2, 3)]
        assert list(result.rows(offset=8)) == [(8, 9), (9, 10)]
        assert list(result.rows(offset=2, limit=2)) == [(2, 3), (3, 4)]
        assert list(result.rows(offset=99)) == []
        assert result.first() == (0, 1)
        assert self.make(set()).first() is None
        with pytest.raises(ValueError):
            result.rows(offset=-1)
        with pytest.raises(ValueError):
            list(result.rows(limit=-1))

    def test_count_and_lazy_thunk(self):
        calls = []

        def fetch():
            calls.append(1)
            return {(1, 2), (2, 3)}

        schema = ResultSchema.of("path", 2)
        result = QueryResult(schema, fetch)
        assert not calls  # construction does not materialise
        assert result.count() == 2
        assert result.count() == 2
        assert calls == [1]  # fetched exactly once

    @pytest.mark.parametrize("lazy", [True, False], ids=["thunk", "eager"])
    def test_row_sets_are_adopted_other_iterables_are_retupled(self, lazy):
        schema = ResultSchema.of("path", 2)

        def result_over(rows):
            return QueryResult(schema, (lambda: rows) if lazy else rows)

        # Trusted: a set's rows (storage tuples by invariant) are frozen
        # without a per-row pass — the very same row objects come back.
        rows = {(1, 2), (2, 3)}
        adopted = result_over(rows)
        assert adopted == rows
        assert {id(row) for row in adopted.to_frozenset()} == {
            id(row) for row in rows
        }
        frozen = frozenset(rows)
        assert result_over(frozen).to_frozenset() is frozen
        # Untrusted: any other iterable may yield lists and is re-tupled.
        retupled = result_over([[1, 2], [2, 3], [1, 2]])
        assert retupled.to_list() == [(1, 2), (2, 3)]
        assert (1, 2) in retupled and retupled.count() == 2

    def test_columnar_and_dict_exports(self):
        result = self.make({(1, 2), (3, 4)}, columns=("src", "dst"))
        assert result.to_columns() == {"src": [1, 3], "dst": [2, 4]}
        assert result.to_dicts() == [
            {"src": 1, "dst": 2},
            {"src": 3, "dst": 4},
        ]

    def test_default_column_names(self):
        result = self.make({(1, 2)})
        assert result.columns == ("c0", "c1")
        assert default_columns(3) == ("c0", "c1", "c2")

    def test_schema_validates_column_count(self):
        with pytest.raises(ValueError):
            ResultSchema.of("edge", 2, columns=("only_one",))

    def test_explain_without_profile(self):
        assert "no execution profile" in self.make({(1, 2)}).explain()

    def test_ordered_rows_helper(self):
        assert ordered_rows([(2, 1), (1, 2)]) == ((1, 2), (2, 1))


class TestQueryResultEdgeCases:
    def make(self, rows, relation="path", arity=2, columns=None):
        return QueryResult(ResultSchema.of(relation, arity, columns), frozenset(rows))

    def test_pagination_past_the_end(self):
        result = self.make({(1, 2), (2, 3)})
        assert list(result.rows(offset=2)) == []
        assert list(result.rows(offset=99)) == []
        assert list(result.rows(offset=99, limit=5)) == []
        assert list(result.rows(offset=1, limit=99)) == [(2, 3)]
        assert list(result.rows(offset=0, limit=0)) == []

    def test_take_zero_and_beyond(self):
        result = self.make({(1, 2), (2, 3)})
        assert result.take(0) == []
        assert result.take(99) == [(1, 2), (2, 3)]
        assert self.make(set()).take(0) == []

    def test_count_on_empty_relation(self):
        """An IDB relation that derives nothing still yields a usable result."""
        program = Program("empty_idb")
        edge = program.relation("edge", 2)
        unreached = program.relation("unreached", 2)
        x, y = program.variables("x", "y")
        unreached(x, y) <= edge(x, y) & edge(y, x)
        edge.add_facts([(1, 2)])  # no cycle: nothing derives
        result = Database(program).query("unreached")
        assert result.count() == 0
        assert not result
        assert result.take(5) == []
        assert list(result.rows(offset=3)) == []
        assert result.first() is None
        assert result.to_columns() == {"c0": [], "c1": []}
        assert result.to_dicts() == []

    def test_zero_arity_relation_exports(self):
        """Arity-0 relations: one possible row ``()``; no columns at all."""
        populated = self.make({()}, relation="flag", arity=0)
        assert populated.count() == 1
        assert populated.to_columns() == {}
        assert populated.to_dicts() == [{}]
        assert populated.to_list() == [()]
        assert populated.take(0) == []
        empty = self.make(set(), relation="flag", arity=0)
        assert empty.count() == 0
        assert empty.to_columns() == {}
        assert empty.to_dicts() == []


class TestResultSet:
    def test_mapping_protocol_and_dict_equality(self):
        db = Database(TC_SOURCE)
        results = db.query()
        assert set(results) == {"path"}
        assert "path" in results
        assert len(results) == 1
        assert results.relations() == ("path",)
        assert results["path"] == TC_PATHS
        assert results == {"path": TC_PATHS}
        assert results.to_sets() == {"path": TC_PATHS}
        assert results.total_rows() == len(TC_PATHS)

    def test_unknown_relation_lists_available(self):
        results = Database(TC_SOURCE).query()
        with pytest.raises(KeyError, match="path"):
            results["nope"]

    @pytest.mark.parametrize("config", [
        EngineConfig.interpreted(),
        EngineConfig.naive(),
        EngineConfig.jit("lambda"),
        EngineConfig.jit("bytecode"),
        EngineConfig.jit("quotes", asynchronous=True),
        EngineConfig.aot(),
        EngineConfig.interpreted().with_(interning=False),
        EngineConfig.interpreted().with_(executor="pushdown"),
    ], ids=lambda c: c.describe())
    def test_query_all_returns_same_idb_relations_in_every_mode(self, config):
        results = Database(TC_SOURCE, config).query()
        assert results.relations() == ("path",)
        assert results == {"path": TC_PATHS}


class TestDatabase:
    def test_accepts_dsl_program_datalog_program_and_source(self):
        dsl = build_reachability()
        assert Database(dsl).query("path") == TC_PATHS
        assert Database(dsl.datalog).query("path") == TC_PATHS
        assert Database(TC_SOURCE).query("path") == TC_PATHS
        assert Database.from_source(TC_SOURCE, name="tc").program.name == "tc"
        with pytest.raises(TypeError):
            Database(42)

    def test_query_covers_edb_relations(self):
        result = Database(TC_SOURCE).query("edge")
        assert result == {(1, 2), (2, 3), (3, 4)}

    def test_unknown_relation_raises(self):
        with pytest.raises(KeyError, match="available"):
            Database(TC_SOURCE).query("nope")

    def test_schemas(self):
        program = build_reachability(columns=("src", "dst"))
        db = Database(program)
        assert db.schema("path") == ResultSchema.of("path", 2, ("src", "dst"))
        assert set(db.relations()) == {"edge", "path"}
        assert set(db.schemas()) == {"edge", "path"}

    def test_config_override_per_query(self):
        db = Database(TC_SOURCE, EngineConfig.interpreted())
        jit = db.query("path", config=EngineConfig.jit("lambda"))
        assert jit == TC_PATHS

    def test_close_closes_connections(self):
        db = Database(TC_SOURCE)
        conn = db.connect()
        db.close()
        assert conn.closed
        with pytest.raises(RuntimeError):
            db.connect()
        with pytest.raises(RuntimeError):
            db.query("path")

    def test_context_manager(self):
        with Database(TC_SOURCE) as db:
            conn = db.connect()
            assert conn.query("path") == TC_PATHS
        assert conn.closed


class TestConnection:
    def test_mutations_round_trip(self):
        db = Database(build_reachability())
        with db.connect() as conn:
            assert conn.query("path") == TC_PATHS
            report = conn.insert_facts("edge", [(4, 5)])
            assert report.inserted >= 1
            assert (1, 5) in conn.query("path")
            conn.retract_facts("edge", [(4, 5)])
            assert conn.query("path") == TC_PATHS
            assert conn.last_report is not None
            conn.self_check()

    def test_query_results_are_snapshots(self):
        db = Database(build_reachability())
        with db.connect() as conn:
            before = conn.query("path")
            conn.insert_facts("edge", [(4, 5)])
            assert before == TC_PATHS  # unchanged by the mutation
            assert conn.query("path") != before

    def test_query_without_argument_returns_all_idb(self):
        with Database(build_reachability()).connect() as conn:
            results = conn.query()
            assert isinstance(results, ResultSet)
            assert results == {"path": TC_PATHS}

    def test_unknown_relation_raises(self):
        with Database(TC_SOURCE).connect() as conn:
            with pytest.raises(KeyError, match="available"):
                conn.query("nope")

    def test_closed_connection_refuses_work(self):
        conn = Database(TC_SOURCE).connect()
        conn.close()
        conn.close()  # idempotent
        for call in (lambda: conn.query("path"),
                     lambda: conn.insert_facts("edge", [(8, 9)]),
                     lambda: conn.explain()):
            with pytest.raises(RuntimeError):
                call()

    def test_connections_share_the_database_cache(self):
        cache = ResultCache()
        db = Database(TC_SOURCE, cache=cache)
        with db.connect() as a, db.connect() as b:
            a.query("path")
            hits_before = cache.stats.hits
            b.query("path")  # replica: same program, same history -> cache hit
            assert cache.stats.hits > hits_before

    @pytest.mark.parametrize("config", [
        EngineConfig.interpreted(),
        EngineConfig.jit("lambda"),
    ], ids=lambda c: c.describe())
    def test_connection_updates_match_a_fresh_database(self, config):
        program = build_reachability()
        oracle = EngineConfig(executor="pushdown")
        expected = Database(program, oracle).query("path")
        with Database(program, config).connect() as conn:
            assert conn.query("path") == expected
            conn.insert_facts("edge", [(4, 5), (5, 6)])
            reference = Database(conn.session.snapshot_program(), oracle).query("path")
            assert conn.query("path") == reference


class TestExplain:
    def test_explain_names_config_plan_and_decisions(self):
        db = Database(TC_SOURCE, EngineConfig.jit("lambda"))
        with db.connect() as conn:
            text = conn.query("path").explain()
        assert "jit-lambda" in text
        assert "relation: path" in text
        assert "plan (after any adaptive rewrites):" in text
        assert "Stratum" in text
        assert "adaptive join-order decisions" in text

    def test_engine_results_carry_explain_too(self):
        result = Database(TC_SOURCE, EngineConfig.interpreted()).query("path")
        text = result.explain()
        assert "interpreted" in text
        assert "path" in text

    def test_connection_explain_without_relation(self):
        with Database(TC_SOURCE).connect() as conn:
            conn.refresh()
            assert "configuration:" in conn.explain()

    def test_vectorized_explain_reports_batches_and_strategies(self):
        text = Database(TC_SOURCE, EngineConfig.jit("lambda")).query("path").explain()
        assert "executor=pushdown" not in text
        assert "vectorized batches:" in text
        assert "vectorized plan strategies (latest per rule):" in text

    def test_lambda_jit_explain_reports_its_block_kernels(self):
        """Lambda artifacts are block kernels whatever the interpreter is."""
        config = EngineConfig.jit("lambda").with_(executor="pushdown")
        text = Database(TC_SOURCE, config).query("path").explain()
        assert "executor=pushdown" in text
        assert "vectorized batches:" in text
        assert "vectorized plan strategies (latest per rule):" in text

    @pytest.mark.parametrize("config", [
        EngineConfig.interpreted(),
        EngineConfig.jit("lambda"),
        EngineConfig.jit("quotes"),
        EngineConfig.jit("bytecode"),
    ], ids=lambda config: config.describe())
    def test_explain_prints_the_generated_comprehensions(self, config):
        """The text the kernels run, under the sub-query it was lowered from."""
        with Database(TC_SOURCE, config).connect() as conn:
            conn.refresh()
            lines = conn.explain().splitlines()
        header = lines.index(
            "block kernels (one generated comprehension per positive atom):"
        )
        step = next(i for i in range(header, len(lines))
                    if lines[i].endswith("path ⟵ pathδ ⋈ edge*"))
        assert lines[step + 1].strip() == "lambda rows, src: list(src)"
        assert lines[step + 2].strip() == (
            "lambda rows, src: {(r[0], q[1]) for r in rows for q in src(r[1], ())}"
        )
        assert any("candidates per head row)" in line for line in lines)

    def test_pushdown_explain_has_no_kernel_section(self):
        config = EngineConfig.interpreted().with_(executor="pushdown")
        text = Database(TC_SOURCE, config).query("path").explain()
        assert "block kernels" not in text
