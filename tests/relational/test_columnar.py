"""Unit tests for ColumnarBlock and the vectorized evaluator (the lowered
kernels themselves: test_operators.py; the comprehensions they are generated
as, keyed / unkeyed / indexed / table-built: test_join_codegen.py)."""

import pytest

from repro.datalog.literals import Atom
from repro.datalog.terms import Variable
from repro.relational.columnar import ColumnarBlock
from repro.relational.operators import (
    AtomSource,
    JoinPlan,
    VectorizedSubqueryEvaluator,
    evaluate_subquery,
)
from repro.relational.relation import Relation
from repro.relational.storage import DatabaseKind, StorageManager

x, y, z = Variable("x"), Variable("y"), Variable("z")


class TestColumnarBlock:
    def test_empty_block(self):
        empty = ColumnarBlock.from_rows((x,), [])
        assert len(empty) == 0 and not empty
        assert empty.rows() == [] and empty.columns == ((),)

    def test_round_trip_between_layouts(self):
        from_rows = ColumnarBlock.from_rows((x, y), [(1, 2), (3, 4)])
        assert from_rows.columns == ((1, 3), (2, 4))
        from_columns = ColumnarBlock.from_columns((x, y), [(1, 3), (2, 4)])
        assert from_columns.rows() == [(1, 2), (3, 4)]
        assert from_rows.column(y) == (2, 4)
        assert from_columns.column_at(0) == (1, 3)

    def test_single_column_extraction_does_not_need_full_transpose(self):
        block = ColumnarBlock.from_rows((x, y, z), [(1, 2, 3), (4, 5, 6)])
        assert block.column(y) == (2, 5)
        assert block.column(y) is block.column(y)  # cached

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            ColumnarBlock.from_columns((x, y), [(1, 2), (3,)])
        with pytest.raises(ValueError):
            ColumnarBlock.from_columns((x,), [(1,), (2,)])

    def test_from_relation_and_partition(self):
        relation = Relation("edge", 2)
        relation.insert_many([(i, i + 1) for i in range(8)])
        block = ColumnarBlock.from_relation(relation)
        assert len(block) == 8
        buckets = block.partition(0, 2, hash_fn=lambda v: v)
        assert sorted(r for b in buckets for r in b) == sorted(relation.rows())
        assert all(row[0] % 2 == shard for shard, bucket in enumerate(buckets)
                   for row in bucket)

    def test_to_columns_export(self):
        block = ColumnarBlock.from_rows((x, y), [(1, 2), (3, 4)])
        assert block.to_columns() == {x: (1, 3), y: (2, 4)}


def make_storage():
    storage = StorageManager()
    storage.declare("edge", 2)
    storage.declare("path", 2)
    return storage


class TestVectorizedEvaluator:
    def plan(self):
        return JoinPlan(
            head_relation="path",
            head_terms=(x, z),
            sources=(
                AtomSource(Atom("path", (x, y)), DatabaseKind.DELTA_KNOWN),
                AtomSource(Atom("edge", (y, z)), DatabaseKind.DERIVED),
            ),
        )

    def test_matches_pushdown(self):
        storage = make_storage()
        storage.derived("edge").insert_many([(1, 2), (2, 3), (3, 4)])
        storage.force_delta("path", [(1, 2), (2, 3)])
        reference = evaluate_subquery(storage, self.plan(), executor="pushdown")
        vectorized = evaluate_subquery(storage, self.plan(), executor="vectorized")
        assert vectorized == reference == {(1, 3), (2, 4)}

    def test_stats_count_batches_and_strategies(self):
        storage = make_storage()
        storage.register_index("edge", 0)
        storage.derived("edge").insert_many([(1, 2), (2, 3)])
        storage.force_delta("path", [(1, 2)])
        evaluator = VectorizedSubqueryEvaluator(storage)
        evaluator.evaluate(self.plan())
        assert evaluator.stats["batches"] == 1
        assert (evaluator.stats["scan"], evaluator.stats["index"]) == (1, 1)
        assert evaluator.stats["candidates"] == evaluator.stats["projected"] == 1

    def test_unknown_executor_rejected(self):
        from repro.relational.operators import SubqueryEvaluator

        with pytest.raises(ValueError, match="unknown executor"):
            SubqueryEvaluator(make_storage(), executor="simd")


class TestPackedColumns:
    def test_from_packed_round_trips(self):
        from array import array

        block = ColumnarBlock.from_packed((x, y), [array("q", [1, 2]), array("q", [3, 4])])
        assert len(block) == 2
        assert block.rows() == [(1, 3), (2, 4)]
        assert list(block.column(x)) == [1, 2]
        assert isinstance(block.packed_column(0), array)

    def test_from_packed_accepts_plain_int_sequences(self):
        block = ColumnarBlock.from_packed((x,), [[5, 6, 7]])
        assert block.rows() == [(5,), (6,), (7,)]

    def test_from_packed_rejects_ragged_and_mismatched(self):
        from array import array

        with pytest.raises(ValueError):
            ColumnarBlock.from_packed((x, y), [array("q", [1]), array("q", [1, 2])])
        with pytest.raises(ValueError):
            ColumnarBlock.from_packed((x,), [array("q", [1]), array("q", [2])])

    def test_packed_column_rejects_non_ints(self):
        block = ColumnarBlock.from_rows((x,), [("a",), ("b",)])
        with pytest.raises(TypeError):
            block.packed_column(0)

    def test_partition_int_fast_path_matches_stable_hash(self):
        from repro.parallel.partition import stable_hash

        rows = [(i * 37 % 19, i) for i in range(64)]
        block = ColumnarBlock.from_rows((x, y), rows)
        fast = block.partition(0, 4, hash_fn=stable_hash)
        # Reference: the generic per-value path (hash_fn without the
        # int_compatible marker never takes the fast path).
        slow = block.partition(0, 4, hash_fn=lambda v: stable_hash(v))
        assert fast == slow

    def test_partition_mixed_values_uses_generic_path(self):
        from repro.parallel.partition import stable_hash

        rows = [("a", 1), ("b", 2), (3, 3)]
        block = ColumnarBlock.from_rows((x, y), rows)
        buckets = block.partition(0, 2, hash_fn=stable_hash)
        assert {row for bucket in buckets for row in bucket} == set(rows)
        for shard, bucket in enumerate(buckets):
            assert all(stable_hash(row[0]) % 2 == shard for row in bucket)
