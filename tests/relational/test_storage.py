"""Unit tests for the storage manager (Derived / Delta-Known / Delta-New)."""

import pytest

from repro.datalog.literals import Atom
from repro.datalog.program import DatalogProgram
from repro.datalog.terms import Variable
from repro.relational.storage import DatabaseKind, StorageManager

x, y = Variable("x"), Variable("y")


def make_storage() -> StorageManager:
    storage = StorageManager()
    storage.declare("edge", 2)
    storage.declare("path", 2)
    return storage


class TestDeclaration:
    def test_declare_idempotent(self):
        storage = make_storage()
        storage.declare("edge", 2)
        assert storage.arity_of("edge") == 2

    def test_declare_conflicting_arity(self):
        storage = make_storage()
        with pytest.raises(ValueError):
            storage.declare("edge", 3)

    def test_unknown_relation_rejected(self):
        storage = make_storage()
        with pytest.raises(KeyError):
            storage.relation("unknown")

    def test_load_program_loads_facts(self):
        program = DatalogProgram()
        program.add_facts("edge", [(1, 2), (2, 3)])
        program.add_rule(Atom("path", (x, y)), [Atom("edge", (x, y))])
        storage = StorageManager(program)
        assert storage.cardinality("edge") == 2
        assert storage.cardinality("path") == 0


class TestDeltaLifecycle:
    def test_seed_delta_populates_derived_and_known(self):
        storage = make_storage()
        added = storage.seed_delta("path", [(1, 2), (1, 2), (2, 3)])
        assert added == 2
        assert storage.cardinality("path", DatabaseKind.DERIVED) == 2
        assert storage.cardinality("path", DatabaseKind.DELTA_KNOWN) == 2

    def test_insert_new_dedups_against_derived(self):
        storage = make_storage()
        storage.seed_delta("path", [(1, 2)])
        assert storage.insert_new("path", (1, 2)) is False
        assert storage.insert_new("path", (2, 3)) is True
        assert storage.cardinality("path", DatabaseKind.DELTA_NEW) == 1

    def test_swap_and_clear_promotes_and_rotates(self):
        storage = make_storage()
        storage.seed_delta("path", [(1, 2)])
        storage.insert_new("path", (2, 3))
        promoted = storage.swap_and_clear(["path"])
        assert promoted == 1
        assert storage.cardinality("path", DatabaseKind.DERIVED) == 2
        assert storage.tuples("path", DatabaseKind.DELTA_KNOWN) == {(2, 3)}
        assert storage.cardinality("path", DatabaseKind.DELTA_NEW) == 0

    def test_swap_with_no_new_facts_returns_zero(self):
        storage = make_storage()
        storage.seed_delta("path", [(1, 2)])
        storage.swap_and_clear(["path"])
        assert storage.swap_and_clear(["path"]) == 0

    def test_new_fact_count(self):
        storage = make_storage()
        storage.insert_new_many("path", [(1, 2), (2, 3)])
        assert storage.new_fact_count(["path"]) == 2

    def test_reset_idb(self):
        storage = make_storage()
        storage.seed_delta("path", [(1, 2)])
        storage.reset_idb(["path"])
        assert storage.cardinality("path") == 0

    def test_clear_deltas(self):
        storage = make_storage()
        storage.seed_delta("path", [(1, 2)])
        storage.clear_deltas(["path"])
        assert storage.cardinality("path", DatabaseKind.DELTA_KNOWN) == 0
        assert storage.cardinality("path", DatabaseKind.DERIVED) == 1


class TestIndexes:
    def test_register_index_applies_to_all_copies(self):
        storage = make_storage()
        storage.register_index("path", 0)
        assert storage.registered_indexes("path") == (0,)
        for kind in DatabaseKind:
            assert storage.relation("path", kind).has_index(0)

    def test_indexes_survive_swap(self):
        storage = make_storage()
        storage.register_index("path", 1)
        storage.seed_delta("path", [(1, 2)])
        storage.insert_new("path", (2, 3))
        storage.swap_and_clear(["path"])
        delta = storage.relation("path", DatabaseKind.DELTA_KNOWN)
        assert list(delta.lookup(1, 3)) == [(2, 3)]

    def test_drop_all_indexes(self):
        storage = make_storage()
        storage.register_index("path", 0)
        storage.drop_all_indexes()
        assert storage.registered_indexes("path") == ()


class TestSnapshots:
    def test_cardinalities_and_snapshot(self):
        storage = make_storage()
        storage.insert_derived("edge", (1, 2))
        storage.seed_delta("path", [(1, 2), (2, 3)])
        cards = storage.cardinalities()
        assert cards == {"edge": 1, "path": 2}
        snapshot = storage.snapshot()
        assert snapshot["path"]["delta"] == 2
        assert snapshot["edge"]["derived"] == 1


class TestBatchWriterNormalisation:
    def test_batch_writers_reject_wrong_arity(self):
        storage = make_storage()
        for method in ("seed_delta", "insert_new_many"):
            with pytest.raises(ValueError, match="arity"):
                getattr(storage, method)("path", [(1, 2, 3)])

    def test_sets_of_non_tuple_sequences_are_tupled(self):
        storage = make_storage()
        storage.seed_delta("path", {"ab"})  # a set of 2-char strings
        assert ("a", "b") in storage.derived("path")
        storage.insert_new_many("path", {"cd"})
        assert ("c", "d") in storage.new("path")


class TestBulkWriters:
    """absorb_rows / force_delta: the bulk-load and DRed re-seed paths."""

    def _storage(self):
        storage = make_storage()
        for row in [(i, i + 1) for i in range(20)]:
            storage.insert_derived("path", row)
        return storage

    def test_absorb_rows_bumps_generation_once(self):
        storage = self._storage()
        generation = storage.generation("path")
        added = storage.absorb_rows("path", [(50, 51), (52, 53), (0, 1)])
        assert added == 2  # (0, 1) was already present
        assert storage.generation("path") == generation + 1
        assert storage.absorb_rows("path", [(50, 51)]) == 0
        assert storage.generation("path") == generation + 1

    def test_force_delta_ignores_derived_membership(self):
        storage = self._storage()
        assert storage.force_delta("path", [(0, 1)]) == 1
        assert (0, 1) in storage.tuples("path", DatabaseKind.DELTA_KNOWN)


class TestTrustedBatchSinks:
    """insert_new_batch / seed_delta_batch: the executor's validated sinks."""

    def _storage(self):
        storage = StorageManager()
        storage.declare("edge", 2)
        return storage

    def test_insert_new_batch_matches_insert_new_many(self):
        a, b = self._storage(), self._storage()
        a.insert_derived("edge", (1, 2))
        b.insert_derived("edge", (1, 2))
        batch = {(1, 2), (3, 4), (5, 6)}
        assert a.insert_new_batch("edge", batch) == b.insert_new_many("edge", batch) == 2
        assert a.tuples("edge", DatabaseKind.DELTA_NEW) == b.tuples(
            "edge", DatabaseKind.DELTA_NEW
        )

    def test_seed_delta_batch_matches_seed_delta(self):
        a, b = self._storage(), self._storage()
        batch = {(1, 2), (3, 4)}
        assert a.seed_delta_batch("edge", batch) == b.seed_delta("edge", batch) == 2
        assert a.tuples("edge") == b.tuples("edge")
        assert a.tuples("edge", DatabaseKind.DELTA_KNOWN) == b.tuples(
            "edge", DatabaseKind.DELTA_KNOWN
        )

    def test_mutation_version_moves_with_visible_changes(self):
        storage = self._storage()
        before = storage.mutation_version()
        storage.seed_delta_batch("edge", {(1, 2)})
        assert storage.mutation_version() > before
        version = storage.mutation_version()
        # Delta-New writes are invisible to cardinality snapshots.
        storage.insert_new_batch("edge", {(7, 8)})
        assert storage.mutation_version() == version
        storage.swap_and_clear(["edge"])
        assert storage.mutation_version() > version
