"""Unit tests for the global symbol table (dictionary-encoded storage)."""

import pickle
import sys
import threading

import pytest

from repro.relational.storage import StorageManager
from repro.relational.symbols import IDENTITY, IdentitySymbols, SymbolTable


class TestRoundTrips:
    def test_mixed_type_round_trip(self):
        table = SymbolTable()
        values = ["alice", 17, 3.25, ("pkg", "sym", 4), b"bytes", None, "alice"]
        ids = [table.intern(v) for v in values]
        assert [table.resolve(i) for i in ids] == values
        # Dense: ids are exactly 0..N-1 in first-seen order.
        assert sorted(set(ids)) == list(range(len(set(ids))))

    def test_equal_values_share_one_id_like_a_raw_set_would(self):
        # Interning preserves Python set semantics: 1 == 1.0 == True
        # collapse to one id, exactly as a raw set of rows collapses them,
        # so decoded results equal the raw engine's under == (same rows,
        # same cardinalities).  Distinct ids per type would instead make
        # encoded relations hold MORE rows than their raw counterparts.
        table = SymbolTable()
        assert table.intern(1) == table.intern(1.0) == table.intern(True)
        assert table.intern("a") != table.intern("b")
        assert len(table) == 3

    def test_mixed_type_equivalence_classes_decode_to_the_first_seen_value(self):
        # Deliberate, documented behaviour (see the module docstring): the
        # table keeps the globally first-interned representative of a
        # mixed-type numeric ==-class, so a relation loaded later may decode
        # 1.0 as 1.  The raw engine has the same arbitrariness per set
        # (first value inserted wins); only the tie-break scope differs.
        table = SymbolTable()
        first = table.intern(1)
        assert table.resolve(table.intern(1.0)) is table.resolve(first)
        assert type(table.resolve(table.intern(1.0))) is int

    def test_id_stability_under_reinsert(self):
        table = SymbolTable()
        first = table.intern("x")
        for _ in range(3):
            assert table.intern("x") == first
        assert table.intern("y") == first + 1
        assert table.intern("x") == first
        assert len(table) == 2

    def test_row_codecs(self):
        table = SymbolTable()
        rows = [("a", 1), ("b", 2), ("a", 2)]
        encoded = table.intern_rows(rows)
        assert all(isinstance(v, int) for row in encoded for v in row)
        assert table.resolve_rows(encoded) == rows
        assert table.lookup_row(("a", 2)) == encoded[2]
        assert table.lookup_row(("a", "never-seen")) is None
        assert table.rows_encoded == 3 and table.rows_decoded == 3

    def test_resolve_unknown_id_raises(self):
        table = SymbolTable()
        table.intern("only")
        with pytest.raises(KeyError):
            table.resolve(99)


class TestShardPlumbing:
    def test_pickle_round_trip_preserves_ids(self):
        # The shard-worker boundary: a pickled table must decode and intern
        # exactly like the original (the lock is rebuilt on load).
        table = SymbolTable()
        ids = [table.intern(v) for v in ("a", ("b", 1), 2.5)]
        clone = pickle.loads(pickle.dumps(table))
        assert [clone.resolve(i) for i in ids] == ["a", ("b", 1), 2.5]
        assert clone.intern(("b", 1)) == ids[1]       # existing id stable
        assert clone.intern("fresh") == len(table)    # allocation continues

    def test_entries_since_and_extend_replay_identically(self):
        sender = SymbolTable()
        receiver = pickle.loads(pickle.dumps(sender))
        sender.intern_rows([("a", "b"), ("c", "a")])
        mark = receiver.mark()
        assert receiver.extend(sender.entries_since(mark), base=mark) == 3
        assert receiver.lookup("c") == sender.lookup("c")
        assert len(receiver) == len(sender)

    def test_extend_rejects_divergent_tables(self):
        a = SymbolTable()
        b = SymbolTable()
        a.intern("x")
        b.intern("y")
        b.intern("x")  # different id for "x"
        with pytest.raises(ValueError):
            a.extend(b.entries_since(0), base=0)

    def test_extend_rejects_base_beyond_the_table_size(self):
        # A delta whose base disagrees with the receiver's current size
        # means entries are missing in between: replaying it would hand the
        # batch ids the sender never assigned.  It must raise — a silent
        # misalignment would remap every fact interned afterwards.
        table = SymbolTable(["a", "b"])
        with pytest.raises(ValueError, match="beyond this table's size"):
            table.extend(["c", "d"], base=5)
        assert list(table.values()) == ["a", "b"]

    def test_extend_rejects_stale_base_with_new_values(self):
        table = SymbolTable(["a", "b", "c"])
        with pytest.raises(ValueError, match="divergence"):
            table.extend(["x"], base=1)  # id 1 is already "b"
        assert list(table.values()) == ["a", "b", "c"]

    def test_duplicated_delta_replay_dedupe_merges(self):
        # Replaying the same WAL symbol delta twice (crash between append
        # and ack, record rewritten) must be idempotent: matching entries
        # are skipped, nothing new is allocated.
        table = SymbolTable(["a"])
        assert table.extend(["b", "c"], base=1) == 2
        assert table.extend(["b", "c"], base=1) == 0
        assert list(table.values()) == ["a", "b", "c"]
        # A partially overlapping replay extends only the genuine tail.
        assert table.extend(["c", "d"], base=2) == 1
        assert table.lookup("d") == 3

    def test_failed_extend_is_atomic(self):
        # The second entry diverges; the first must NOT survive — a
        # partially absorbed delta silently shifts every later allocation.
        table = SymbolTable(["a"])
        with pytest.raises(ValueError):
            table.extend(["b", "a"], base=1)  # "a" is bound to 0, not 2
        assert list(table.values()) == ["a"]
        assert table.lookup("b") is None

    def test_extend_rejects_in_batch_duplicates(self):
        # A sender's appended suffix can never repeat a value (interning is
        # a bijection), so a duplicate marks a corrupt delta — and must not
        # half-apply.
        table = SymbolTable()
        with pytest.raises(ValueError):
            table.extend(["x", "x"], base=0)
        assert len(table) == 0

    def test_concurrent_interning_from_a_thread_pool(self):
        table = SymbolTable()
        values = [f"sym_{i}" for i in range(200)]
        seen = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            seen.append([table.intern(v) for v in values])

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Every thread observed the same value -> id mapping, the table is
        # dense, and decode round-trips.
        assert all(ids == seen[0] for ids in seen)
        assert len(table) == len(values)
        assert [table.resolve(i) for i in seen[0]] == values


class TestPerSymbolMemo:
    def test_memo_is_indexed_by_id_and_computed_once_per_symbol(self):
        table = SymbolTable(["a", 2, None])
        calls = []

        def describe(value):
            calls.append(value)
            return f"<{value!r}>"

        memo = table.memo(describe)
        assert memo == ["<'a'>", "<2>", "<None>"]
        assert table.memo(describe) is memo and len(calls) == 3
        late = table.intern(("late", 1))
        assert table.memo(describe)[late] == "<('late', 1)>"
        assert calls == ["a", 2, None, ("late", 1)]

    def test_memo_is_prefix_stable_across_extensions(self):
        table = SymbolTable(range(10))
        memo = table.memo(repr)
        before = list(memo)
        table.extend([f"s{i}" for i in range(10)])
        after = table.memo(repr)
        assert after is memo  # same list, appended to
        assert after[:10] == before
        assert after == [repr(value) for value in table.values()]

    def test_the_memo_is_pinned_to_its_first_function(self):
        table = SymbolTable([1, "x"])
        assert table.memo(repr) == ["1", "'x'"]
        with pytest.raises(ValueError, match="memo holds"):
            table.memo(str)
        assert table.memo(repr) == ["1", "'x'"]

    def test_memo_is_not_part_of_the_pickle(self):
        table = SymbolTable(["a", "b"])
        table.memo(repr)
        state = table.__getstate__()
        assert sorted(state) == ["rows_decoded", "rows_encoded", "values"]
        clone = pickle.loads(pickle.dumps(table))
        assert list(clone.values()) == ["a", "b"]
        calls = []
        assert clone.memo(lambda value: calls.append(value) or value) == [
            "a", "b"
        ]
        assert calls == ["a", "b"]  # rebuilt on the far side, not shipped

    def test_a_failing_function_leaves_a_correct_prefix(self):
        table = SymbolTable([1, 2, 0, 4])

        def inverse(value):
            return 1 / value

        with pytest.raises(ZeroDivisionError):
            table.memo(inverse)
        table._values[2] = 8  # test-only: let the retry get past id 2
        assert table.memo(inverse) == [1.0, 0.5, 0.125, 0.25]

    def test_threads_extending_while_another_interns_agree_with_sequential(self):
        """Four readers extend the memo while a fifth interns, under a 1 us
        switch interval: every lookup equals ``fn(value)``, and the final
        memo equals a sequential build — no lost, duplicated or shifted
        entry (what an unlocked ``extend`` produces)."""
        table = SymbolTable()
        total = 20_000
        failures = []
        done = threading.Event()

        def fragment(value):
            return f"[{value}]"

        def intern_all():
            for i in range(total):
                table.intern(f"sym_{i}")
            done.set()

        def read_all():
            try:
                while True:
                    finished = done.is_set()
                    size = len(table)
                    memo = table.memo(fragment)
                    if len(memo) < size:
                        failures.append(f"memo {len(memo)} < table {size}")
                    for symbol in (0, size // 2, size - 1):
                        if size and memo[symbol] != f"[sym_{symbol}]":
                            failures.append((symbol, memo[symbol]))
                    if finished:
                        return
            except Exception as exc:  # surfaced after join
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read_all) for _ in range(4)]
            threads.append(threading.Thread(target=intern_all))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:5]
        assert table.memo(fragment) == [
            fragment(value) for value in table.values()
        ]
        assert len(table.memo(fragment)) == total


class TestIdentityCodec:
    def test_identity_passthrough(self):
        assert IDENTITY.identity is True
        assert IDENTITY.intern("v") == "v"
        assert IDENTITY.resolve(("a", 1)) == ("a", 1)
        assert IDENTITY.intern_row(["a", 1]) == ("a", 1)
        assert IDENTITY.resolve_rows([("a",)]) == [("a",)]
        assert IDENTITY.lookup_row(["a"]) == ("a",)
        assert len(IDENTITY) == 0 and IDENTITY.entries_since(0) == []
        with pytest.raises(TypeError):
            IDENTITY.extend(["x"])

    def test_bare_storage_defaults_to_identity(self):
        storage = StorageManager()
        assert isinstance(storage.symbols, IdentitySymbols)
        storage.declare("r", 1)
        storage.insert_derived("r", ("raw",))
        assert storage.tuples("r") == {("raw",)}
        assert storage.decoded_tuples("r") == {("raw",)}

    def test_storage_with_table_interns_program_facts(self):
        from repro.datalog.program import DatalogProgram

        program = DatalogProgram("p")
        program.declare_relation("edge", 2)
        program.add_fact("edge", ("a", "b"))
        program.add_fact("edge", ("b", "c"))
        storage = StorageManager(program, symbols=SymbolTable())
        stored = storage.tuples("edge")
        assert all(isinstance(v, int) for row in stored for v in row)
        assert storage.decoded_tuples("edge") == {("a", "b"), ("b", "c")}
        assert len(storage.symbols) == 3  # "a", "b", "c" interned once each
