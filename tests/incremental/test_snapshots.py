"""Unit tests for MVCC storage snapshots: publish, pin, COW sharing, GC,
and the canonical order carried from one version to the next."""

import gc
import sys
import threading
import weakref

import pytest

from repro.analyses.micro import build_transitive_closure_program
from repro.api.database import Database
from repro.core.config import EngineConfig
from repro.incremental import IncrementalSession
from repro.incremental.snapshots import SnapshotManager

EDGES = [(1, 2), (2, 3), (3, 4)]


def tc_session(edges=EDGES, config=None):
    session = IncrementalSession(
        build_transitive_closure_program(edges),
        config or EngineConfig.interpreted(),
    )
    session.enable_snapshots()
    return session


class TestPublication:
    def test_enable_publishes_the_initial_fixpoint_as_version_zero(self):
        session = tc_session()
        snapshot = session.snapshots.latest()
        assert snapshot.version == 0
        assert snapshot.decoded_rows("path") == frozenset(
            session.fetch("path")
        )

    def test_enable_is_idempotent(self):
        session = tc_session()
        manager = session.snapshots
        assert session.enable_snapshots() is manager
        assert manager.latest_version() == 0

    def test_each_mutation_batch_publishes_one_version(self):
        session = tc_session()
        session.insert_facts("edge", [(4, 5)])
        session.retract_facts("edge", [(1, 2)])
        assert session.snapshots.latest_version() == 2
        assert session.snapshots.published == 3

    def test_old_versions_stay_readable_while_pinned(self):
        session = tc_session()
        before = session.snapshots.acquire()
        session.insert_facts("edge", [(4, 5)])
        after = session.snapshots.latest()
        assert (1, 5) not in before.decoded_rows("path")
        assert (1, 5) in after.decoded_rows("path")
        session.snapshots.release(before.version)

    def test_unknown_relation_raises_with_candidates(self):
        session = tc_session()
        with pytest.raises(KeyError, match="path"):
            session.snapshots.latest().rows_of("nope")


class TestCopyOnWrite:
    def test_untouched_relations_share_the_same_frozenset_object(self):
        session = tc_session()
        v0 = session.snapshots.acquire()
        session.insert_facts("path", [(9, 10)])  # touches path, not edge
        v1 = session.snapshots.latest()
        assert v1.rows_of("edge") is v0.rows_of("edge")
        assert v1.rows_of("path") is not v0.rows_of("path")
        session.snapshots.release(v0.version)

    def test_generations_record_what_each_version_saw(self):
        session = tc_session()
        v0 = session.snapshots.acquire()
        session.insert_facts("edge", [(4, 5)])
        v1 = session.snapshots.latest()
        assert v1.generations["edge"] > v0.generations["edge"]
        assert v1.mutation_version > v0.mutation_version
        session.snapshots.release(v0.version)


class TestPinningAndGC:
    def test_unpinned_superseded_versions_are_collected(self):
        session = tc_session()
        session.insert_facts("edge", [(4, 5)])
        session.insert_facts("edge", [(5, 6)])
        assert session.snapshots.live_versions() == (2,)
        assert session.snapshots.collected == 2

    def test_pinned_versions_survive_until_released(self):
        session = tc_session()
        manager = session.snapshots
        pinned = manager.acquire()
        session.insert_facts("edge", [(4, 5)])
        assert manager.live_versions() == (0, 1)
        manager.release(pinned.version)
        assert manager.live_versions() == (1,)

    def test_release_is_refcounted(self):
        session = tc_session()
        manager = session.snapshots
        manager.acquire()
        manager.acquire()
        session.insert_facts("edge", [(4, 5)])
        manager.release(0)
        assert manager.live_versions() == (0, 1)
        manager.release(0)
        assert manager.live_versions() == (1,)

    def test_release_of_unpinned_version_raises(self):
        # A stray release used to silently return; with another reader
        # still holding the version it would instead decrement *their*
        # refcount and let GC collect a snapshot under active use.
        session = tc_session()
        with pytest.raises(ValueError, match="no outstanding pins"):
            session.snapshots.release(0)
        assert session.snapshots.live_versions() == (0,)

    def test_release_past_zero_pins_raises(self):
        session = tc_session()
        manager = session.snapshots
        manager.acquire()
        manager.release(0)
        with pytest.raises(ValueError, match="double release"):
            manager.release(0)
        assert session.metrics.counter(
            "snapshot_release_errors_total"
        ).value == 1

    def test_releaser_callback_fires_exactly_once(self):
        session = tc_session()
        manager = session.snapshots
        manager.acquire()
        manager.acquire()
        callback = manager.releaser(0)
        callback()
        callback()  # extra invocations no-op instead of raising/stealing
        assert manager.pin_count(0) == 1
        assert (
            session.metrics.counter("snapshot_double_release_total").value == 1
        )

    def test_stats_shape(self):
        session = tc_session()
        session.snapshots.acquire()
        stats = session.snapshots.stats()
        assert stats == {
            "live": 1, "pinned": 1, "published": 1, "collected": 0,
            "ordered_merged": 0, "ordered_sorted": 0,
        }


class TestManagerDirectly:
    def test_acquire_before_any_publish_raises(self):
        session = IncrementalSession(
            build_transitive_closure_program(EDGES), EngineConfig.interpreted()
        )
        manager = SnapshotManager(session.storage)
        assert manager.latest_version() is None
        with pytest.raises(RuntimeError):
            manager.acquire()
        with pytest.raises(RuntimeError):
            manager.latest()

    def test_publish_before_snapshots_enabled_raises_on_session(self):
        session = IncrementalSession(
            build_transitive_closure_program(EDGES), EngineConfig.interpreted()
        )
        with pytest.raises(RuntimeError):
            session.publish_snapshot()


class TestQueryResultPinning:
    def test_query_snapshot_pins_and_release_unpins(self):
        database = Database(build_transitive_closure_program(EDGES))
        conn = database.connect()
        manager = conn.session.enable_snapshots()
        result = conn.query_snapshot("path")
        assert result.snapshot_version == 0
        assert manager.pin_count(0) == 1
        result.release()
        assert manager.pin_count(0) == 0
        result.release()  # idempotent
        assert manager.pin_count(0) == 0
        database.close()

    def test_dropping_the_result_releases_through_the_finalizer(self):
        database = Database(build_transitive_closure_program(EDGES))
        conn = database.connect()
        manager = conn.session.enable_snapshots()
        result = conn.query_snapshot("path")
        assert manager.pin_count(0) == 1
        del result
        gc.collect()
        assert manager.pin_count(0) == 0
        database.close()

    def test_pinned_result_reads_its_version_after_newer_commits(self):
        database = Database(build_transitive_closure_program(EDGES))
        conn = database.connect()
        conn.session.enable_snapshots()
        old = conn.query_snapshot("path")
        conn.apply(inserts={"edge": [(4, 5)]})
        fresh = conn.query_snapshot("path")
        assert (1, 5) not in old
        assert (1, 5) in fresh
        assert old.snapshot_version == 0
        assert fresh.snapshot_version == 1
        database.close()

    def test_query_snapshot_requires_enabled_snapshots(self):
        database = Database(build_transitive_closure_program(EDGES))
        conn = database.connect()
        with pytest.raises(RuntimeError):
            conn.query_snapshot("path")
        database.close()

    def test_query_snapshot_of_unknown_relation_leaves_no_pin(self):
        database = Database(build_transitive_closure_program(EDGES))
        conn = database.connect()
        manager = conn.session.enable_snapshots()
        with pytest.raises(KeyError):
            conn.query_snapshot("nope")
        assert manager.pin_count() == 0
        database.close()


CHAIN = [(node, node + 1) for node in range(40)]  # 820 path rows


def ordered_views(database):
    """``{(how, reason)}: count`` from the database's metrics registry."""
    prefix = "ordered_views_total"
    return {
        key[len(prefix):]: value
        for key, value in database.metrics().items()
        if key.startswith(prefix)
    }


def first_page(conn, relation="path"):
    """What a served read does: resolve, page, release."""
    result = conn.query_snapshot(relation)
    page = result.take(8)
    result.release()
    return page


class TestCarriedOrder:
    def test_read_after_a_small_batch_is_merged_not_sorted(self):
        database = Database(build_transitive_closure_program(CHAIN))
        conn = database.connect()
        conn.session.enable_snapshots()
        first_page(conn)
        assert ordered_views(database) == {"{how=sorted,reason=no-base}": 1}
        conn.apply(inserts={"edge": [(100, 101)]})
        assert first_page(conn)[0] == (0, 1)
        conn.apply(retracts={"edge": [(100, 101)]})
        first_page(conn)
        assert ordered_views(database) == {
            "{how=sorted,reason=no-base}": 1, "{how=merged}": 2,
        }
        database.close()

    def test_read_after_a_mixed_type_insert_is_sorted_and_says_why(self):
        source = "seen(X) :- item(X).\n" + "".join(
            f"item({value}).\n" for value in range(40)
        )
        database = Database(source)
        conn = database.connect()
        conn.session.enable_snapshots()
        first_page(conn, "seen")
        conn.apply(inserts={"item": [("forty",)]})
        result = conn.query_snapshot("seen")
        # ints and a str do not compare: the repr-keyed order decides, and
        # only a full sort can find that out.
        assert result.to_list() == sorted(result.to_set(), key=repr)
        assert ordered_views(database) == {
            "{how=sorted,reason=no-base}": 1,
            "{how=sorted,reason=incomparable-keys}": 1,
        }
        # Back to comparable rows: derived again, from the last natural view.
        conn.apply(retracts={"item": [("forty",)]})
        assert first_page(conn, "seen") == [(value,) for value in range(8)]
        assert ordered_views(database)["{how=merged}"] == 1
        database.close()

    def test_a_delta_past_the_crossover_builds_cold(self):
        database = Database(build_transitive_closure_program(CHAIN))
        conn = database.connect()
        conn.session.enable_snapshots()
        first_page(conn)
        conn.apply(retracts={"edge": [(20, 21)]})  # cuts the chain in half
        first_page(conn)
        assert ordered_views(database) == {
            "{how=sorted,reason=no-base}": 1,
            "{how=sorted,reason=delta-too-large}": 1,
        }
        database.close()

    def test_identity_codec_results_build_cold_and_carry_nothing(self):
        database = Database(
            build_transitive_closure_program(CHAIN),
            EngineConfig().with_(interning=False),
        )
        conn = database.connect()
        manager = conn.session.enable_snapshots()
        first_page(conn)
        conn.apply(inserts={"edge": [(100, 101)]})
        first_page(conn)
        assert ordered_views(database) == {
            "{how=sorted,reason=identity-codec}": 2,
        }
        assert manager.order_carrier("path", 1).base() is None
        database.close()

    def test_there_is_no_chain_of_bases(self):
        database = Database(build_transitive_closure_program(CHAIN))
        conn = database.connect()
        manager = conn.session.enable_snapshots()
        row_sets = []
        for step in range(3):
            conn.apply(inserts={"edge": [(100 + step, 101 + step)]})
            first_page(conn)
            row_sets.append(weakref.ref(manager.latest().rows_of("path")))
        gc.collect()
        # Version k was derived from k-1, k-1 from k-2: only the newest base
        # (and through it nothing older) is still reachable.
        assert row_sets[0]() is None and row_sets[1]() is None
        assert row_sets[2]() is manager.order_carrier("path", 3).base()[0]
        database.close()

    def test_deriving_takes_no_pin_and_keeps_no_version_alive(self):
        database = Database(build_transitive_closure_program(CHAIN))
        conn = database.connect()
        manager = conn.session.enable_snapshots()
        first_page(conn)
        conn.apply(inserts={"edge": [(100, 101)]})
        result = conn.query_snapshot("path")
        live, pins = manager.live_versions(), manager.pin_count()
        assert result.take(8)  # derives version 1 from version 0's order
        assert (manager.live_versions(), manager.pin_count()) == (live, pins)
        result.release()
        assert manager.live_versions() == (1,) and manager.pin_count() == 0
        database.close()

    def test_two_threads_paging_one_fresh_result_agree(self):
        database = Database(build_transitive_closure_program(CHAIN))
        conn = database.connect()
        conn.session.enable_snapshots()
        first_page(conn)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for step in range(20):
                conn.apply(inserts={"edge": [(100 + step, 101 + step)]})
                result = conn.query_snapshot("path")
                barrier = threading.Barrier(4)
                pages = []

                def page():
                    barrier.wait(timeout=30)
                    pages.append(list(result.rows(offset=3, limit=50)))

                threads = [threading.Thread(target=page) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                expected = sorted(result.to_set())[3:53]
                assert pages == [expected] * 4
                result.release()
        finally:
            sys.setswitchinterval(interval)
        database.close()
