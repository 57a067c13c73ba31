"""Exchange routing and the two-phase quiescence check."""

from repro.parallel.exchange import (
    ExchangeRouter,
    QuiescenceTracker,
    merge_outboxes,
)
from repro.parallel.partition import PartitionSpec


def make_router(shards=4):
    return ExchangeRouter(PartitionSpec(shards=shards, columns={"path": 0}))


class TestRouting:
    def test_route_splits_local_and_foreign(self):
        router = make_router()
        rows = [(i, i + 1) for i in range(16)]
        local, outboxes = router.route("path", rows, local_shard=1)
        assert all(router.owner("path", row) == 1 for row in local)
        for owner, batches in outboxes.items():
            assert owner != 1
            for row in batches["path"]:
                assert router.owner("path", row) == owner
        shipped = sum(len(b["path"]) for b in outboxes.values())
        assert len(local) + shipped == 16

    def test_zero_arity_rows_route_to_one_fixed_owner(self):
        # ``row[column]`` on ``()`` used to raise IndexError; every shard
        # must agree on the owner, and owner()/split()/route() with it.
        spec = PartitionSpec(shards=4, columns={"on": 0})
        router = ExchangeRouter(spec)
        owner = router.owner("on", ())
        for shard in range(4):
            local, outboxes = router.route("on", [()], local_shard=shard)
            if shard == owner:
                assert local == [()] and outboxes == {}
            else:
                assert local == [] and outboxes == {owner: {"on": [()]}}
        buckets = spec.split("on", [()])
        assert [len(bucket) for bucket in buckets] == [
            int(shard == owner) for shard in range(4)
        ]

    def test_merge_outboxes_regroups_by_destination(self):
        router = make_router(shards=2)
        _, from_zero = router.route("path", [(1, 0), (3, 0)], local_shard=0)
        _, from_one = router.route("path", [(0, 0), (2, 0)], local_shard=1)
        inboxes = merge_outboxes([from_zero, from_one], shards=2)
        assert sorted(inboxes[0].get("path", [])) == [(0, 0), (2, 0)]
        assert sorted(inboxes[1].get("path", [])) == [(1, 0), (3, 0)]


class TestQuiescence:
    def test_round_with_local_work_is_not_quiescent(self):
        tracker = QuiescenceTracker()
        stats = tracker.begin_round()
        stats.accepted_local = 5
        stats.promoted = 5
        assert not tracker.global_fixpoint(stats)

    def test_exchange_only_round_is_not_quiescent(self):
        # Phase two matters: a shard can look idle while its outbox seeds
        # new work on the owning shard.
        tracker = QuiescenceTracker()
        stats = tracker.begin_round()
        stats.accepted_local = 0
        stats.exchanged = 3
        stats.accepted_delivered = 2
        stats.promoted = 2
        assert tracker.locally_quiescent(stats)
        assert not tracker.exchange_quiescent(stats)
        assert not tracker.global_fixpoint(stats)

    def test_fully_idle_round_is_the_fixpoint(self):
        tracker = QuiescenceTracker()
        stats = tracker.begin_round()
        assert tracker.global_fixpoint(stats)
        assert tracker.round_count() == 1

    def test_totals(self):
        tracker = QuiescenceTracker()
        first = tracker.begin_round()
        first.exchanged, first.promoted = 4, 9
        second = tracker.begin_round()
        second.exchanged, second.promoted = 1, 2
        assert tracker.total_exchanged() == 5
        assert tracker.total_promoted() == 11
