"""MVCC storage snapshots: immutable committed versions readers can pin,
and the canonical row order carried from one version to the next.

This generalizes the cardinality-level :class:`~repro.relational.statistics.
SnapshotCache` (PR 5) into full copy-on-write *row* snapshots: a
:class:`SnapshotManager` publishes one immutable :class:`StorageSnapshot`
per committed mutation batch, and concurrent readers serve queries from the
last committed version without ever blocking behind a writer's fixpoint.

Copy-on-write at relation granularity
-------------------------------------

Publishing does **not** copy the database.  Each relation's row set is
frozen at most once per generation (:meth:`StorageManager.frozen_rows`
memoizes the frozenset keyed on the relation's generation counter), so a
snapshot is a dict of *shared* frozensets: relations untouched since the
previous version alias the exact same frozenset object, and a mutation
batch pays only for the relations it actually changed.  A 10k-row relation
nobody has written since version 3 costs every later version two dict
probes, not 10k tuples.

Pinning and garbage collection
------------------------------

Readers :meth:`~SnapshotManager.acquire` the latest snapshot (incrementing
its pin count), read from it for as long as they like, and
:meth:`~SnapshotManager.release` it.  An outstanding
:class:`~repro.api.result.QueryResult` can hold a pin for its whole
lifetime — the API layer registers the release as a weakref finalizer, so
dropping the result releases the version even if the caller forgets.
:meth:`~SnapshotManager.collect` (run automatically on publish and on
release) drops every version that is neither pinned nor latest; the frozen
row sets themselves stay alive exactly as long as some live snapshot (or
the storage's own copy-on-write cache) still shares them.

Carried order
-------------

Row sets are shared across versions; so is the work of ordering them.  The
manager keeps, per relation, one *order base*: the row set and the canonical
ordered tuple of the newest version any reader has ordered so far.  A
:class:`~repro.api.result.QueryResult` reaches it through an
:class:`OrderCarrier` and derives its own order from the base by set
difference and merge (the algorithm lives in :mod:`repro.api.result`, the
one place order is computed), then offers the result back as the next base.
The write path is not involved: :meth:`SnapshotManager.publish` and the
session's ``apply`` compute, diff and sort nothing — the delta is recovered
from the two frozensets at read time, so it is right whatever produced the
new version (an incremental batch, a recompute fallback, a checkpoint
restore) and however many versions went unread in between.

The manager owns the base because results do not live long enough to: the
server drops a version's result when the next version is first read, and an
embedded caller releases each result after one page.  There is **no chain**:
one base per relation, replaced (never linked) by a newer one, and never
overwritten by an older pinned result that happens to order late.  A derived
result holds no reference to the base it came from, so old row sets stay
exactly as collectable as before — the base pins one row set per relation,
the one the most recent reader was already holding.

The manager is thread-safe: the writer publishes from its own thread while
any number of reader threads acquire/release — and order, on the server's
reader pool — concurrently.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.relational.relation import Row
from repro.relational.storage import StorageManager


class StorageSnapshot:
    """One committed version: an immutable view of every Derived relation.

    ``version`` is the manager's dense commit counter (0 = the initial
    fixpoint); ``mutation_version`` and ``generations`` record the storage
    counters the snapshot was taken at, so a reader can tell exactly which
    ``(mutation_version, relation-generation)`` state its rows describe.
    """

    __slots__ = (
        "version", "mutation_version", "generations", "_rows", "symbols",
    )

    def __init__(self, version: int, mutation_version: int,
                 generations: Mapping[str, int],
                 rows: Mapping[str, FrozenSet[Row]], symbols) -> None:
        self.version = version
        self.mutation_version = mutation_version
        self.generations = dict(generations)
        self._rows = dict(rows)
        self.symbols = symbols

    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self._rows)

    def rows_of(self, relation: str) -> FrozenSet[Row]:
        """Storage-domain rows of ``relation`` at this version."""
        try:
            return self._rows[relation]
        except KeyError:
            raise KeyError(
                f"unknown relation {relation!r}; "
                f"available: {sorted(self._rows)}"
            ) from None

    def decoded_rows(self, relation: str) -> FrozenSet[Row]:
        """Rows of ``relation`` translated back into the raw value domain."""
        rows = self.rows_of(relation)
        if self.symbols.identity:
            return rows
        return frozenset(self.symbols.resolve_rows(rows))

    def cardinality(self, relation: str) -> int:
        return len(self.rows_of(relation))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        total = sum(len(rows) for rows in self._rows.values())
        return (
            f"StorageSnapshot(version={self.version}, "
            f"relations={len(self._rows)}, rows={total})"
        )


class OrderCarrier:
    """One result's seat at its relation's carried order.

    Handed to a :class:`~repro.api.result.QueryResult` by
    :meth:`SnapshotManager.order_carrier`; holds the manager, not a base,
    so an unordered result keeps no earlier version's rows alive.
    """

    __slots__ = ("_manager", "_relation", "_version")

    def __init__(self, manager: "SnapshotManager", relation: str,
                 version: int) -> None:
        self._manager = manager
        self._relation = relation
        self._version = version

    def base(self) -> Optional[Tuple[FrozenSet[Row], Tuple[Row, ...]]]:
        """``(row set, ordered rows)`` of the newest ordered version, if any."""
        held = self._manager._order_bases.get(self._relation)
        return None if held is None else held[1:]

    def built(self, rows: FrozenSet[Row], ordered: Optional[Tuple[Row, ...]],
              how: str, reason: Optional[str]) -> None:
        """Record one construction; ``ordered`` (unless None) is the next base."""
        self._manager._order_built(
            self._relation, self._version, rows, ordered, how, reason
        )


class SnapshotManager:
    """Publishes, pins and garbage-collects :class:`StorageSnapshot`s.

    One manager serves one :class:`StorageManager` (normally through an
    :class:`~repro.incremental.session.IncrementalSession` with snapshots
    enabled).  The writer calls :meth:`publish` after each committed batch;
    readers call :meth:`acquire`/:meth:`release` (or hold a pin through a
    :class:`~repro.api.result.QueryResult`).
    """

    def __init__(self, storage: StorageManager, metrics=None) -> None:
        self._storage = storage
        self._metrics = metrics
        self._lock = threading.Lock()
        self._snapshots: Dict[int, StorageSnapshot] = {}
        self._pins: Dict[int, int] = {}
        self._latest: Optional[StorageSnapshot] = None
        self._next_version = 0
        #: relation -> (version, row set, ordered rows): see "Carried order".
        self._order_bases: Dict[
            str, Tuple[int, FrozenSet[Row], Tuple[Row, ...]]
        ] = {}
        #: Lifetime counters (also surfaced through ``sys_server``).
        self.published = 0
        self.collected = 0
        #: Ordered views built, by how: ``merged`` from a base or ``sorted``
        #: cold (the typed reasons are in ``ordered_views_total``).
        self.ordered_views = {"merged": 0, "sorted": 0}

    # -- writer side -------------------------------------------------------------

    def publish(self) -> StorageSnapshot:
        """Freeze the storage's current Derived state as the next version.

        Must be called at a commit point (deltas clear, fixpoint reached) by
        the thread that owns the storage — normally the session's writer.
        Unchanged relations share their frozenset with the previous version
        (copy-on-write; see the module docstring).
        """
        storage = self._storage
        rows = {
            name: storage.frozen_rows(name)
            for name in storage.relation_names()
        }
        with self._lock:
            snapshot = StorageSnapshot(
                version=self._next_version,
                mutation_version=storage.mutation_version(),
                generations=storage.generations(),
                rows=rows,
                symbols=storage.symbols,
            )
            self._next_version += 1
            self._snapshots[snapshot.version] = snapshot
            self._latest = snapshot
            self.published += 1
            self._collect_locked()
        if self._metrics is not None:
            self._metrics.counter("snapshots_published_total").inc()
            self._metrics.gauge("snapshots_live").set(len(self._snapshots))
        return snapshot

    # -- reader side -------------------------------------------------------------

    def latest(self) -> StorageSnapshot:
        """The most recently published snapshot (no pin taken)."""
        latest = self._latest
        if latest is None:
            raise RuntimeError("no snapshot published yet")
        return latest

    def latest_version(self) -> Optional[int]:
        latest = self._latest
        return None if latest is None else latest.version

    def acquire(self) -> StorageSnapshot:
        """Pin and return the latest snapshot (pair with :meth:`release`)."""
        with self._lock:
            latest = self._latest
            if latest is None:
                raise RuntimeError("no snapshot published yet")
            self._pins[latest.version] = self._pins.get(latest.version, 0) + 1
            return latest

    def release(self, version: int) -> None:
        """Drop one pin on ``version``; collects unpinned old versions.

        Raises :class:`ValueError` when ``version`` has no outstanding pin
        — a double release or a never-acquired version.  Silently ignoring
        it was worse than the error: with *other* readers still pinning
        the version, a stray release decrements their refcount and lets GC
        collect a snapshot someone is actively reading from.  Callbacks
        handed out by :meth:`releaser` are fire-once, so well-behaved
        callers never see this raise.
        """
        with self._lock:
            count = self._pins.get(version)
            if count is None:
                if self._metrics is not None:
                    self._metrics.counter("snapshot_release_errors_total").inc()
                raise ValueError(
                    f"release of snapshot version {version} with no "
                    "outstanding pins (double release, or a version that "
                    "was never acquired)"
                )
            if count <= 1:
                del self._pins[version]
            else:
                self._pins[version] = count - 1
            self._collect_locked()

    def releaser(self, version: int) -> Callable[[], None]:
        """A zero-argument, fire-once release callback (the QueryResult
        finalizer).  Invocations after the first no-op (counted in the
        ``snapshot_double_release_total`` metric) instead of stealing a
        concurrent reader's pin on the same version."""
        guard = threading.Lock()
        state = {"fired": False}

        def _release() -> None:
            with guard:
                if state["fired"]:
                    if self._metrics is not None:
                        self._metrics.counter(
                            "snapshot_double_release_total"
                        ).inc()
                    return
                state["fired"] = True
            self.release(version)

        return _release

    # -- carried order -----------------------------------------------------------

    def order_carrier(self, relation: str, version: int) -> OrderCarrier:
        """The carrier a result of ``relation`` at ``version`` orders through."""
        return OrderCarrier(self, relation, version)

    def _order_built(self, relation: str, version: int,
                     rows: FrozenSet[Row],
                     ordered: Optional[Tuple[Row, ...]],
                     how: str, reason: Optional[str]) -> None:
        with self._lock:
            self.ordered_views[how] += 1
            held = self._order_bases.get(relation)
            # An old pin that orders late must not regress the base.
            if ordered is not None and (held is None or held[0] <= version):
                self._order_bases[relation] = (version, rows, ordered)
        if self._metrics is not None:
            labels = {"how": how}
            if reason is not None:
                labels["reason"] = reason
            self._metrics.counter("ordered_views_total", **labels).inc()

    # -- garbage collection ------------------------------------------------------

    def _collect_locked(self) -> int:
        latest = self._latest
        stale = [
            version for version in self._snapshots
            if version not in self._pins
            and (latest is None or version != latest.version)
        ]
        for version in stale:
            del self._snapshots[version]
        self.collected += len(stale)
        return len(stale)

    def collect(self) -> int:
        """Drop every version that is neither pinned nor latest."""
        with self._lock:
            dropped = self._collect_locked()
        if dropped and self._metrics is not None:
            self._metrics.gauge("snapshots_live").set(len(self._snapshots))
        return dropped

    # -- introspection -----------------------------------------------------------

    def live_versions(self) -> Tuple[int, ...]:
        with self._lock:
            return tuple(sorted(self._snapshots))

    def pin_count(self, version: Optional[int] = None) -> int:
        """Outstanding pins on ``version`` (or on every version summed)."""
        with self._lock:
            if version is not None:
                return self._pins.get(version, 0)
            return sum(self._pins.values())

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "live": len(self._snapshots),
                "pinned": sum(self._pins.values()),
                "published": self.published,
                "collected": self.collected,
                "ordered_merged": self.ordered_views["merged"],
                "ordered_sorted": self.ordered_views["sorted"],
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        latest = self.latest_version()
        return (
            f"SnapshotManager(latest={latest}, "
            f"live={len(self._snapshots)}, pins={sum(self._pins.values())})"
        )
