"""In-memory relations and per-column hash indexes.

A :class:`Relation` stores a set of fixed-arity tuples.  Indexes are built
per column (the paper's policy is "one index per filter or join predicate",
§IV) and maintained incrementally on insert so that they can be created
before execution starts and stay valid across semi-naive iterations.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

Row = Tuple[Any, ...]


class HashIndex:
    """A hash index over one column of a relation.

    Maps each distinct value in the indexed column to the list of rows having
    that value.  Lists (not sets) keep memory overhead low; duplicates cannot
    occur because the owning relation already de-duplicates rows.
    """

    __slots__ = ("column", "_buckets")

    def __init__(self, column: int) -> None:
        self.column = column
        self._buckets: Dict[Any, List[Row]] = {}

    def insert(self, row: Row) -> None:
        self._buckets.setdefault(row[self.column], []).append(row)

    def insert_many(self, rows: Iterable[Row]) -> None:
        """Bulk insert: one inlined loop instead of a method call per row.

        The batch maintenance path of :meth:`Relation.absorb_set` — promotion
        and scatter batches touch every index once per batch, not per row.
        """
        buckets = self._buckets
        column = self.column
        setdefault = buckets.setdefault
        for row in rows:
            setdefault(row[column], []).append(row)

    def buckets(self) -> Dict[Any, List[Row]]:
        """The live value -> rows mapping (read-only for callers).

        Exposed so the vectorized batch join can probe distinct keys with
        plain dict lookups instead of two method dispatches per key.
        """
        return self._buckets

    def remove(self, row: Row) -> bool:
        """Remove one row from its bucket; returns True if it was present.

        Retraction support: buckets are lists, so removal is linear in the
        bucket size — acceptable because retractions only touch the buckets of
        the retracted rows, never the whole index.
        """
        bucket = self._buckets.get(row[self.column])
        if bucket is None:
            return False
        try:
            bucket.remove(row)
        except ValueError:
            return False
        if not bucket:
            del self._buckets[row[self.column]]
        return True

    def lookup(self, value: Any) -> Sequence[Row]:
        """Rows whose indexed column equals ``value`` (possibly empty)."""
        return self._buckets.get(value, ())

    def clear(self) -> None:
        self._buckets.clear()

    def distinct_values(self) -> int:
        return len(self._buckets)

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"HashIndex(column={self.column}, values={len(self._buckets)})"


class Relation:
    """A named, fixed-arity set of tuples with optional per-column indexes."""

    __slots__ = ("name", "arity", "_rows", "_indexes", "_lazy_columns")

    def __init__(self, name: str, arity: int) -> None:
        self.name = name
        self.arity = arity
        self._rows: Set[Row] = set()
        self._indexes: Dict[int, HashIndex] = {}
        # Columns registered with build_index(lazy=True): the index is only
        # materialised on first probe, and demoted again on clear() — so a
        # copy that is never probed (delta buffers under the vectorized
        # executor) pays zero maintenance per insert.
        self._lazy_columns: Set[int] = set()

    # -- mutation --------------------------------------------------------------

    def insert(self, row: Sequence[Any]) -> bool:
        """Insert a row; returns True if it was new."""
        row_tuple = tuple(row)
        if len(row_tuple) != self.arity:
            raise ValueError(
                f"relation {self.name!r} has arity {self.arity}, got row {row_tuple!r}"
            )
        if row_tuple in self._rows:
            return False
        self._rows.add(row_tuple)
        for index in self._indexes.values():
            index.insert(row_tuple)
        return True

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Insert many rows; returns the number of new rows.

        When every row is already a tuple of the right arity — the common
        case: promotion batches and scatter/merge traffic read rows out of
        other relations — the batch takes the :meth:`absorb_set` fast path
        (one C-level set difference instead of one Python call per row).
        Anything else (lists, wrong arity) falls back to per-row
        :meth:`insert`, preserving its validation errors.
        """
        arity = self.arity
        materialised = (
            rows if isinstance(rows, (set, frozenset, list, tuple)) else list(rows)
        )
        if all(
            isinstance(row, tuple) and len(row) == arity for row in materialised
        ):
            return self.absorb_set(materialised)
        inserted = 0
        for row in materialised:
            if self.insert(row):
                inserted += 1
        return inserted

    def absorb_set(self, rows: Iterable[Row]) -> int:
        """Bulk-insert already-tupled rows via set arithmetic.

        The fast path for the shard-parallel scatter/merge steps, which move
        tens of thousands of rows at once: the membership filtering happens
        in one C-level set difference instead of one Python call per row.
        Rows must already be tuples of the right arity — callers own that
        invariant (they read the rows out of another relation).
        """
        if not isinstance(rows, (set, frozenset)):
            rows = set(rows)
        new_rows = rows - self._rows
        if not new_rows:
            return 0
        self._rows |= new_rows
        for index in self._indexes.values():
            index.insert_many(new_rows)
        return len(new_rows)

    def replace_rows(self, rows: Set[Row]) -> None:
        """Install ``rows`` as the entire contents, **taking ownership**.

        The checkpoint-install fast path: the caller hands over a freshly
        built set (recovery discards its copy), so replacement is one
        reference assignment instead of absorb_set's diff + union over
        tens of thousands of rows.  Non-lazy indexes are rebuilt; lazy
        ones are demoted exactly as :meth:`clear` does.
        """
        self._rows = rows
        for column in [c for c in self._indexes if c in self._lazy_columns]:
            del self._indexes[column]
        for index in self._indexes.values():
            index.clear()
            index.insert_many(rows)

    def discard(self, row: Sequence[Any]) -> bool:
        """Remove a row, maintaining every index; returns True if present."""
        row_tuple = tuple(row)
        if row_tuple not in self._rows:
            return False
        self._rows.discard(row_tuple)
        for index in self._indexes.values():
            index.remove(row_tuple)
        return True

    def discard_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Remove many rows; returns the number actually removed."""
        removed = 0
        for row in rows:
            if self.discard(row):
                removed += 1
        return removed

    def clear(self) -> None:
        """Remove all rows (indexes are kept but emptied; lazy ones demoted)."""
        self._rows.clear()
        for column in [c for c in self._indexes if c in self._lazy_columns]:
            del self._indexes[column]
        for index in self._indexes.values():
            index.clear()

    # -- indexes ---------------------------------------------------------------

    def build_index(self, column: int, lazy: bool = False) -> Optional[HashIndex]:
        """Create (or fetch) the index on ``column`` and populate it.

        ``lazy=True`` only *registers* the column (returning None when not
        yet materialised): the index springs into existence on the first
        probe that needs it and is demoted again by :meth:`clear`.  Made for
        the delta buffers — rewritten wholesale every iteration, probed only
        by some plan shapes — where eager maintenance is pure overhead.
        """
        if column < 0 or column >= self.arity:
            raise ValueError(
                f"cannot index column {column} of {self.name!r} (arity {self.arity})"
            )
        existing = self._indexes.get(column)
        if existing is not None:
            return existing
        if lazy:
            self._lazy_columns.add(column)
            return None
        return self._materialise_index(column)

    def _materialise_index(self, column: int) -> HashIndex:
        index = HashIndex(column)
        index.insert_many(self._rows)
        self._indexes[column] = index
        return index

    def _index_for(self, column: int) -> Optional[HashIndex]:
        """The usable index on ``column``, materialising a lazy one."""
        index = self._indexes.get(column)
        if index is None and column in self._lazy_columns:
            index = self._materialise_index(column)
        return index

    def index_buckets(self, column: int) -> Optional[Dict[Any, List[Row]]]:
        """The index's value -> rows mapping, or None when unindexed.

        Deliberately does *not* materialise lazy indexes: batch joins that
        find no live index build their own per-batch table instead, which
        does not have to be maintained afterwards.
        """
        index = self._indexes.get(column)
        return None if index is None else index.buckets()

    def drop_indexes(self) -> None:
        self._indexes.clear()
        self._lazy_columns.clear()

    def has_index(self, column: int) -> bool:
        """Whether ``column`` carries an index (materialised or lazy)."""
        return column in self._indexes or column in self._lazy_columns

    def indexed_columns(self) -> Tuple[int, ...]:
        return tuple(sorted(self._indexes))

    # -- access ----------------------------------------------------------------

    def __contains__(self, row: Sequence[Any]) -> bool:
        return tuple(row) in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def rows(self) -> Set[Row]:
        """The underlying row set (do not mutate)."""
        return self._rows

    def scan(self) -> Iterator[Row]:
        """Full scan."""
        return iter(self._rows)

    def lookup(self, column: int, value: Any) -> Iterable[Row]:
        """Rows with ``row[column] == value``, via index when available."""
        index = self._index_for(column)
        if index is not None:
            return index.lookup(value)
        return (row for row in self._rows if row[column] == value)

    def probe(self, constraints: Dict[int, Any]) -> Iterable[Row]:
        """Rows satisfying all ``column == value`` constraints.

        Picks the indexed constraint with the fewest matching rows as the
        access path, then filters the remaining constraints; falls back to a
        scan-and-filter when no constrained column is indexed.  Constraints
        on every column name one row: that is a membership test.
        """
        if not constraints:
            return iter(self._rows)
        if len(constraints) == self.arity:
            row = tuple(constraints[column] for column in range(self.arity))
            return (row,) if row in self._rows else ()
        best_column: Optional[int] = None
        best_count: Optional[int] = None
        for column in constraints:
            index = self._index_for(column)
            if index is None:
                continue
            count = len(index.lookup(constraints[column]))
            if best_count is None or count < best_count:
                best_count = count
                best_column = column
        if best_column is None:
            return (
                row
                for row in self._rows
                if all(row[c] == v for c, v in constraints.items())
            )
        candidates = self._indexes[best_column].lookup(constraints[best_column])
        remaining = {c: v for c, v in constraints.items() if c != best_column}
        if not remaining:
            return iter(candidates)
        return (
            row
            for row in candidates
            if all(row[c] == v for c, v in remaining.items())
        )

    # -- set operations used by the storage manager ----------------------------

    def absorb(self, other: "Relation") -> int:
        """Insert every row of ``other``; returns the number of new rows.

        Goes straight to :meth:`absorb_set`: rows read out of another
        relation are tuples of the right arity by construction.
        """
        return self.absorb_set(other.rows())

    def difference_into(self, other: "Relation", target: "Relation") -> int:
        """Write ``self - other`` into ``target``; returns the number written."""
        count = 0
        for row in self._rows:
            if row not in other and target.insert(row):
                count += 1
        return count

    def copy(self, name: Optional[str] = None) -> "Relation":
        clone = Relation(name or self.name, self.arity)
        clone._rows = set(self._rows)
        clone._lazy_columns = set(self._lazy_columns)
        for column in self._indexes:
            clone.build_index(column)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Relation({self.name!r}, arity={self.arity}, rows={len(self._rows)})"
