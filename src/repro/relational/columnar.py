"""Columnar batches: the interchange format of the storage plumbing.

A :class:`ColumnarBlock` is an ordered batch of variable bindings: one named
column per variable, all columns the same length.  The storage-layer
consumers (shard scatter, delta propagation) move row batches around in
this form.  The block executor's kernels do not: which variable each
column holds is fixed when a plan is lowered, so they pass bare row lists
(see :mod:`repro.relational.operators`).

Blocks deliberately keep **two** physical layouts and convert lazily:

* **column-major** (``columns``): per-column tuples, the shape key
  extraction and the scatter/partition helpers want;
* **row-major** (``rows()``): a list of plain value tuples.

Both conversions are single ``zip(*...)`` calls, so a block that is built
row-major by one producer and read column-major by the next pays one
C-level transpose instead of a Python-level loop.
"""

from __future__ import annotations

from array import array
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.datalog.terms import Variable
from repro.relational.relation import Relation, Row


class ColumnarBlock:
    """An ordered batch of bindings: one column per variable, equal lengths."""

    __slots__ = ("variables", "_slots", "_columns", "_column_cache", "_rows", "_length")

    def __init__(
        self,
        variables: Sequence[Variable],
        columns: Optional[Sequence[Sequence[Any]]] = None,
        rows: Optional[List[Row]] = None,
        length: Optional[int] = None,
    ) -> None:
        self.variables: Tuple[Variable, ...] = tuple(variables)
        self._slots: Dict[Variable, int] = {
            variable: i for i, variable in enumerate(self.variables)
        }
        self._columns: Optional[Tuple[Tuple[Any, ...], ...]] = None
        self._column_cache: Dict[int, Tuple[Any, ...]] = {}
        self._rows: Optional[List[Row]] = rows
        if columns is not None:
            self._columns = tuple(tuple(column) for column in columns)
            if len(self._columns) != len(self.variables):
                raise ValueError(
                    f"{len(self.variables)} variables but {len(self._columns)} columns"
                )
            lengths = {len(column) for column in self._columns}
            if len(lengths) > 1:
                raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
            self._length = next(iter(lengths)) if lengths else (length or 0)
        elif rows is not None:
            self._length = len(rows)
        else:
            self._length = length or 0

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_rows(cls, variables: Sequence[Variable],
                  rows: Iterable[Sequence[Any]]) -> "ColumnarBlock":
        return cls(variables, rows=[tuple(row) for row in rows])

    @classmethod
    def from_columns(cls, variables: Sequence[Variable],
                     columns: Sequence[Sequence[Any]]) -> "ColumnarBlock":
        return cls(variables, columns=columns)

    @classmethod
    def from_relation(cls, relation: Relation) -> "ColumnarBlock":
        """A block over a whole relation, with positional column variables.

        The bridge the storage-layer consumers (shard scatter, delta
        propagation) use to move row batches around in block form.
        """
        variables = tuple(Variable(f"c{i}") for i in range(relation.arity))
        return cls(variables, rows=list(relation.rows()))

    @classmethod
    def from_packed(cls, variables: Sequence[Variable],
                    columns: Sequence["array"]) -> "ColumnarBlock":
        """A block over pre-packed ``array('q')`` integer columns.

        The constructor counterpart of :meth:`packed_column`: under symbol
        interning every cell is a dense int, so a column packs into a
        machine-word array — 8 bytes per cell instead of a pointer to a
        boxed object.  The arrays are adopted as the block's column-major
        layout directly (they support the same iteration/indexing the tuple
        columns do); row-major views materialise lazily as usual.  Engine
        blocks are built row-major today and pack key columns on demand
        (:meth:`partition`); this entry point is for consumers that already
        hold packed columns, e.g. a compact off-process interchange.
        """
        packed = tuple(
            column if isinstance(column, array) else array("q", column)
            for column in columns
        )
        block = cls(variables, length=len(packed[0]) if packed else 0)
        if packed:
            lengths = {len(column) for column in packed}
            if len(lengths) > 1:
                raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        if len(packed) != len(block.variables):
            raise ValueError(
                f"{len(block.variables)} variables but {len(packed)} columns"
            )
        block._columns = packed  # type: ignore[assignment]
        return block

    # -- shape -------------------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    # -- layouts (lazily materialised, each computed at most once) ----------------

    @property
    def columns(self) -> Tuple[Tuple[Any, ...], ...]:
        """Column-major view: per-column value tuples (one C-level transpose)."""
        if self._columns is None:
            if self._length == 0 or not self.variables:
                self._columns = ((),) * len(self.variables)
            else:
                assert self._rows is not None
                self._columns = tuple(zip(*self._rows))
        return self._columns

    def column(self, variable: Variable) -> Tuple[Any, ...]:
        return self.column_at(self._slots[variable])

    def column_at(self, slot: int) -> Tuple[Any, ...]:
        """One column's values, without transposing the whole block.

        Row-major blocks extract (and cache) single columns on demand — the
        batch join usually needs only its key column, so paying for a full
        transpose per join would waste most of it.
        """
        if self._columns is not None:
            return self._columns[slot]
        cached = self._column_cache.get(slot)
        if cached is None:
            assert self._rows is not None
            cached = tuple(map(itemgetter(slot), self._rows))
            self._column_cache[slot] = cached
        return cached

    def rows(self) -> List[Row]:
        """Row-major view: a list of value tuples (one C-level transpose)."""
        if self._rows is None:
            if self._length == 0:
                self._rows = []
            elif not self.variables:
                self._rows = [()] * self._length
            else:
                self._rows = list(zip(*self._columns))  # type: ignore[arg-type]
        return self._rows

    # -- derived blocks ------------------------------------------------------------

    def to_columns(self) -> Dict[Variable, Tuple[Any, ...]]:
        """Export: variable -> column tuple (consumed by storage plumbing)."""
        return dict(zip(self.variables, self.columns))

    def packed_column(self, slot: int) -> "array":
        """One column as a machine-word ``array('q')``.

        Only valid when every cell is an int — always true for
        dictionary-encoded blocks, where cells are dense symbol ids.  Raises
        ``TypeError``/``OverflowError`` otherwise (callers fall back to the
        boxed tuple layout).
        """
        column = self.column_at(slot)
        return column if isinstance(column, array) else array("q", column)

    def partition(self, slot: int, shards: int, hash_fn=hash) -> List[List[Row]]:
        """Split rows into per-shard buckets by hash of one column.

        ``hash_fn`` is injected by the caller (the parallel layer passes its
        ``stable_hash``) so bucket assignment matches
        :meth:`repro.parallel.partition.PartitionSpec.split` exactly — blocks
        flow straight into the scatter step.

        Dictionary-encoded fast path: when the key column is all ints (one
        C-level ``array('q')`` probe) and ``hash_fn`` agrees with the
        builtin hash on ints (``hash`` itself, or marked
        ``int_compatible`` like the partitioner's ``stable_hash``), the
        owner split runs over ``map(hash, column)`` — no per-value Python
        dispatch into the hash function.
        """
        buckets: List[List[Row]] = [[] for _ in range(shards)]
        column = self.column_at(slot)
        rows = self.rows()
        if hash_fn is hash or getattr(hash_fn, "int_compatible", False):
            try:
                packed = self.packed_column(slot)
            except (TypeError, OverflowError, ValueError):
                pass
            else:
                for value, row in zip(map(hash, packed), rows):
                    buckets[value % shards].append(row)
                return buckets
        for value, row in zip(column, rows):
            buckets[hash_fn(value) % shards].append(row)
        return buckets

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        names = ", ".join(v.name for v in self.variables)
        return f"ColumnarBlock([{names}], rows={self._length})"
