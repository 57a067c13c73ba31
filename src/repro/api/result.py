"""First-class query results: schema-carrying, ordered, lazily materialised.

:class:`QueryResult` replaces the raw ``set`` / ``dict`` / ``frozenset`` zoo
the engine, the incremental session and the parallel executor used to return.
One result object knows

* its **schema** (:class:`ResultSchema`: relation name, arity, column names),
* a **deterministic row order** (natural sort where the rows are comparable,
  a ``repr``-keyed total order otherwise — the same batch of rows always
  iterates identically, across runs and across execution modes),
* **lazy materialisation**: a result may be built from a thunk, in which case
  rows are fetched on first access; ordering happens only when an ordered
  view is actually requested (``count()``/``__contains__`` never sort) — and
  a snapshot result *derives* its order from the previous materialised
  version's instead of sorting, whenever one exists (see "Carried order"),
* **pagination** (:meth:`QueryResult.rows` with offset/limit,
  :meth:`QueryResult.take`), **columnar export**
  (:meth:`QueryResult.to_columns`, :meth:`QueryResult.to_dicts`) and
* :meth:`QueryResult.explain` — the plan and the adaptive join-order /
  code-generation decisions that produced the rows.

``QueryResult`` registers as :class:`collections.abc.Set`, so every set idiom
the old API supported keeps working: ``row in result``, ``len(result)``,
``result == {(1, 2)}``, ``result - other``, iteration.  Set operators return
plain ``set`` objects (a derived result has no single source relation).

:class:`ResultSet` is the multi-relation analogue — an immutable mapping of
relation name to :class:`QueryResult` — and compares equal to the plain
``Dict[str, Set[Row]]`` the legacy ``ExecutionEngine.run()`` returned.

Carried order
-------------

This module is the one place row order is computed.  A result built with an
``order`` carrier (the snapshot layer's per-relation seat, see
:mod:`repro.incremental.snapshots`) asks it for a *base* — the row set and
canonical order of the most recently ordered version of the relation — and
derives its own order from it: two set differences, one filtering pass, and
a binary-search merge of the (decoded-key-sorted) additions that decodes
only the probed rows.  The cost scales with what changed between the two
versions, not with the relation.  The cold build (a full sort by decoded
key) remains for the first read, for deltas past the measured crossover, for
incomparable keys (where only a full sort can decide between the natural
and the ``repr``-keyed order) and for identity-codec results; each
construction is reported to the carrier with how it was built and why.

Storage-domain pages
--------------------

The order is kept over *storage-domain* rows — id tuples when the result is
dictionary-encoded — and decoding is a per-consumer choice.  ``rows()`` /
iteration / the exports decode (a full view once, memoised in ``_decoded``);
:meth:`QueryResult.stored_rows` hands out a page of the ordered rows as
stored, together with :attr:`QueryResult.symbols`, for a consumer that has
its own per-symbol representation.  The query server is that consumer: it
turns ids into wire bytes through the symbol table's memo, so a served
result only ever holds its row set and its order — the decoded view is
never built on the served path.
"""

from __future__ import annotations

import weakref
from collections.abc import Mapping as MappingABC
from collections.abc import Set as SetABC
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.relational.relation import Row

#: A result's rows: either an already-materialised set or a thunk fetching one.
RowSource = Union[FrozenSet[Row], Iterable[Row], Callable[[], Iterable[Row]]]
#: Deferred plan/profile rendering, attached by whichever engine produced the rows.
ExplainFn = Callable[[], str]


def default_columns(arity: int) -> Tuple[str, ...]:
    """Positional column names (``c0`` … ``c{n-1}``) for undeclared schemas."""
    return tuple(f"c{i}" for i in range(arity))


@dataclass(frozen=True)
class ResultSchema:
    """The shape of one relation's rows: name, arity, column names."""

    relation: str
    arity: int
    columns: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != self.arity:
            raise ValueError(
                f"schema for {self.relation!r} declares {len(self.columns)} "
                f"column names for arity {self.arity}"
            )

    @staticmethod
    def of(relation: str, arity: int,
           columns: Optional[Iterable[str]] = None) -> "ResultSchema":
        """Build a schema, generating positional column names when undeclared."""
        names = tuple(columns) if columns is not None else default_columns(arity)
        return ResultSchema(relation=relation, arity=arity, columns=names)


#: Largest delta (added + removed rows, as a share of the new row count) a
#: view is still derived across.  The merge costs ~3.2 us per added row
#: (log2(n) probe decodes) and one cheap pass when anything was removed; the
#: cold sort ~0.53 us per row of the relation.  Measured on the 62 842-row
#: ``path`` closure the two cross at a delta of ~n/6 when it is all additions
#: (8 000 added: 29 vs 37 ms; 12 000: 39 vs 40; 14 000: 45 vs 40) and, for
#: wholesale removals, once the base is ~7x the surviving rows (60 000
#: removed, 2 842 left: 4.3 vs 1.0 ms).  n/8 is on the winning side of both.
_MERGE_MAX_DELTA_SHARE = 0.125


def _freeze(rows: Iterable[Row]) -> FrozenSet[Row]:
    """``rows`` as the result's immutable row set.

    Row *sets* are trusted — storage rows are tuples by invariant — so a
    frozenset (the session result cache's, a snapshot's) is adopted as-is
    and a set (``StorageManager.tuples``) frozen without a per-row pass:
    no per-query re-tupling of a potentially huge result.  Any other
    iterable may yield lists and is re-tupled.
    """
    if isinstance(rows, frozenset):
        return rows
    if isinstance(rows, set):
        return frozenset(rows)
    return frozenset(tuple(row) for row in rows)


def ordered_rows(rows: Iterable[Row]) -> Tuple[Row, ...]:
    """Rows in the canonical deterministic order.

    Natural tuple ordering when every row is mutually comparable; otherwise
    (mixed int/str columns) the ``repr``-keyed total order used throughout
    the code base.  Both are stable across runs and execution modes.
    """
    return _sort_rows(rows)[0]


def _sort_rows(rows: Iterable[Row],
               key: Optional[Callable[[Row], Row]] = None
               ) -> Tuple[Tuple[Row, ...], bool]:
    """The cold build: ``(ordered, natural)`` by a full sort under ``key``.

    ``natural`` is False when the keys were incomparable and the
    ``repr``-keyed order decided instead.
    """
    try:
        return tuple(sorted(rows, key=key)), True
    except TypeError:
        by_repr = repr if key is None else (lambda row: repr(key(row)))
        return tuple(sorted(rows, key=by_repr)), False


def _merge_ordered(kept: Sequence[Row], additions: List[Row],
                   key: Callable[[Row], Row]) -> Tuple[Row, ...]:
    """Merge key-sorted ``additions`` into key-sorted ``kept``.

    A hand-rolled bisect (``bisect(key=)`` is Python 3.10+) that decodes
    only the rows it probes.  Each addition resumes where the previous one
    landed, and the output is assembled from slices of ``kept``, so the
    cost is ``len(additions) * log2(len(kept))`` decodes plus one copy.
    Raises ``TypeError`` when an addition is incomparable with a row it
    must be ordered against.
    """
    out: List[Row] = []
    size = len(kept)
    lo = 0
    for row in additions:
        probe = key(row)
        start, hi = lo, size
        while lo < hi:
            mid = (lo + hi) >> 1
            if probe < key(kept[mid]):
                hi = mid
            else:
                lo = mid + 1
        out += kept[start:lo]
        out.append(row)
    out += kept[lo:]
    return tuple(out)


def _derive_order(
    rows: FrozenSet[Row],
    base: Optional[Tuple[FrozenSet[Row], Tuple[Row, ...]]],
    key: Optional[Callable[[Row], Row]],
) -> Tuple[Optional[Tuple[Row, ...]], Optional[str]]:
    """``rows`` ordered by derivation from ``base`` — or why not.

    ``(ordered, None)`` on success; ``(None, reason)`` when the caller must
    build cold, with ``reason`` the typed cause reported to the carrier.

    The result is the order a full sort would produce, bit for bit.  Decoded
    keys of distinct rows are distinct, so a natural order is unique; and
    the merge cannot quietly succeed where a full sort would have raised
    ``TypeError`` (and fallen back to the ``repr``-keyed order): every
    adjacent pair of its output was either adjacent-or-ordered in the base
    (itself a completed natural sort) or directly compared here, and a set
    of rows sorts without error exactly when such a chain of successful
    adjacent comparisons exists.  Any ``TypeError`` here hands over to the
    cold build, which decides between the two orders as it always did.
    """
    if key is None:
        return None, "identity-codec"
    if base is None:
        return None, "no-base"
    base_rows, base_ordered = base
    if rows is base_rows:  # republished, unchanged since the base
        return base_ordered, None
    added = rows - base_rows
    removed = base_rows - rows
    if len(added) + len(removed) > _MERGE_MAX_DELTA_SHARE * len(rows):
        return None, "delta-too-large"
    kept: Sequence[Row] = base_ordered
    if removed:
        kept = [row for row in base_ordered if row not in removed]
    if not added:
        return tuple(kept), None
    try:
        return _merge_ordered(kept, sorted(added, key=key), key), None
    except TypeError:
        return None, "incomparable-keys"


def _window(offset: int, limit: Optional[int]) -> slice:
    """The slice one ``offset``/``limit`` page takes of an ordered view."""
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    return slice(offset, None if limit is None else offset + limit)


class QueryResult(SetABC):
    """The rows of one relation at one point in time, with schema and plan.

    Results are immutable snapshots: mutating the session or database that
    produced one does not change it.  Construction is cheap — when built
    from a thunk the rows are fetched on first access, and the deterministic
    sort happens only when an ordered view (iteration, :meth:`rows`,
    :meth:`take`, exports) is requested.
    """

    __slots__ = ("_schema", "_frozen", "_thunk", "_sorted", "_decoded",
                 "_explain_fn", "_symbols", "_trace_fn", "_version",
                 "_finalizer", "_order", "__weakref__")

    def __init__(self, schema: ResultSchema, rows: RowSource,
                 explain: Optional[ExplainFn] = None, symbols=None,
                 trace: Optional[Callable[[], Any]] = None,
                 version: Optional[int] = None,
                 on_release: Optional[Callable[[], None]] = None,
                 order=None) -> None:
        """``symbols`` marks ``rows`` as dictionary-encoded.

        When a (non-identity) symbol table is attached, the result holds
        the storage-domain int tuples — one copy of each string lives in
        the table, not one per row — and decoding happens here, at the
        boundary: ordering sorts by decoded keys, bounded pages decode as
        they are read, full views decode once and are memoised (repeat
        iteration/export reuses the decoded rows), and membership probes
        encode the probe instead of decoding the set.

        ``version``/``on_release`` tie the result to an MVCC snapshot
        (:mod:`repro.incremental.snapshots`): the result pins the committed
        version it was computed against, and ``on_release`` — registered as
        a weakref finalizer — unpins it when the result is released or
        garbage-collected, whichever comes first.

        ``order`` is the snapshot layer's carrier for this relation's
        canonical order (:class:`~repro.incremental.snapshots.OrderCarrier`):
        ``order.base()`` yields the ``(row set, ordered rows)`` of the most
        recently ordered version, or ``None``; ``order.built(rows, ordered,
        how, reason)`` reports every construction (``ordered`` is ``None``
        when the view is not fit to derive from).
        """
        self._schema = schema
        self._frozen: Optional[FrozenSet[Row]] = None
        self._thunk: Optional[Callable[[], Iterable[Row]]] = None
        if symbols is not None and getattr(symbols, "identity", False):
            symbols = None
        self._symbols = symbols
        if callable(rows):
            self._thunk = rows
        else:
            self._frozen = _freeze(rows)
        self._sorted: Optional[Tuple[Row, ...]] = None
        self._decoded: Optional[Tuple[Row, ...]] = None
        self._explain_fn = explain
        self._trace_fn = trace
        self._version = version
        self._order = order
        self._finalizer = (
            weakref.finalize(self, on_release) if on_release is not None else None
        )

    # -- schema ----------------------------------------------------------------

    @property
    def schema(self) -> ResultSchema:
        return self._schema

    @property
    def relation(self) -> str:
        return self._schema.relation

    @property
    def columns(self) -> Tuple[str, ...]:
        return self._schema.columns

    # -- materialisation -------------------------------------------------------

    def _materialise(self) -> FrozenSet[Row]:
        if self._frozen is None:
            assert self._thunk is not None
            self._frozen = _freeze(self._thunk())
            self._thunk = None
        return self._frozen

    def _ordered(self) -> Tuple[Row, ...]:
        """Storage-domain rows in canonical order (sorted by decoded key).

        Derived from the carrier's base when there is one, built cold
        otherwise.  Computed into locals and published by one assignment:
        reader-pool threads page a result the event loop is paging too, and
        a racing duplicate build yields an equal tuple.
        """
        ordered = self._sorted
        if ordered is None:
            rows = self._materialise()
            order = self._order
            base = None if order is None else order.base()
            key = self._decode_key()
            ordered, reason = _derive_order(rows, base, key)
            if ordered is not None:
                how, carry = "merged", ordered
            else:
                how = "sorted"
                ordered, natural = _sort_rows(rows, key)
                # Only a decoded-key-ordered view can be derived from: a
                # ``repr``-keyed one says nothing about that order, and
                # identity-codec results always build cold.
                carry = ordered if natural and key is not None else None
            if order is not None:
                order.built(rows, carry, how, reason)
            self._sorted = ordered
        return ordered

    def _decode_key(self) -> Optional[Callable[[Row], Row]]:
        """The ordering key: the decoded row (``None`` when not encoded)."""
        if self._symbols is None:
            return None
        return self._symbols.row_key(self._schema.arity)

    def _decode_page(self, rows: Iterable[Row]) -> Iterator[Row]:
        """Decode one page of ordered rows (identity when not encoded)."""
        if self._symbols is None:
            return iter(rows)
        return iter(self._symbols.resolve_rows(rows))

    def _decoded_ordered(self) -> Tuple[Row, ...]:
        """All rows decoded, in canonical order — decoded at most once.

        The memo behind every full view (iteration, ``to_list``/
        ``to_dicts``/``to_columns``): repeat accesses reuse the decoded
        tuple instead of re-resolving every row through the symbol table.
        """
        if self._decoded is None:
            if self._symbols is None:
                self._decoded = self._ordered()
            else:
                self._decoded = tuple(self._symbols.resolve_rows(self._ordered()))
        return self._decoded

    # -- set protocol ----------------------------------------------------------

    def __contains__(self, row: object) -> bool:
        try:
            candidate = tuple(row)  # type: ignore[arg-type]
        except TypeError:
            return False
        if self._symbols is not None:
            # Encode the probe (no decode of the whole set); a value the
            # table has never seen cannot occur in any stored row.
            encoded = self._symbols.lookup_row(candidate)
            return encoded is not None and encoded in self._materialise()
        return candidate in self._materialise()

    def __iter__(self) -> Iterator[Row]:
        return iter(self._decoded_ordered())

    def __len__(self) -> int:
        return len(self._materialise())

    def __bool__(self) -> bool:
        return bool(self._materialise())

    @classmethod
    def _from_iterable(cls, iterable: Iterable[Row]) -> set:
        # Set operators (|, &, -, ^) produce plain sets: a derived row set
        # has no single source relation, hence no schema to carry.
        return set(iterable)

    __hash__ = SetABC._hash  # results are immutable snapshots

    # -- row access ------------------------------------------------------------

    def count(self) -> int:
        """Number of rows (no ordering cost)."""
        return len(self._materialise())

    def rows(self, offset: int = 0,
             limit: Optional[int] = None) -> Iterator[Row]:
        """Iterate rows in deterministic order, with offset/limit pagination."""
        window = _window(offset, limit)
        if self._decoded is not None or (offset == 0 and limit is None):
            return iter(self._decoded_ordered()[window])
        return self._decode_page(self._ordered()[window])

    @property
    def symbols(self):
        """The table the rows are encoded against; ``None`` for raw values."""
        return self._symbols

    def stored_rows(self, offset: int = 0,
                    limit: Optional[int] = None) -> Tuple[Row, ...]:
        """One page of *storage-domain* rows in deterministic order.

        Id tuples when :attr:`symbols` is set, the values themselves
        otherwise.  Nothing is decoded and nothing but the order is
        memoised: a consumer with its own per-symbol representation (the
        query server's wire fragments) reads a relation without this
        result ever building the decoded view.
        """
        window = _window(offset, limit)
        return self._ordered()[window]

    def take(self, n: int) -> List[Row]:
        """The first ``n`` rows in deterministic order."""
        return list(self.rows(limit=n))

    def first(self) -> Optional[Row]:
        """The first row in deterministic order, or ``None`` when empty."""
        ordered = self._ordered()
        if not ordered:
            return None
        return next(self._decode_page(ordered[:1]))

    # -- exports ---------------------------------------------------------------

    def to_set(self) -> set:
        if self._symbols is not None:
            if self._decoded is not None:
                return set(self._decoded)
            return set(self._symbols.resolve_rows(self._materialise()))
        return set(self._materialise())

    def to_frozenset(self) -> FrozenSet[Row]:
        if self._symbols is not None:
            if self._decoded is not None:
                return frozenset(self._decoded)
            return frozenset(self._symbols.resolve_rows(self._materialise()))
        return self._materialise()

    def to_list(self) -> List[Row]:
        """All rows as a list, in deterministic order."""
        return list(self._decoded_ordered())

    def to_columns(self) -> Dict[str, List[Any]]:
        """Columnar export: column name -> value vector (rows in order)."""
        ordered = self._decoded_ordered()
        return {
            name: [row[i] for row in ordered]
            for i, name in enumerate(self._schema.columns)
        }

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Row-wise export: one ``{column: value}`` dict per row, in order."""
        columns = self._schema.columns
        return [dict(zip(columns, row)) for row in self._decoded_ordered()]

    # -- snapshot pinning --------------------------------------------------------

    @property
    def snapshot_version(self) -> Optional[int]:
        """The committed MVCC version this result was computed against.

        ``None`` for results produced outside a snapshot-serving context
        (embedded sessions, one-shot evaluations).
        """
        return self._version

    def release(self) -> None:
        """Drop this result's snapshot pin (idempotent; GC does it too).

        The rows stay readable — they are immutable and already held by
        this object — but the engine may now garbage-collect the pinned
        storage version if no other reader holds it.
        """
        if self._finalizer is not None:
            self._finalizer()

    # -- provenance ------------------------------------------------------------

    def explain(self) -> str:
        """The plan and adaptive decisions behind this result.

        Covers the evaluated IR tree and, when the producing engine recorded
        them, the runtime join-order reorderings and code-generation events —
        the adaptive-metaprogramming choices the paper studies.
        """
        if self._explain_fn is None:
            return (
                f"-- {self._schema.relation} ({self.count()} rows): "
                "no execution profile attached"
            )
        return self._explain_fn()

    def trace(self):
        """The :class:`~repro.telemetry.Trace` of the producing evaluation.

        ``None`` unless the producing database/session ran with tracing
        enabled (``EngineConfig.with_(telemetry=...)``); resolved lazily so
        results handed out before the root span closes still see the
        finished trace.
        """
        if self._trace_fn is None:
            return None
        return self._trace_fn()

    def __repr__(self) -> str:
        preview = ", ".join(repr(row) for row in self.take(3))
        suffix = ", ..." if self.count() > 3 else ""
        return (
            f"QueryResult({self._schema.relation!r}, {self.count()} rows"
            + (f": {preview}{suffix}" if preview else "")
            + ")"
        )


class ResultSet(MappingABC):
    """An immutable mapping of relation name -> :class:`QueryResult`.

    Compares equal to the plain ``{relation: set(rows)}`` dictionaries the
    legacy API returned, preserves the producing engine's relation order,
    and carries one whole-program :meth:`explain`.
    """

    __slots__ = ("_results", "_explain_fn", "_trace_fn")

    def __init__(self, results: Mapping[str, QueryResult],
                 explain: Optional[ExplainFn] = None,
                 trace: Optional[Callable[[], Any]] = None) -> None:
        self._results: Dict[str, QueryResult] = dict(results)
        self._explain_fn = explain
        self._trace_fn = trace

    def __getitem__(self, relation: str) -> QueryResult:
        try:
            return self._results[relation]
        except KeyError:
            raise KeyError(
                f"no result for relation {relation!r}; "
                f"available: {sorted(self._results)}"
            ) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._results)

    def __len__(self) -> int:
        return len(self._results)

    def relations(self) -> Tuple[str, ...]:
        return tuple(self._results)

    def total_rows(self) -> int:
        return sum(result.count() for result in self._results.values())

    def to_sets(self) -> Dict[str, set]:
        """The legacy shape: a fresh ``{relation: set(rows)}`` dictionary."""
        return {name: result.to_set() for name, result in self._results.items()}

    def explain(self) -> str:
        if self._explain_fn is None:
            return "-- no execution profile attached"
        return self._explain_fn()

    def trace(self):
        """The evaluation's :class:`~repro.telemetry.Trace` (None untraced)."""
        if self._trace_fn is None:
            return None
        return self._trace_fn()

    def __repr__(self) -> str:
        body = ", ".join(
            f"{name}: {result.count()}" for name, result in self._results.items()
        )
        return f"ResultSet({{{body}}})"
