"""Global symbol interning: one dense integer id per distinct constant.

Dictionary encoding is the storage trick every production Datalog engine
(Soufflé and friends) leans on: intern each constant **once** into a dense
``0..N-1`` integer domain and run the entire fixpoint — hash-join
build/probe, delta dedup, index maintenance — over
machine-word tuples.  Strings, composite keys and floats are hashed and
compared exactly once, at interning time; every later touch is an int.

Two codecs implement the same tiny protocol:

* :class:`SymbolTable` — the real thing: an append-only value ↔ id bijection.
  Ids are allocated densely in first-seen order, so the id space doubles as
  an index into the value list and decoding is one C-level list subscript.
  Interning is keyed by the value itself (plain ``dict`` lookup), so the
  encoding **preserves Python set semantics exactly**: values that compare
  equal (``1 == 1.0 == True``) share one id, exactly as a raw ``set`` of
  rows collapses them, so decoded results equal the un-encoded engine's
  under ``==`` — same rows, same cardinalities, same joins.  The one
  observable difference is *which representative* of a mixed-type numeric
  equivalence class survives: the table keeps the globally first-interned
  value (so ``b(1.0)`` decodes as ``1`` if ``a(1)`` loaded first), where
  the raw engine keeps the first value inserted into each individual set.
  Giving such values distinct ids instead would change row *counts*
  relative to raw sets, a far worse divergence; consumers that dispatch on
  ``int`` vs ``float`` within one ``==``-equivalence class face the same
  arbitrariness the raw engine's per-set collapse already has.
* :data:`IDENTITY` (:class:`IdentitySymbols`) — the null codec used when
  interning is disabled (``EngineConfig(interning=False)``): every method is
  the identity, so the storage layer holds raw values exactly as before the
  encoding rewrite.  It is the differential oracle the encoded engine is
  tested against.

Sharing
-------

The table is **append-only** and safe to share:

* *Threads* — the allocation path takes a lock (with a lock-free fast path
  for already-interned values, safe under the GIL), so the query server's
  reader threads may resolve and intern while the writer allocates.
* *Pickling and replay* — a table pickles by its value list (the id map and
  lock are rebuilt on load), and :meth:`entries_since` / :meth:`extend`
  ship incremental deltas: the receiver replays the sender's appended
  suffix and ends up id-identical.  The WAL records each batch's delta
  this way, and recovery replays it.

Per-symbol memo
---------------

Because ids are dense and never change, a pure function of a value can be
computed once per symbol and looked up by id afterwards: :meth:`SymbolTable.memo`
keeps a list ``[fn(value_0), fn(value_1), ...]`` that is only ever appended
to.  There is one such list per table, pinned to the function that first
asked for it — the query server's wire rule (the JSON text of one value), so
a row goes from ids to bytes without being decoded.  A missing suffix is
computed outside the table's lock (the writer keeps interning meanwhile) and
appended under it only if the list still ends where the suffix starts — two
reader threads paging the same new version both compute it, one appends —
and only as far as the caller asks.  Lookups take no lock: a published
prefix is never rewritten, and every id in a committed row was allocated
before the row was readable.  The memo is derived state and is not pickled.
"""

from __future__ import annotations

import functools
import threading
from typing import (
    Any,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.resilience import faults
from repro.resilience.errors import DurabilityError

Row = Tuple[Any, ...]


@functools.lru_cache(maxsize=None)
def _row_codec(arity: int) -> Tuple[Callable, Callable]:
    """``(decode_rows, key_for)`` compiled for one row arity.

    Decoding is the per-row inner loop of every ordered or exported result,
    and the generic ``tuple(values[s] for s in row)`` pays a generator frame
    per row.  Unrolling it for the arity — ``[(values[a], values[b]) for a,
    b in rows]`` — is ~3.5x faster on a 63k-row binary relation; the sort
    key ``lambda row: (values[row[0]], values[row[1]])`` gains ~1.5x.
    """
    names = [f"s{i}" for i in range(arity)]
    target = "".join(f"{name}, " for name in names) or "_"
    unpacked = "".join(f"values[{name}], " for name in names)
    indexed = "".join(f"values[row[{i}]], " for i in range(arity))
    source = (
        "def decode_rows(values, rows):\n"
        f"    return [({unpacked}) for {target} in rows]\n"
        "def key_for(values):\n"
        f"    return lambda row: ({indexed})\n"
    )
    namespace: dict = {}
    exec(compile(source, f"<repro-symbols:arity{arity}>", "exec"), namespace)  # noqa: S102
    return namespace["decode_rows"], namespace["key_for"]


class SymbolTable:
    """Append-only value ↔ dense-int-id bijection (see module docstring)."""

    #: Identity codecs short-circuit the encode/decode plumbing; the real
    #: table never does.
    identity = False

    __slots__ = ("_ids", "_values", "_lock", "_memo", "rows_encoded",
                 "rows_decoded")

    def __init__(self, values: Optional[Iterable[Any]] = None) -> None:
        self._ids: dict = {}
        self._values: List[Any] = []
        self._lock = threading.Lock()
        self._memo: Optional[Tuple[Callable[[Any], Any], List[Any]]] = None
        #: Boundary counters surfaced by ``explain()``/the profile: rows
        #: interned at load/mutation time and rows decoded at the
        #: QueryResult boundary.  Bulk methods maintain them; single-value
        #: ``intern``/``resolve`` calls (e.g. one comparison operand) are
        #: deliberately uncounted to keep the per-touch cost at one dict or
        #: list operation.
        self.rows_encoded = 0
        self.rows_decoded = 0
        if values is not None:
            self.extend(values)

    # -- core codec ------------------------------------------------------------

    def intern(self, value: Any) -> int:
        """The dense id of ``value``, allocating one on first sight."""
        found = self._ids.get(value)
        if found is not None:
            return found
        with self._lock:
            found = self._ids.get(value)
            if found is None:
                found = len(self._values)
                self._values.append(value)
                self._ids[value] = found
        return found

    def lookup(self, value: Any) -> Optional[int]:
        """The id of ``value`` if it was ever interned, else None (no alloc).

        The retraction path uses this: a value that was never interned
        cannot occur in any stored row, so the row is simply absent.
        """
        return self._ids.get(value)

    def resolve(self, symbol: int) -> Any:
        """The value behind ``symbol`` (one list subscript)."""
        try:
            return self._values[symbol]
        except (IndexError, TypeError):
            raise KeyError(f"unknown symbol id {symbol!r}") from None

    # -- row codecs ------------------------------------------------------------

    def intern_row(self, row: Sequence[Any]) -> Row:
        intern = self.intern
        return tuple(intern(value) for value in row)

    def resolve_row(self, row: Sequence[int]) -> Row:
        values = self._values
        return tuple(values[symbol] for symbol in row)

    def intern_rows(self, rows: Iterable[Sequence[Any]]) -> List[Row]:
        intern = self.intern
        out = [tuple(intern(value) for value in row) for row in rows]
        self.rows_encoded += len(out)
        return out

    def intern_many(self, values: Iterable[Any]) -> dict:
        """Intern every value in first-seen order; returns the live id map.

        The bulk-loading path: ``dict.fromkeys`` deduplicates at C speed
        while preserving first-seen order — the same allocation order a
        value-at-a-time :meth:`intern` walk would produce — so a 10k-fact
        EDB costs one pass plus one dict insert per *distinct* value
        instead of one Python call per value occurrence.  Callers may use
        the returned map for direct ``map[value]`` encoding but must not
        mutate it.
        """
        ids = self._ids
        missing = [value for value in dict.fromkeys(values) if value not in ids]
        if missing:
            with self._lock:
                values_list = self._values
                for value in missing:
                    if value not in ids:
                        ids[value] = len(values_list)
                        values_list.append(value)
        return ids

    def resolve_rows(self, rows: Iterable[Sequence[int]]) -> List[Row]:
        """Decode ``rows`` (all of one arity — one relation's, or one page)."""
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        if not rows:
            return []
        out = _row_codec(len(rows[0]))[0](self._values, rows)
        self.rows_decoded += len(out)
        return out

    def row_key(self, arity: int) -> Callable[[Sequence[int]], Row]:
        """``row -> decoded row`` for rows of ``arity``: the ordering key.

        Uncounted (like :meth:`resolve_row`): a sort key decodes to compare,
        not to hand rows out.
        """
        return _row_codec(arity)[1](self._values)

    def memo(self, fn: Callable[[Any], Any],
             size: Optional[int] = None) -> List[Any]:
        """``fn`` of the interned values, indexed by id, computed once each.

        The returned list covers at least the first ``size`` ids (default:
        every id allocated before the call) and is append-only: index it,
        never mutate it.  A reader of an old snapshot passes the largest id
        it holds, so it does not pay for symbols a running batch is still
        interning.  ``fn`` must be pure; the table keeps one memo, for the
        first function it is asked for.
        """
        if self._memo is None:
            with self._lock:
                self._memo = self._memo or (fn, [])
        pinned, out = self._memo
        if pinned is not fn:
            raise ValueError(f"this table's memo holds {pinned!r}, not {fn!r}")
        if size is None:
            size = len(self._values)
        while len(out) < size:
            start = len(out)
            suffix = list(map(fn, self._values[start:size]))
            with self._lock:
                if len(out) == start:
                    out.extend(suffix)
        return out

    def lookup_row(self, row: Sequence[Any]) -> Optional[Row]:
        """Encode a probe row without allocating; None if any value is unknown."""
        lookup = self._ids.get
        out = []
        for value in row:
            symbol = lookup(value)
            if symbol is None:
                return None
            out.append(symbol)
        return tuple(out)

    # -- delta replay ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._values)

    def mark(self) -> int:
        """A replay point for :meth:`entries_since` (the current size)."""
        return len(self._values)

    def entries_since(self, mark: int) -> List[Any]:
        """Values appended after ``mark``, in allocation (= id) order."""
        return self._values[mark:]

    def extend(self, values: Iterable[Any], base: Optional[int] = None) -> int:
        """Replay another table's appended suffix; returns entries added.

        Receiving side of the delta replay protocol: appending the
        sender's ``entries_since(mark)`` with ``base=mark`` reproduces its
        allocations exactly, so row ids stay comparable across the
        boundary.  Raises ``ValueError`` when the replay would assign any
        value an id different from the sender's — the tables diverged and
        encoded rows can no longer be exchanged.  A batch whose values
        *match* the receiver's existing allocations (a duplicated replay)
        dedupe-merges: matching entries are skipped, only the genuinely new
        tail appends.

        The whole batch is validated before anything is applied: a failing
        ``extend`` leaves the table exactly as it was.  Partial application
        would be far worse than the error it reports — the durability WAL
        replays symbol deltas through this method, and a half-absorbed
        corrupt delta would silently remap every fact interned afterwards.
        """
        faults.fire("symbols.extend", DurabilityError)
        with self._lock:
            if base is None:
                base = len(self._values)
            elif base > len(self._values):
                raise ValueError(
                    f"symbol table divergence: replay base {base} is beyond "
                    f"this table's size {len(self._values)} (missing entries)"
                )
            # Phase 1 — validate every entry against both the table and the
            # batch's own pending appends, mutating nothing.
            pending: dict = {}
            to_append: List[Any] = []
            size = len(self._values)
            for offset, value in enumerate(values):
                expected = base + offset
                existing = self._ids.get(value)
                if existing is None:
                    existing = pending.get(value)
                if existing is None:
                    if size != expected:
                        raise ValueError(
                            f"symbol table divergence: {value!r} would get id "
                            f"{size}, sender assigned {expected}"
                        )
                    pending[value] = expected
                    to_append.append(value)
                    size += 1
                elif existing != expected:
                    raise ValueError(
                        f"symbol table divergence: {value!r} bound to id "
                        f"{existing} here, {expected} at the sender"
                    )
            # Phase 2 — the batch is consistent; apply it.
            for value in to_append:
                self._ids[value] = len(self._values)
                self._values.append(value)
        return len(to_append)

    def values(self) -> Iterator[Any]:
        """Every interned value, in id order."""
        return iter(self._values)

    # -- pickling (the lock cannot cross process boundaries) ---------------------

    def __getstate__(self):
        return {
            "values": self._values,
            "rows_encoded": self.rows_encoded,
            "rows_decoded": self.rows_decoded,
        }

    def __setstate__(self, state) -> None:
        self._values = list(state["values"])
        self._ids = {value: i for i, value in enumerate(self._values)}
        self._lock = threading.Lock()
        self._memo = None
        self.rows_encoded = state.get("rows_encoded", 0)
        self.rows_decoded = state.get("rows_decoded", 0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SymbolTable(symbols={len(self._values)})"


class IdentitySymbols:
    """The null codec: raw values pass through untouched.

    The default of a bare :class:`~repro.relational.storage.StorageManager`
    (so direct storage use keeps its historical raw-value semantics) and of
    ``EngineConfig(interning=False)`` — the differential oracle the encoded
    engine is held bit-for-bit against.
    """

    identity = True
    rows_encoded = 0
    rows_decoded = 0

    __slots__ = ()

    def intern(self, value: Any) -> Any:
        return value

    def lookup(self, value: Any) -> Any:
        return value

    def resolve(self, symbol: Any) -> Any:
        return symbol

    def intern_row(self, row: Sequence[Any]) -> Row:
        return tuple(row)

    def resolve_row(self, row: Sequence[Any]) -> Row:
        return tuple(row)

    def intern_rows(self, rows: Iterable[Sequence[Any]]) -> List[Row]:
        return [tuple(row) for row in rows]

    def resolve_rows(self, rows: Iterable[Sequence[Any]]) -> List[Row]:
        return [tuple(row) for row in rows]

    def lookup_row(self, row: Sequence[Any]) -> Row:
        return tuple(row)

    def __len__(self) -> int:
        return 0

    def mark(self) -> int:
        return 0

    def entries_since(self, mark: int) -> List[Any]:
        return []

    def extend(self, values: Iterable[Any], base: Optional[int] = None) -> int:
        raise TypeError("the identity codec cannot absorb symbol entries")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "IdentitySymbols()"


#: Shared stateless instance of the null codec.
IDENTITY = IdentitySymbols()
