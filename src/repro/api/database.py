"""The embedded-database entry point: ``Database`` and ``Connection``.

This is the public face of the engine, shaped like the embedded databases it
aspires to sit beside (SQLite, DuckDB): one :class:`Database` per program,
:class:`Connection` objects for stateful interaction, and every read returning
a first-class :class:`~repro.api.result.QueryResult`.

::

    from repro import Database, EngineConfig, Program

    program = Program("reachability")
    edge, path = program.relations("edge", "path", arity=2)
    x, y, z = program.variables("x", "y", "z")
    path(x, y) <= edge(x, y)
    path(x, z) <= path(x, y) & edge(y, z)
    edge.add_facts([(1, 2), (2, 3), (3, 4)])

    db = Database(program, EngineConfig.jit("lambda"))
    with db.connect() as conn:
        conn.insert_facts("edge", [(4, 5)])
        result = conn.query("path")        # QueryResult
        print(result.count(), result.take(3))
        print(result.explain())

Every execution subsystem plugs in underneath this one surface: the
configuration decides whether a connection evaluates interpreted, JIT or
AOT, and the results are bit-for-bit identical across all of them.

A :class:`Database` accepts an embedded-DSL :class:`~repro.datalog.dsl.Program`,
a bare :class:`~repro.datalog.program.DatalogProgram`, or textual Datalog
source (parsed with :func:`repro.datalog.parser.parse_program`).  Connections
opened from one database share its :class:`~repro.incremental.cache.ResultCache`,
so replicas serving the same workload reuse each other's query results.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple, Union, overload

# ``api.render_explain`` and ``introspect.render_analyze`` are lazy package
# attributes: the renderers are imported by the first EXPLAIN.
from repro import api, introspect
from repro.api.result import QueryResult, ResultSchema, ResultSet
from repro.core.config import EngineConfig
from repro.datalog.program import DatalogProgram
from repro.incremental.cache import ResultCache
from repro.incremental.session import IncrementalSession, UpdateReport
from repro.introspect import CATALOG_COLUMNS, RESERVED_PREFIX, SystemCatalog
from repro.relational.relation import Row

#: Anything a :class:`Database` can be opened over.
ProgramLike = Union["DatalogProgram", "object", str]


def coerce_program(program: ProgramLike, name: str = "database") -> DatalogProgram:
    """Accept a DSL ``Program``, a ``DatalogProgram`` or Datalog source text."""
    if isinstance(program, DatalogProgram):
        return program
    if isinstance(program, str):
        from repro.datalog.parser import parse_program

        return parse_program(program, name=name)
    datalog = getattr(program, "datalog", None)
    if isinstance(datalog, DatalogProgram):
        return datalog
    raise TypeError(
        "expected a Program, DatalogProgram or Datalog source string, "
        f"got {type(program).__name__}"
    )


def schema_for(program: DatalogProgram, relation: str) -> ResultSchema:
    """The :class:`ResultSchema` of a declared relation."""
    declaration = program.relations.get(relation)
    if declaration is None:
        raise KeyError(
            f"unknown relation {relation!r}; "
            f"available: {sorted(program.relations)}"
        )
    return ResultSchema.of(
        relation, declaration.arity, getattr(declaration, "columns", None)
    )


class Connection:
    """A stateful handle on one evaluated program: mutate facts, read results.

    Wraps a long-lived :class:`~repro.incremental.IncrementalSession`: the
    first read computes the fixpoint, mutations repair it incrementally
    (delta propagation / DRed), and repeated queries are served from the
    result cache.  Every read returns an immutable :class:`QueryResult`
    snapshot.
    """

    def __init__(self, session: IncrementalSession,
                 _database: Optional["Database"] = None,
                 catalog: Optional[SystemCatalog] = None) -> None:
        self._session = session
        self._database = _database
        self._catalog = catalog
        self._durability = None  # set by Database.connect for the durable writer
        self._closed = False

    # -- introspection ---------------------------------------------------------

    @property
    def config(self) -> EngineConfig:
        return self._session.config

    @property
    def program(self) -> DatalogProgram:
        return self._session.program

    @property
    def session(self) -> IncrementalSession:
        """The underlying incremental session (advanced use)."""
        return self._session

    @property
    def catalog(self) -> Optional[SystemCatalog]:
        """This connection's system catalog (None when opened without one).

        The binding point for extra ``sys_`` row providers — the query
        server binds ``sys_connections``/``sys_server`` here so its own
        state is queryable through the same Datalog surface as everything
        else.
        """
        return self._catalog

    @property
    def durability(self):
        """This connection's :class:`~repro.durability.DurabilityManager`,
        or None — only the durable writer (the first connection a durable
        database opens) has one.  ``conn.durability.last_recovery`` is the
        warm-restart report of this open."""
        return self._durability

    def checkpoint(self) -> int:
        """Write a durable checkpoint now; returns bytes written.

        Collapses the WAL into a full-state snapshot so the next open
        restarts warm with nothing to replay.  Raises when this connection
        is not the durable writer.
        """
        self._check_open()
        if self._durability is None:
            raise RuntimeError(
                "this connection is not a durable writer; open the database "
                "with Database(durability=DurabilityConfig(dir=...))"
            )
        return self._durability.checkpoint()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def last_report(self) -> Optional[UpdateReport]:
        """The :class:`UpdateReport` of the most recent mutation batch."""
        return self._session.last_report

    def schema(self, relation: str) -> ResultSchema:
        return schema_for(self._session.program, relation)

    # -- mutation --------------------------------------------------------------

    def insert_facts(self, relation: str, rows) -> UpdateReport:
        """Assert a batch of facts; the fixpoint is repaired before returning."""
        self._check_open()
        return self._session.insert_facts(relation, rows)

    def retract_facts(self, relation: str, rows) -> UpdateReport:
        """Retract a batch of base facts (rows never asserted are ignored)."""
        self._check_open()
        return self._session.retract_facts(relation, rows)

    def apply(self, inserts=None, retracts=None) -> UpdateReport:
        """One mixed mutation batch: retractions first, then insertions."""
        self._check_open()
        return self._session.apply(inserts, retracts)

    # -- queries ---------------------------------------------------------------

    @overload
    def query(self, relation: str, limits=None, token=None) -> QueryResult: ...

    @overload
    def query(self, relation: None = None, limits=None,
              token=None) -> ResultSet: ...

    def query(self, relation: Optional[str] = None, limits=None, token=None):
        """Rows of ``relation`` as a :class:`QueryResult` snapshot.

        With no argument: a :class:`ResultSet` covering every IDB relation
        (the same relations the legacy ``ExecutionEngine.run()`` returned),
        in declaration order, for any execution mode.

        ``sys_``-prefixed names read the system catalog instead of the
        program (see :mod:`repro.introspect`): an untraced raw-row snapshot
        of the engine's own state — untraced so observing the engine does
        not itself add query traces to the ring being observed.

        ``limits`` (:class:`~repro.resilience.limits.QueryLimits`) bounds
        any fixpoint this read triggers — deadline, rounds, rows derived,
        result bytes; ``token``
        (:class:`~repro.resilience.cancel.CancellationToken`) allows
        cooperative cancellation from another thread.  A violated bound
        aborts the read with the matching typed
        :class:`~repro.resilience.errors.ResilienceError`; the session
        resets to ground state and the next read recomputes.
        """
        self._check_open()
        if (
            relation is not None
            and relation.startswith(RESERVED_PREFIX)
            and self._catalog is not None
        ):
            return self._catalog_snapshot(relation)
        session = self._session
        started = time.perf_counter()
        with session.tracer.span(
            "query", root=True, relation=relation or "*",
            program=session.program_fingerprint[:12],
        ) as span:
            trace = (lambda: span.trace) if session.tracer.enabled else None
            if relation is None:
                results = {
                    name: self._snapshot(name, trace=trace, limits=limits,
                                         token=token)
                    for name in session.program.idb_relations()
                }
                out = ResultSet(
                    results, explain=self._render_explain, trace=trace
                )
                if session.tracer.enabled:
                    span.set(rows=out.total_rows())
            else:
                out = self._snapshot(relation, trace=trace, limits=limits,
                                     token=token)
                if session.tracer.enabled:
                    span.set(rows=out.count())
        if span.trace is not None:
            session.last_trace = span.trace
        session.metrics.counter("queries_total").inc()
        session.metrics.histogram("query_seconds").observe(
            time.perf_counter() - started
        )
        return out

    def _snapshot(self, relation: str, trace=None, limits=None,
                  token=None) -> QueryResult:
        schema = self.schema(relation)  # raises KeyError on unknown relations
        # Rows stay dictionary-encoded (shared with the session's result
        # cache — one copy of each constant in the symbol table); the
        # QueryResult decodes lazily, per accessed page.
        rows = self._session.fetch_encoded(relation, limits, token)
        count = len(rows)

        def explain() -> str:
            return self._render_explain(relation=relation, row_count=count)

        return QueryResult(
            schema, rows, explain=explain,
            symbols=self._session.storage.symbols, trace=trace,
        )

    def _catalog_snapshot(self, relation: str) -> QueryResult:
        """One system-catalog relation as a raw-domain :class:`QueryResult`."""
        rows = frozenset(self._catalog.rows(relation))  # KeyError on unknowns
        columns = CATALOG_COLUMNS[relation]
        self._session.metrics.counter(
            "catalog_queries_total", relation=relation
        ).inc()
        return QueryResult(
            ResultSchema.of(relation, len(columns), columns), rows,
            explain=lambda: self._render_explain(
                relation=relation, row_count=len(rows)
            ),
        )

    def query_snapshot(self, relation: str) -> QueryResult:
        """Rows of ``relation`` at the last *committed* MVCC version.

        Requires snapshots on the session (``session.enable_snapshots()``;
        the query server does this).  Unlike :meth:`query`, this never
        touches live session state: the rows come from the pinned
        :class:`~repro.incremental.snapshots.StorageSnapshot`, so it is safe
        to call from reader threads while a writer repairs the fixpoint —
        the returned result carries ``snapshot_version`` and holds a pin on
        that version until it is released or garbage-collected.

        The result orders itself through the manager's carried order: its
        first page costs a merge of what changed since the last ordered
        version of ``relation``, not a sort of the relation.
        """
        self._check_open()
        session = self._session
        manager = session.snapshots
        if manager is None:
            raise RuntimeError(
                "snapshots are not enabled on this connection's session; "
                "call conn.session.enable_snapshots() first"
            )
        schema = self.schema(relation)  # raises KeyError before pinning
        snapshot = manager.acquire()
        try:
            rows = snapshot.rows_of(relation)
        except KeyError:
            manager.release(snapshot.version)
            raise
        session.metrics.counter("snapshot_queries_total").inc()
        return QueryResult(
            schema, rows, symbols=snapshot.symbols,
            version=snapshot.version,
            on_release=manager.releaser(snapshot.version),
            order=manager.order_carrier(relation, snapshot.version),
        )

    def refresh(self) -> None:
        """Force the initial fixpoint computation (otherwise lazy)."""
        self._check_open()
        self._session.refresh()

    def explain(self, relation: Optional[str] = None,
                analyze: bool = False) -> str:
        """The session's plan and the adaptive decisions taken so far.

        ``analyze=True`` appends the EXPLAIN ANALYZE section: the actual
        per-operator timings and row counts from the most recent trace,
        lined up with the join-order optimizer's cardinality predictions,
        flagging misestimated operators (see :mod:`repro.introspect`).
        Needs telemetry for the trace and the block kernels (the default
        executor, not ``"pushdown"``) for per-operator spans; the section
        says so when either is missing.
        """
        self._check_open()
        row_count = None
        if relation is not None:
            row_count = len(self._session.fetch_encoded(relation))
        return self._render_explain(
            relation=relation, row_count=row_count, analyze=analyze
        )

    def _render_explain(self, relation: Optional[str] = None,
                        row_count: Optional[int] = None,
                        analyze: bool = False) -> str:
        session = self._session
        analysis = None
        if analyze:
            analysis = introspect.render_analyze(session.profile, session.last_trace)
        return api.render_explain(
            title=f"connection over {session.program.name!r}",
            config=session.config,
            tree=session.tree,
            profile=session.profile,
            relation=relation,
            row_count=row_count,
            symbols=session.storage.symbols,
            trace=session.last_trace,
            analyze=analysis,
        )

    def self_check(self) -> None:
        """Assert the incremental state equals a from-scratch evaluation."""
        self._check_open()
        self._session.self_check()

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Release session resources (idempotent).

        The durable writer checkpoints on clean close (per its
        configuration) and releases the durability directory, so the next
        ``connect()`` — this process or the next — can claim it.
        """
        if not self._closed:
            if self._durability is not None:
                self._durability.close()
                self._durability = None
            self._closed = True
            if self._database is not None:
                self._database._forget(self)

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("this connection is closed")

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else "open"
        return (
            f"Connection({self._session.program.name!r}, "
            f"config={self._session.config.describe()!r}, {state})"
        )


class Database:
    """One Datalog program, embedded-database-shaped.

    The single entry point of the public API: hold a :class:`Database` per
    program, open :class:`Connection` objects for stateful work, or use
    :meth:`query` for one-shot reads.  The configuration given here is the
    default for every connection; ``connect(config=...)`` overrides it per
    connection (e.g. one interpreted and one JIT connection over the same
    program).
    """

    def __init__(self, program: ProgramLike,
                 config: Optional[EngineConfig] = None,
                 cache: Optional[ResultCache] = None,
                 name: str = "database",
                 durability=None) -> None:
        self.program = coerce_program(program, name=name)
        self.config = config or EngineConfig()
        #: Optional :class:`~repro.durability.DurabilityConfig`.  When set,
        #: the first connection becomes the durable writer: it recovers
        #: from the directory on open (checkpoint install + WAL replay),
        #: logs every mutation batch, and checkpoints per the thresholds.
        self.durability = durability
        self._durability_owner: Optional["Connection"] = None
        #: Shared across every connection; keyed by program fingerprint,
        #: configuration and mutation history, so sharing is always safe.
        self.cache = cache if cache is not None else ResultCache()
        # One registry per database: connections and one-shot queries all
        # aggregate into it, so ``metrics()`` sees the whole workload.
        from repro.telemetry.config import metrics_of

        self._metrics = metrics_of(self.config.telemetry)
        self._connections: List[Connection] = []
        self._closed = False

    @classmethod
    def from_source(cls, source: str,
                    config: Optional[EngineConfig] = None,
                    name: str = "parsed") -> "Database":
        """Open a database over textual Datalog source."""
        return cls(source, config=config, name=name)

    # -- schema ----------------------------------------------------------------

    def relations(self) -> Tuple[str, ...]:
        return tuple(self.program.relations)

    def schema(self, relation: str) -> ResultSchema:
        return schema_for(self.program, relation)

    def schemas(self) -> Dict[str, ResultSchema]:
        return {name: self.schema(name) for name in self.program.relations}

    # -- connections -----------------------------------------------------------

    def connect(self, config: Optional[EngineConfig] = None) -> Connection:
        """Open a :class:`Connection` (its session snapshots the program now)."""
        self._check_open()
        effective = config or self.config
        catalog = self._catalog_for(effective)
        session = IncrementalSession(
            self.program, effective, cache=self.cache,
            metrics=self._metrics, catalog=catalog,
        )
        catalog.bind_storage(lambda: session.storage)
        catalog.bind_resilience(session.resilience_stats)
        connection = Connection(session, _database=self, catalog=catalog)
        if self.durability is not None and self._durability_owner is None:
            from repro.durability import DurabilityManager

            manager = DurabilityManager(self.durability, session)
            manager.open()  # recovery runs here, before any query/mutation
            catalog.bind_durability(lambda: [manager.stat_row()])
            connection._durability = manager
            self._durability_owner = connection
        self._connections.append(connection)
        return connection

    def _catalog_for(self, config: EngineConfig) -> SystemCatalog:
        """A fresh per-connection :class:`SystemCatalog` over this database's
        shared metrics registry and the configuration's telemetry ring."""
        telemetry = config.telemetry
        ring = telemetry.ring if telemetry is not None else None
        return SystemCatalog(metrics=self._metrics, ring=ring)

    # -- one-shot queries ------------------------------------------------------

    @overload
    def query(self, relation: str,
              config: Optional[EngineConfig] = None) -> QueryResult: ...

    @overload
    def query(self, relation: None = None,
              config: Optional[EngineConfig] = None) -> ResultSet: ...

    def query(self, relation: Optional[str] = None,
              config: Optional[EngineConfig] = None):
        """Evaluate once and return results (no session state is kept).

        With a relation name: that relation's :class:`QueryResult` (EDB
        relations are allowed).  Without: a :class:`ResultSet` of every IDB
        relation — the same answer in every execution mode.

        ``sys_``-prefixed names read the system catalog: trace- and
        metrics-backed relations cover this database's whole workload, but
        the storage-backed ones (``sys_relations``, ``sys_symbols``) are
        empty here — a one-shot read keeps no session
        state to observe; open a connection for those.
        """
        self._check_open()
        from repro.engine.engine import ExecutionEngine

        effective = config or self.config
        if relation is not None and relation.startswith(RESERVED_PREFIX):
            catalog = self._catalog_for(effective)
            rows = frozenset(catalog.rows(relation))
            columns = CATALOG_COLUMNS[relation]
            self._metrics.counter(
                "catalog_queries_total", relation=relation
            ).inc()
            return QueryResult(
                ResultSchema.of(relation, len(columns), columns), rows
            )
        tracer = effective.tracer()
        started = time.perf_counter()
        engine = ExecutionEngine(
            self.program.copy(), effective, catalog=self._catalog_for(effective)
        )
        with tracer.span(
            "query", root=True, relation=relation or "*",
            database=self.program.name,
        ) as span:
            engine._trace_source = (
                (lambda: span.trace) if tracer.enabled else None
            )
            results = engine.evaluate()
            out = results if relation is None else engine.result(relation)
            if tracer.enabled:
                rows = (
                    out.total_rows() if relation is None else out.count()
                )
                span.set(rows=rows)
        # The engine already folded its profile into the TelemetryConfig
        # registry when they share one; fold manually otherwise so
        # ``Database.metrics()`` always covers one-shot queries too.
        if engine.metrics is not self._metrics:
            self._metrics.absorb_profile(engine.profile)
        self._metrics.counter("queries_total").inc()
        self._metrics.histogram("query_seconds").observe(
            time.perf_counter() - started
        )
        return out

    # -- telemetry -------------------------------------------------------------

    @property
    def metrics_registry(self):
        """The :class:`~repro.telemetry.MetricsRegistry` aggregating this
        database's connections and one-shot queries (shared with the
        configuration's :class:`TelemetryConfig` when one is set)."""
        return self._metrics

    def metrics(self) -> Dict[str, object]:
        """A stable snapshot of every counter/gauge/histogram."""
        return self._metrics.snapshot()

    def metrics_prometheus(self) -> str:
        """The metrics in Prometheus text exposition format."""
        return self._metrics.to_prometheus()

    def metrics_json(self) -> str:
        """The metrics snapshot as a JSON document."""
        return self._metrics.to_json()

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Close every connection opened from this database (idempotent)."""
        for connection in list(self._connections):
            connection.close()
        self._connections.clear()
        self._closed = True

    def _forget(self, connection: Connection) -> None:
        if self._durability_owner is connection:
            self._durability_owner = None
        try:
            self._connections.remove(connection)
        except ValueError:  # pragma: no cover - double-close race
            pass

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("this database is closed")

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Database({self.program.name!r}, "
            f"config={self.config.describe()!r}, "
            f"connections={len(self._connections)})"
        )
