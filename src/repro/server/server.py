"""The asyncio query server: many clients, one database, one writer.

Concurrency model
-----------------

* **One event loop** accepts connections and serves every read.  Queries
  never touch live session state: they are answered from the last
  committed MVCC snapshot (:meth:`Connection.query_snapshot`), so a read
  is pure CPU over immutable frozensets — no locks, no waiting on the
  writer.
* **One writer thread** (a single-thread executor) applies mutation
  batches through the shared session, which publishes a new snapshot at
  each commit point.  Clients' mutations funnel through a bounded
  :class:`~repro.server.backpressure.MutationQueue`; admission is governed
  by the configured policy (block / reject / shed).
* ``sys_`` reads go through the connection's system catalog, which this
  server extends with ``sys_connections`` and ``sys_server`` rows.

Wire surface (see :mod:`repro.server.protocol` for framing): requests are
JSON objects with an ``op`` — ``ping``, ``query``, ``insert``, ``retract``,
``apply``, ``explain``, ``metrics``, ``server_stats``, ``close`` — plus an
optional client-chosen ``id`` echoed back on the response.
"""

from __future__ import annotations

import asyncio
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Set, Tuple

from repro.api.database import Database
from repro.core.config import EngineConfig
from repro.resilience import faults
from repro.resilience.cancel import CancellationToken
from repro.resilience.errors import (
    Cancelled,
    DurabilityError,
    ResilienceError,
    ResourceExhausted,
)
from repro.server.backpressure import (
    BackpressureConfig,
    BackpressureError,
    MutationQueue,
    QueueClosed,
)
from repro.server.protocol import (
    ProtocolError,
    encode_id_rows,
    encode_response,
    encode_value_rows,
    jsonify_value,
    read_frame,
    read_line,
)
from repro.server.sessions import ConnectionState, SessionRegistry

#: Ops that mutate; everything else is served without touching the writer.
_MUTATION_OPS = frozenset({"insert", "retract", "apply"})

#: Structured one-line operational log (slow queries, cancellations,
#: degraded writes); key=value formatted so it greps and parses trivially.
logger = logging.getLogger("repro.server")


def _error(code: str, message: str, **extra: Any) -> dict:
    body = {"code": code, "message": message}
    body.update(extra)
    return {"ok": False, "error": body}


class _Served:
    """One ``(relation, version)`` entry of the server's result memo.

    ``result`` pins the version and carries its row order; ``body`` is the
    whole relation in wire form, built by the first unbounded read and
    dropped with the entry.  Published by one assignment: a reader thread
    and the loop may both build it, and both build equal bytes.
    """

    __slots__ = ("result", "body")

    def __init__(self, result) -> None:
        self.result = result
        self.body = None


class _RowsResponse(dict):
    """A query response, plus what it counts as once its frame is accepted.

    ``how`` / ``served`` feed ``server_rows_served_total`` when the response
    is written, not when it is built: a read refused as oversize served no
    rows.  ``entry`` is the memo entry the rows belong to (``None`` for
    catalog reads), so a body that can never be written is not kept.
    """

    __slots__ = ("how", "served", "entry")


class QueryServer:
    """Serve one :class:`~repro.api.database.Database` over TCP.

    ::

        db = Database(source, config)
        server = QueryServer(db, port=7777)
        asyncio.run(server.serve_forever())

    or drive the lifecycle yourself: ``await server.start()`` … ``await
    server.stop()`` inside a running loop (what
    :class:`~repro.server.runtime.ServerThread` does).
    """

    def __init__(
        self,
        database: Database,
        host: str = "127.0.0.1",
        port: int = 0,
        backpressure: Optional[BackpressureConfig] = None,
        config: Optional[EngineConfig] = None,
    ) -> None:
        self.db = database
        self.host = host
        self.port = port
        self.backpressure = (
            backpressure if backpressure is not None else BackpressureConfig()
        )
        # The one shared connection: its session owns the storage, the
        # writer thread owns its mutations, snapshots serve the readers.
        self.conn = database.connect(config)
        self.session = self.conn.session
        # The durability manager when the database is durable and this
        # connection is its writer; group commit syncs through it.
        self.durability = self.conn.durability
        self.snapshots = self.session.enable_snapshots()
        self.metrics = self.session.metrics
        self.tracer = self.session.tracer
        self.registry = SessionRegistry()
        catalog = self.conn.catalog
        if catalog is not None:
            catalog.bind_connections(self.registry.rows)
            catalog.bind_server(lambda: [self.server_row()])
        self.mutations_applied = 0
        # One entry per (relation, version), shared by every read against
        # that version: snapshot results are immutable, so the row order
        # inside the result and the encoded body beside it amortize across
        # requests — a page read costs O(page), a repeated full read
        # costs a write.  The cache owns the snapshot pins; superseded
        # versions are evicted (unpinned) lazily.  Only the event-loop
        # thread touches the dict.
        self._result_cache: Dict[Tuple[str, int], _Served] = {}
        self._writer_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-writer"
        )
        # Governed (deadline-carrying) reads run here instead of on the
        # event loop, so the loop stays free to notice a disconnecting
        # peer and cancel the read's token.
        self._reader_pool = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-reader"
        )
        self._queue: Optional[MutationQueue] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._writer_task: Optional["asyncio.Task"] = None
        self._handlers: Set["asyncio.Task"] = set()
        self._started_at: Optional[float] = None
        self._stopped = False

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and start the writer loop."""
        loop = asyncio.get_running_loop()
        # Built here, not in __init__: asyncio primitives bind to the
        # running loop on creation under Python 3.9.
        self._queue = MutationQueue(self.backpressure)
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._writer_task = loop.create_task(self._writer_loop())
        self._started_at = time.monotonic()

    async def stop(self) -> None:
        """Graceful, ordered shutdown (idempotent).

        Order matters: stop accepting, let the writer *finish the batch it
        already dequeued* (its clients get real reports, durably synced),
        fail every still-queued mutation with a structured ``shutdown``
        error (its client gets a response, not a dead socket), flush the
        WAL — and only then close client connections.  The old behavior
        cancelled the writer task mid-``run_in_executor``, orphaning the
        in-flight client future.
        """
        if self._stopped:
            return
        self._stopped = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._queue is not None:
            self._queue.drain()
            self._queue.close()
        if self._writer_task is not None:
            # Not cancelled: the loop exits via QueueClosed after the
            # in-flight group commit completes and its futures resolve.
            await self._writer_task
        self._writer_pool.shutdown(wait=True)
        if self.durability is not None:
            self.durability.sync()
        # One scheduling round so handlers woken by the failed futures can
        # write their shutdown responses before the transports close.
        await asyncio.sleep(0)
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        # After the handlers: their cancellation cancels any governed
        # read's token, so the reader threads abort at their next check
        # instead of holding this shutdown open.  Joined off-loop: a read
        # between cooperative checks (e.g. serializing a large page) must
        # not block the event loop for that stretch.
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: self._reader_pool.shutdown(wait=True)
        )
        while self._result_cache:
            self._result_cache.popitem()[1].result.release()
        self.conn.close()

    async def serve_forever(self) -> None:
        await self.start()
        assert self._server is not None
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    # -- the writer loop ---------------------------------------------------------

    async def _writer_loop(self) -> None:
        """Group commit: drain every already-queued mutation into one batch,
        apply them on the writer thread, fsync the WAL **once**, then
        resolve all of the batch's futures.  Under a write burst the fsync
        cost amortizes across the burst instead of gating every client on
        its own disk flush."""
        loop = asyncio.get_running_loop()
        queue = self._queue
        assert queue is not None
        while True:
            try:
                batch = [await queue.get()]
            except QueueClosed:
                return
            while True:
                item = queue.get_nowait()
                if item is None:
                    break
                batch.append(item)
            await queue.notify_space()
            self.metrics.gauge("server_queue_depth").set(queue.depth())
            live = [
                (payload, future) for payload, future in batch
                if not future.done()  # shed or shutdown raced the dequeue
            ]
            if not live:
                continue
            outcomes = await loop.run_in_executor(
                self._writer_pool, self._apply_batch,
                [payload for payload, _ in live],
            )
            for (_, future), (report, error) in zip(live, outcomes):
                if future.done():
                    continue
                if error is not None:
                    future.set_exception(error)
                else:
                    future.set_result(report)

    def _apply_batch(self, payloads):
        """Runs on the writer thread: apply each payload (the session
        publishes a snapshot per commit), then one ``sync()`` makes the
        whole group durable before any future resolves."""
        outcomes = []
        for payload in payloads:
            try:
                outcomes.append((self._apply_mutation(payload), None))
            except Exception as exc:  # surfaced to the submitting client
                outcomes.append((None, exc))
        if self.durability is not None:
            try:
                self.durability.sync()
            except Exception as exc:
                # The group's writes applied in memory but are NOT durable:
                # fail every future that was about to succeed, so no client
                # mistakes a lost-on-crash write for a committed one.  The
                # writer loop survives — the next batch syncs again.
                error = (
                    exc if isinstance(exc, ResilienceError)
                    else DurabilityError(str(exc), reason="sync_failed")
                )
                logger.error(
                    "event=group-commit-sync-failed batch=%d code=%s error=%s",
                    len(payloads), getattr(error, "code", "?"), error,
                )
                self.metrics.counter("server_sync_failures_total").inc()
                outcomes = [
                    (report, failure if failure is not None else error)
                    for report, failure in outcomes
                ]
        self.metrics.histogram("server_group_commit_size").observe(
            len(payloads)
        )
        if len(payloads) > 1:
            self.metrics.counter("server_group_commits_total").inc()
        return outcomes

    def _apply_mutation(self, payload: Dict[str, Any]):
        """Runs on the writer thread; the session publishes the snapshot."""
        report = self.session.apply(
            payload.get("inserts"), payload.get("retracts")
        )
        self.mutations_applied += 1
        return report

    # -- observability -----------------------------------------------------------

    def uptime_seconds(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    def server_row(self) -> Tuple[Any, ...]:
        """The single ``sys_server`` catalog row."""
        queue = self._queue
        stats = self.snapshots.stats()
        latest = self.snapshots.latest_version()
        return (
            round(self.uptime_seconds(), 3),
            len(self.registry),
            queue.depth() if queue is not None else 0,
            self.backpressure.max_pending,
            self.backpressure.policy,
            self.mutations_applied,
            queue.shed if queue is not None else 0,
            queue.rejected if queue is not None else 0,
            -1 if latest is None else latest,
            stats["live"],
        )

    def stats(self) -> Dict[str, Any]:
        """The ``server_stats`` op's payload (a superset of ``sys_server``)."""
        queue = self._queue
        return {
            "uptime_seconds": self.uptime_seconds(),
            "connections": len(self.registry),
            "accepted_total": self.registry.accepted,
            "queue_depth": queue.depth() if queue is not None else 0,
            "queue_capacity": self.backpressure.max_pending,
            "policy": self.backpressure.policy,
            "mutations_applied": self.mutations_applied,
            "shed_total": queue.shed if queue is not None else 0,
            "rejected_total": queue.rejected if queue is not None else 0,
            "snapshot_version": self.snapshots.latest_version(),
            "snapshots": self.snapshots.stats(),
            "durability": (
                None if self.durability is None else self.durability.stats()
            ),
        }

    # -- connection handling -----------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        peer = writer.get_extra_info("peername")
        peer_str = (
            f"{peer[0]}:{peer[1]}"
            if isinstance(peer, tuple) and len(peer) >= 2 else str(peer)
        )
        state = self.registry.open(peer_str)
        self.metrics.counter("server_connections_total").inc()
        conn_span = self.tracer.span(
            "connection", root=True, ambient=False,
            conn=state.conn_id, peer=peer_str,
        )
        try:
            await self._serve_connection(reader, writer, state, conn_span)
        except (
            ResilienceError, ConnectionResetError, BrokenPipeError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            if state.cancel_active("client disconnected"):
                # A governed read was in flight when the socket died: the
                # cooperative token aborts it at the next check instead of
                # computing for a peer that will never read the answer.
                self.metrics.counter("server_disconnect_cancels_total").inc()
                logger.info(
                    "event=disconnect-cancel conn=%d peer=%s",
                    state.conn_id, state.peer,
                )
            conn_span.set(
                queries=state.queries, mutations=state.mutations,
                bytes_in=state.bytes_in, bytes_out=state.bytes_out,
            )
            conn_span.finish()
            self.registry.close(state)
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError,
            ):
                # CancelledError: stop() cancelled this handler; swallowing
                # it here is safe — the transport is already closed and the
                # task is about to finish anyway.
                pass

    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        state: ConnectionState,
        conn_span,
    ) -> None:
        # Mode detection: a well-formed frame's first length byte is 0x00
        # (MAX_FRAME < 2**24); anything else is a human typing JSON lines.
        first = await reader.read(1)
        if not first:
            return
        framed = first == b"\x00"
        state.mode = "framed" if framed else "line"
        pending_first = first
        while True:
            try:
                received = await (
                    read_frame(reader, pending_first) if framed
                    else read_line(reader, pending_first)
                )
            except ResilienceError as exc:
                # Framing is (or may be) desynced: tell the peer why with
                # one best-effort typed error, then close the connection.
                await self._send_best_effort(
                    writer, framed, {"ok": False, "error": exc.to_wire()}
                )
                return
            pending_first = b""
            if received is None:
                return
            message, nbytes = received
            state.bytes_in += nbytes
            if not message:  # blank line in line mode
                continue
            started = time.perf_counter()
            try:
                response = await self._dispatch(
                    message, state, conn_span, reader
                )
            except ResilienceError as exc:
                # ProtocolError and any taxonomy error escaping an op
                # handler become one structured response (stable code).
                response = {"ok": False, "error": exc.to_wire()}
            if "id" in message:
                response["id"] = message["id"]
            # An injected send fault behaves exactly like a client that
            # vanished mid-response: the handler tears the connection down.
            faults.fire("server.send", Cancelled)
            try:
                parts = encode_response(response, framed)
            except ResourceExhausted as exc:
                # Refused from the part lengths, before a byte was written:
                # the connection is still in sync and gets a typed answer.
                if getattr(response, "entry", None) is not None:
                    response.entry.body = None
                response = self._query_abort(ResourceExhausted(
                    f"{exc}; page the read with 'offset' and 'limit'",
                    reason=exc.reason, **exc.details
                ), str(message.get("relation")), state, started)
                if "id" in message:
                    response["id"] = message["id"]
                parts = encode_response(response, framed)
            if isinstance(response, _RowsResponse):
                self.metrics.counter(
                    "server_rows_served_total", how=response.how
                ).inc(response.served)
            writer.writelines(parts)
            await writer.drain()
            state.bytes_out += sum(map(len, parts))
            if message.get("op") == "close":
                return

    async def _send_best_effort(
        self, writer: asyncio.StreamWriter, framed: bool, response: dict
    ) -> None:
        """Write one response, swallowing a peer that is already gone."""
        try:
            writer.writelines(encode_response(response, framed))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    # -- request dispatch --------------------------------------------------------

    async def _dispatch(
        self,
        message: dict,
        state: ConnectionState,
        conn_span,
        reader: asyncio.StreamReader,
    ) -> dict:
        op = message.get("op")
        if not isinstance(op, str):
            return _error("bad_request", "missing or non-string 'op'")
        self.metrics.counter("server_requests_total", op=op).inc()
        started = time.perf_counter()
        with self.tracer.span(
            "request", parent=conn_span, ambient=False,
            op=op, conn=state.conn_id,
        ) as span:
            response = await self._dispatch_op(op, message, state, reader)
            span.set(ok=response.get("ok", False))
        self.metrics.histogram("server_request_seconds").observe(
            time.perf_counter() - started
        )
        return response

    async def _dispatch_op(
        self,
        op: str,
        message: dict,
        state: ConnectionState,
        reader: asyncio.StreamReader,
    ) -> dict:
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "query":
            return await self._op_query(message, state, reader)
        if op in _MUTATION_OPS:
            return await self._op_mutate(op, message, state)
        if op == "explain":
            return await self._op_explain(message)
        if op == "metrics":
            snapshot = self.db.metrics()
            return {"ok": True, "metrics": {
                key: jsonify_value(value) for key, value in snapshot.items()
            }}
        if op == "server_stats":
            return {"ok": True, "stats": self.stats()}
        if op == "close":
            return {"ok": True, "closing": True}
        return _error("unknown_op", f"unknown op {op!r}")

    async def _op_query(
        self,
        message: dict,
        state: ConnectionState,
        reader: asyncio.StreamReader,
    ) -> dict:
        relation = message.get("relation")
        if not isinstance(relation, str):
            return _error("bad_request", "'query' needs a string 'relation'")
        offset = message.get("offset", 0)
        limit = message.get("limit")
        if not isinstance(offset, int) or not isinstance(
            limit, (int, type(None))
        ):
            return _error(
                "bad_request", "'offset' and 'limit' must be integers"
            )
        deadline_ms = message.get("deadline_ms")
        token = None
        if deadline_ms is not None:
            if not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0:
                return _error(
                    "bad_request", "'deadline_ms' must be a positive number"
                )
            # The per-request deadline rides a CancellationToken: the read
            # path checks it cooperatively, and a watcher cancels it if the
            # client disconnects before the answer is ready.
            token = CancellationToken.with_timeout(deadline_ms / 1000.0)
        state.queries += 1
        started = time.perf_counter()
        served = None
        if not relation.startswith("sys_"):
            # Resolve the shared snapshot entry on the loop: the result
            # cache is event-loop-only state.  The result itself is an
            # immutable pinned snapshot, safe to page from any thread.
            try:
                served = self._snapshot_result(relation)
            except ResilienceError as exc:
                return self._query_abort(exc, relation, state, started)
            except KeyError as exc:
                return _error("unknown_relation", str(exc))
            except (ValueError, RuntimeError) as exc:
                return _error("bad_request", str(exc))
        if token is None:
            return self._query_body(
                relation, served, offset, limit, None, state, started
            )
        # Governed read: run it off-loop so the event loop stays free to
        # notice the peer vanishing — the watcher cancels the token, and the
        # cooperative checks abort the read instead of computing an answer
        # for a dead socket.
        state.active_token = token
        loop = asyncio.get_running_loop()
        watcher = loop.create_task(self._cancel_on_disconnect(reader, state))
        try:
            return await loop.run_in_executor(
                self._reader_pool, self._query_body,
                relation, served, offset, limit, token, state, started,
            )
        except asyncio.CancelledError:
            # Handler torn down (shutdown): abort the orphaned read so the
            # reader thread does not keep computing for a closed server.
            token.cancel("connection closed")
            raise
        finally:
            watcher.cancel()
            state.active_token = None

    async def _cancel_on_disconnect(
        self, reader: asyncio.StreamReader, state: ConnectionState
    ) -> None:
        """Cancel the in-flight governed read if the transport dies.

        The loop never has a read pending while a request is in flight, but
        asyncio still feeds EOF/errors to the stream on FIN/RST — polling
        ``at_eof``/``exception`` observes the disconnect without consuming
        anything from the protocol.
        """
        token = state.active_token
        while token is not None and not token.cancelled:
            if reader.at_eof() or reader.exception() is not None:
                if state.cancel_active("client disconnected"):
                    self.metrics.counter(
                        "server_disconnect_cancels_total"
                    ).inc()
                    logger.info(
                        "event=disconnect-cancel conn=%d peer=%s",
                        state.conn_id, state.peer,
                    )
                return
            await asyncio.sleep(0.01)

    def _query_body(
        self, relation, served, offset, limit, token, state, started
    ) -> dict:
        """The read itself — on the loop (ungoverned) or a reader thread."""
        try:
            if served is None:
                # Catalog reads are live observability snapshots, not MVCC
                # reads: they run against the catalog providers.
                result = self.conn.query(relation, token=token)
            else:
                result = served.result
            if token is not None:
                token.check()
            rows, how, served_rows = self._encode_rows(
                served, result, offset, limit
            )
            if token is not None:
                token.check()
        except ResilienceError as exc:
            return self._query_abort(exc, relation, state, started)
        except KeyError as exc:
            return _error("unknown_relation", str(exc))
        except (ValueError, RuntimeError) as exc:
            return _error("bad_request", str(exc))
        response = _RowsResponse(
            ok=True, relation=relation, rows=rows, count=result.count()
        )
        response.how, response.served, response.entry = (
            how, served_rows, served
        )
        if served is not None:
            response["snapshot_version"] = result.snapshot_version
        return response

    def _encode_rows(self, served, result, offset, limit):
        """``(rows in wire form, how they got there, how many)``.

        A dictionary-encoded result goes from ids to bytes through the
        symbol table's fragment memo — a page is one join over its ids —
        and an unbounded read of a snapshot is encoded once per version.
        A result holding raw values (``interning=False``, the catalog)
        takes the reference encoding.  ``how`` labels
        ``server_rows_served_total``.
        """
        symbols = result.symbols
        if symbols is None:
            page = list(result.rows(offset=offset, limit=limit))
            return encode_value_rows(page), "raw", len(page)
        whole = offset == 0 and limit is None
        if whole and served.body is not None:
            return served.body, "memo", result.count()
        page = result.stored_rows(offset, limit)
        rows = encode_id_rows(symbols, page, result.schema.arity)
        if whole:
            served.body = rows
        return rows, "fragments", len(page)

    def _query_abort(
        self, exc: ResilienceError, relation: str, state: ConnectionState,
        started: float,
    ) -> dict:
        self.metrics.counter(
            "server_query_aborts_total", code=exc.code
        ).inc()
        logger.warning(
            "event=query-abort conn=%d relation=%s code=%s reason=%s "
            "elapsed_ms=%.1f",
            state.conn_id, relation, exc.code, exc.reason,
            (time.perf_counter() - started) * 1000.0,
        )
        return {"ok": False, "error": exc.to_wire()}

    def _snapshot_result(self, relation: str):
        """The shared memo entry for ``relation`` at the latest version.

        Raises the same errors as :meth:`Connection.query_snapshot`.  The
        entry's result is cached (and stays pinned) until a read at a
        newer version evicts it; callers must not ``release`` it.
        """
        latest = self.snapshots.latest_version()
        cached = self._result_cache.get((relation, latest))
        if cached is not None:
            return cached
        served = _Served(self.conn.query_snapshot(relation))
        version = served.result.snapshot_version
        stale = [key for key in self._result_cache if key[1] < version]
        for key in stale:
            # In-flight reads over an evicted entry stay valid: the rows
            # are immutable and held by the result object itself — only
            # the storage version, and the encoded body with the entry,
            # become collectable.
            self._result_cache.pop(key).result.release()
        self._result_cache[(relation, version)] = served
        return served

    async def _op_mutate(
        self, op: str, message: dict, state: ConnectionState
    ) -> dict:
        payload = self._mutation_payload(op, message)
        if "error" in payload:
            return payload["error"]
        assert self._queue is not None
        try:
            future = await self._queue.put(payload)
        except BackpressureError as exc:
            self.metrics.counter(
                "server_backpressure_total", code=exc.code
            ).inc()
            # ``enqueued: false`` — admission refused, nothing queued, so a
            # retry can never double-apply.  Clients key their retry policy
            # on exactly this flag.
            return {"ok": False, "error": exc.to_wire(), "enqueued": False}
        self.metrics.gauge("server_queue_depth").set(self._queue.depth())
        try:
            report = await future
        except BackpressureError as exc:
            self.metrics.counter(
                "server_backpressure_total", code=exc.code
            ).inc()
            # The mutation *was* admitted (then shed / failed / lost to
            # shutdown): a blind retry risks double-applying, so the flag
            # says enqueued and clients must reconcile before retrying.
            return {"ok": False, "error": exc.to_wire(), "enqueued": True}
        except (KeyError, ValueError) as exc:
            response = _error("mutation_failed", str(exc))
            response["enqueued"] = True
            return response
        state.mutations += 1
        return {
            "ok": True,
            "report": {
                "strategy": report.strategy,
                "inserted": report.inserted,
                "retracted": report.retracted,
                "propagated": report.propagated,
                "seconds": report.seconds,
            },
            "snapshot_version": self.snapshots.latest_version(),
        }

    def _mutation_payload(self, op: str, message: dict) -> Dict[str, Any]:
        if op == "apply":
            inserts = message.get("inserts") or {}
            retracts = message.get("retracts") or {}
            if not isinstance(inserts, dict) or not isinstance(retracts, dict):
                return {"error": _error(
                    "bad_request", "'apply' needs dict 'inserts'/'retracts'"
                )}
            return {"inserts": inserts, "retracts": retracts}
        relation = message.get("relation")
        rows = message.get("rows")
        if not isinstance(relation, str) or not isinstance(rows, list):
            return {"error": _error(
                "bad_request", f"'{op}' needs a 'relation' and a 'rows' list"
            )}
        batch = {relation: rows}
        if op == "insert":
            return {"inserts": batch, "retracts": None}
        return {"inserts": None, "retracts": batch}

    async def _op_explain(self, message: dict) -> dict:
        relation = message.get("relation")
        if relation is not None and not isinstance(relation, str):
            return _error("bad_request", "'relation' must be a string")
        loop = asyncio.get_running_loop()
        try:
            # explain reads live session state (plans, profile), so it runs
            # on the writer thread — serialized against mutations.
            text = await loop.run_in_executor(
                self._writer_pool, self.conn.explain, relation
            )
        except KeyError as exc:
            return _error("unknown_relation", str(exc))
        return {"ok": True, "explain": text}
