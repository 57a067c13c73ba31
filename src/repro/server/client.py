"""Wire clients: a blocking socket client and an asyncio client.

Both speak the framed protocol by default (``framed=False`` switches a
:class:`BlockingClient` to line mode — the same bytes a human would type
into ``nc``).  Rows travel as JSON arrays; the clients convert them back
to tuples so results round-trip into set comparisons against local engine
results.

Retries
-------

Both clients take an optional :class:`RetryPolicy`: bounded attempts with
exponential backoff and seeded jitter, applied to connection establishment
and to *transient* failures (a ``resource_exhausted`` response, a dropped
connection).  Mutations are special-cased for exactly-once safety: they are
retried only when the server's structured error says ``enqueued: false`` —
once a write has been admitted to the mutation queue, a blind resend could
double-apply, so the client surfaces the error instead.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.server.protocol import (
    MAX_FRAME,
    ProtocolError,
    decode_payload,
    encode_frame,
    encode_line,
)

#: Ops whose retry must be gated on the server's ``enqueued`` flag.
_MUTATION_OPS = frozenset({"insert", "retract", "apply"})

#: Taxonomy codes safe to retry after backoff (for mutations: only when
#: the response also reports the write was never enqueued).
_TRANSIENT_CODES = frozenset({"resource_exhausted"})


class ServerError(Exception):
    """A structured ``{"ok": false}`` response, raised client-side."""

    def __init__(self, error: Dict[str, Any],
                 enqueued: Optional[bool] = None) -> None:
        super().__init__(error.get("message", "server error"))
        self.code = error.get("code", "error")
        self.error = error
        #: The server's admission report for mutations: False means the
        #: write never entered the queue (safe to retry), True means it
        #: was admitted (a retry risks double-apply), None for non-mutation
        #: ops and pre-flag servers.
        self.enqueued = enqueued


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with seeded jitter.

    ``attempts`` counts total tries (1 disables retries); the delay before
    try *n+1* is ``min(max_delay, base_delay * 2**(n-1))``, shrunk by up to
    ``jitter`` (a fraction in [0, 1]) via the seeded RNG so synchronized
    clients do not retry in lockstep.
    """

    attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delays(self) -> Iterator[float]:
        """The sleep before each retry (``attempts - 1`` values)."""
        rng = random.Random(self.seed)
        for attempt in range(self.attempts - 1):
            delay = min(self.max_delay, self.base_delay * (2 ** attempt))
            yield delay * (1.0 - self.jitter * rng.random())

    def should_retry(self, op: Optional[str], error: Exception) -> bool:
        """Whether ``error`` on ``op`` is safe and useful to retry."""
        mutating = op in _MUTATION_OPS
        if isinstance(error, ServerError):
            if error.code not in _TRANSIENT_CODES:
                return False
            # Mutations: only the server's explicit "never enqueued" makes
            # a resend exactly-once-safe.
            return error.enqueued is False if mutating else True
        if isinstance(error, (ConnectionError, OSError, ProtocolError)):
            # The connection died with the request in flight: a mutation
            # may or may not have been applied — never resend blindly.
            return not mutating
        return False


def rows_to_tuples(rows: Iterable[List[Any]]) -> List[Tuple[Any, ...]]:
    return [tuple(row) for row in rows]


def _check(response: dict) -> dict:
    if not response.get("ok", False):
        raise ServerError(
            response.get("error", {}), enqueued=response.get("enqueued")
        )
    return response


class BlockingClient:
    """A synchronous client over one TCP connection.

    ::

        with BlockingClient(host, port) as client:
            client.insert("edge", [(1, 2)])
            rows = client.query("path")
    """

    def __init__(self, host: str, port: int, framed: bool = True,
                 timeout: Optional[float] = 30.0,
                 retry: Optional[RetryPolicy] = None) -> None:
        self._host = host
        self._port = port
        self._timeout = timeout
        self._framed = framed
        self._retry = retry
        self._buffer = b""
        self._next_id = 0
        self._sock = self._connect()

    def _connect(self) -> socket.socket:
        """Establish the connection, retried per the policy."""
        delays = self._retry.delays() if self._retry is not None else iter(())
        while True:
            try:
                return socket.create_connection(
                    (self._host, self._port), timeout=self._timeout
                )
            except OSError:
                delay = next(delays, None)
                if delay is None:
                    raise
                time.sleep(delay)

    def _reconnect(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        self._buffer = b""
        self._sock = self._connect()

    # -- transport ---------------------------------------------------------------

    def request(self, message: dict) -> dict:
        """One request/response round trip (raises :class:`ServerError`).

        With a :class:`RetryPolicy`, transient failures back off and retry;
        mutations are only ever resent when the server reported the write
        was never enqueued (no double-apply).
        """
        if self._retry is None:
            return self._request_once(message)
        op = message.get("op")
        delays = self._retry.delays()
        while True:
            try:
                return self._request_once(message)
            except Exception as error:
                delay = next(delays, None)
                if delay is None or not self._retry.should_retry(op, error):
                    raise
                time.sleep(delay)
                if not isinstance(error, ServerError):
                    self._reconnect()  # the transport died; rebuild it

    def _request_once(self, message: dict) -> dict:
        self._next_id += 1
        message = dict(message, id=self._next_id)
        data = (
            encode_frame(message) if self._framed else encode_line(message)
        )
        self._sock.sendall(data)
        response = self._read_response()
        if response.get("id") != self._next_id:
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match "
                f"request id {self._next_id}"
            )
        return _check(response)

    def _recv(self) -> bytes:
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ProtocolError("server closed the connection")
        return chunk

    def _read_response(self) -> dict:
        if not self._framed:
            while b"\n" not in self._buffer:
                self._buffer += self._recv()
            line, self._buffer = self._buffer.split(b"\n", 1)
            return decode_payload(line)
        while len(self._buffer) < 4:
            self._buffer += self._recv()
        length = int.from_bytes(self._buffer[:4], "big")
        if length > MAX_FRAME:
            raise ProtocolError(f"oversized response frame ({length})")
        end = 4 + length
        if len(self._buffer) >= end:
            # Already here, possibly with the start of the next response.
            payload, self._buffer = self._buffer[4:end], self._buffer[end:]
            return decode_payload(payload)
        # A frame larger than what one recv returned: receive the rest
        # straight into one buffer of the declared length (growing a bytes
        # object chunk by chunk copies the frame once per chunk).
        payload = bytearray(length)
        filled = len(self._buffer) - 4
        payload[:filled] = self._buffer[4:]
        self._buffer = b""
        view = memoryview(payload)
        while filled < length:
            received = self._sock.recv_into(view[filled:])
            if not received:
                raise ProtocolError("server closed the connection")
            filled += received
        return decode_payload(payload)

    # -- ops ---------------------------------------------------------------------

    def ping(self) -> bool:
        return self.request({"op": "ping"}).get("pong", False)

    def query(self, relation: str, offset: int = 0,
              limit: Optional[int] = None) -> List[Tuple[Any, ...]]:
        response = self.request({
            "op": "query", "relation": relation,
            "offset": offset, "limit": limit,
        })
        return rows_to_tuples(response["rows"])

    def query_response(self, relation: str) -> dict:
        """The raw query response (rows + count + snapshot_version)."""
        return self.request({"op": "query", "relation": relation})

    def insert(self, relation: str, rows: Iterable[Iterable[Any]]) -> dict:
        return self.request({
            "op": "insert", "relation": relation,
            "rows": [list(row) for row in rows],
        })

    def retract(self, relation: str, rows: Iterable[Iterable[Any]]) -> dict:
        return self.request({
            "op": "retract", "relation": relation,
            "rows": [list(row) for row in rows],
        })

    def apply(self, inserts: Optional[Dict[str, list]] = None,
              retracts: Optional[Dict[str, list]] = None) -> dict:
        return self.request({
            "op": "apply", "inserts": inserts or {}, "retracts": retracts or {},
        })

    def explain(self, relation: Optional[str] = None) -> str:
        return self.request({"op": "explain", "relation": relation})["explain"]

    def metrics(self) -> Dict[str, Any]:
        return self.request({"op": "metrics"})["metrics"]

    def server_stats(self) -> Dict[str, Any]:
        return self.request({"op": "server_stats"})["stats"]

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        try:
            self.request({"op": "close"})
        except (OSError, ProtocolError, ServerError):
            pass
        finally:
            self._sock.close()

    def __enter__(self) -> "BlockingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AsyncClient:
    """An asyncio client (the load generator's building block)."""

    def __init__(self) -> None:
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._next_id = 0
        self._host: Optional[str] = None
        self._port: Optional[int] = None
        self._retry: Optional[RetryPolicy] = None

    @classmethod
    async def connect(cls, host: str, port: int,
                      retry: Optional[RetryPolicy] = None) -> "AsyncClient":
        client = cls()
        client._host, client._port, client._retry = host, port, retry
        await client._open()
        return client

    async def _open(self) -> None:
        assert self._host is not None and self._port is not None
        delays = self._retry.delays() if self._retry is not None else iter(())
        while True:
            try:
                self._reader, self._writer = await asyncio.open_connection(
                    self._host, self._port
                )
                return
            except OSError:
                delay = next(delays, None)
                if delay is None:
                    raise
                await asyncio.sleep(delay)

    async def _reopen(self) -> None:
        if self._writer is not None:
            self._writer.close()
        await self._open()

    async def request(self, message: dict) -> dict:
        """One round trip, retried per the policy (mutations only when the
        server reported ``enqueued: false`` — see :class:`RetryPolicy`)."""
        if self._retry is None:
            return await self._request_once(message)
        op = message.get("op")
        delays = self._retry.delays()
        while True:
            try:
                return await self._request_once(message)
            except asyncio.IncompleteReadError as error:
                delay = next(delays, None)
                if delay is None or op in _MUTATION_OPS:
                    raise
                await asyncio.sleep(delay)
                await self._reopen()
            except Exception as error:
                delay = next(delays, None)
                if delay is None or not self._retry.should_retry(op, error):
                    raise
                await asyncio.sleep(delay)
                if not isinstance(error, ServerError):
                    await self._reopen()

    async def _request_once(self, message: dict) -> dict:
        assert self._reader is not None and self._writer is not None
        self._next_id += 1
        message = dict(message, id=self._next_id)
        self._writer.write(encode_frame(message))
        await self._writer.drain()
        prefix = await self._reader.readexactly(4)
        length = int.from_bytes(prefix, "big")
        if length > MAX_FRAME:
            raise ProtocolError(f"oversized response frame ({length})")
        payload = await self._reader.readexactly(length)
        return _check(decode_payload(payload))

    async def query(self, relation: str) -> List[Tuple[Any, ...]]:
        response = await self.request({"op": "query", "relation": relation})
        return rows_to_tuples(response["rows"])

    async def insert(self, relation: str, rows: Iterable[Iterable[Any]]) -> dict:
        return await self.request({
            "op": "insert", "relation": relation,
            "rows": [list(row) for row in rows],
        })

    async def close(self) -> None:
        if self._writer is None:
            return
        try:
            await self.request({"op": "close"})
        except (OSError, ProtocolError, ServerError, asyncio.IncompleteReadError):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
