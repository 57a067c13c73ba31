"""The concurrent query server: an asyncio front end over one ``Database``.

This package turns the embedded engine into a network service: many client
connections multiplex over one shared :class:`~repro.api.database.Database`,
reads are snapshot-isolated via MVCC storage versions
(:mod:`repro.incremental.snapshots` — readers never block behind a writer's
fixpoint), and mutations funnel through a bounded single-writer queue with
configurable admission control (block / reject / shed).

Layering: the engine core never imports this package — ``repro.server``
sits strictly *above* ``repro.api``, the same one-way rule the telemetry
sinks and the introspection catalog follow.

Entry points
------------

* :class:`QueryServer` — the asyncio server (own the event loop yourself).
* :class:`ServerThread` — run a server on a background thread
  (``with ServerThread(db) as srv: ...``; used by tests, benches, demos).
* :class:`BlockingClient` / :class:`AsyncClient` — wire clients.
* ``python -m repro.server --program rules.dl`` — standalone process.
"""

from repro._lazy import lazy_exports
from repro.server.backpressure import (
    BackpressureConfig,
    BackpressureError,
    MutationQueue,
)
from repro.server.protocol import (
    MAX_FRAME,
    ProtocolError,
    decode_frame,
    encode_frame,
    encode_line,
    jsonify_rows,
)
from repro.server.runtime import ServerThread
from repro.server.server import QueryServer
from repro.server.sessions import ConnectionState, SessionRegistry

# A serving process never runs the wire clients.
__getattr__, __dir__ = lazy_exports(
    __name__, {"repro.server.client": ("AsyncClient", "BlockingClient")}
)[:2]

__all__ = [
    "AsyncClient",
    "BackpressureConfig",
    "BackpressureError",
    "BlockingClient",
    "ConnectionState",
    "MAX_FRAME",
    "MutationQueue",
    "ProtocolError",
    "QueryServer",
    "ServerThread",
    "SessionRegistry",
    "decode_frame",
    "encode_frame",
    "encode_line",
    "jsonify_rows",
]
