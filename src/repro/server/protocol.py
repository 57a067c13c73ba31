"""The wire protocol: length-prefixed JSON frames, with an ``nc`` line mode.

Framed mode (the default, what the clients speak)
-------------------------------------------------

Each message is a 4-byte big-endian length prefix followed by exactly that
many bytes of UTF-8 JSON.  :data:`MAX_FRAME` caps a frame below 2**24
bytes, so the first prefix byte of a well-formed frame is always ``0x00``
— which is how the server tells the two modes apart from the very first
byte a connection sends (no printable text starts with a NUL).

Line mode (debugging)
---------------------

One JSON document per ``\n``-terminated line, so a human can drive the
server with ``nc localhost 7777`` and a text editor.  Responses come back
as single lines too.  A connection's mode is fixed by its first byte.

Values crossing the wire are JSON: ints, floats, strings, booleans, None
pass through; anything else (rows may hold arbitrary Python values in
identity-codec storage) is sent as its ``repr`` string.  Row tuples become
JSON arrays and come back as lists — clients that need tuples convert.

Rows as bytes
-------------

:func:`jsonify_value` + :func:`encode_payload` are the wire rule, and
:func:`jsonify_rows` / :func:`encode_frame` / :func:`encode_line` apply it
to whole messages: they encode every non-row message and are the reference
every other encoding here is held to, byte for byte.  Query responses do
not go through them row by row.  Compact JSON is context-free, so the text
of a value does not depend on where it stands:

* :func:`value_fragment` is the rule applied to *one* value.  Symbol ids
  are dense and permanent, so the server keeps ``value_fragment`` of every
  symbol in an id-indexed list (``SymbolTable.memo``) and
  :func:`encode_id_rows` writes a row as ``[f[a],f[b]]`` straight from its
  ids: no decode, no per-row list, no ``json.dumps`` pass.  Fragments are
  ``ensure_ascii`` text, so the UTF-8 encode of a part is a copy.
* :class:`EncodedRows` is a ``rows`` value in that form — ``bytes`` parts of
  :data:`_ROWS_PER_PART` rows — and :func:`encode_response` splices it into
  the envelope, which still goes through :func:`encode_payload`: the keys
  before ``rows`` and the keys after it are dumped as two objects and the
  parts are written between them.  Framed and line mode share the splice.
  The frame length is the sum of the part lengths, known (and checked
  against :data:`MAX_FRAME`) before the first byte is written.

The bytes a peer receives are therefore exactly what the reference
functions produce; only where they are computed, and how often, changed.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
from typing import (
    Any,
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.resilience.errors import ResilienceError, ResourceExhausted

#: Largest frame either side may send: just under 2**24 keeps the first
#: length byte 0x00 (the framed/line mode discriminator) and bounds the
#: buffering a hostile peer can force.
MAX_FRAME = (1 << 24) - 1

_PREFIX_LEN = 4


class ProtocolError(ResilienceError):
    """A malformed or truncated message; the server closes the connection.

    Part of the resilience taxonomy (wire code ``protocol``) so framing
    failures serialize like every other structured error.  Oversized
    frames raise :class:`~repro.resilience.errors.ResourceExhausted` with
    ``reason="oversize"`` instead — the message is well-formed, it just
    exceeds a bounded resource.
    """

    code = "protocol"


def jsonify_value(value: Any) -> Any:
    """``value`` as a JSON-representable value (repr fallback)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


#: The exact types :func:`jsonify_value` passes through untouched.
_JSON_TYPES = frozenset({type(None), bool, int, float, str})


def jsonify_rows(rows: Iterable[Tuple[Any, ...]]) -> List[List[Any]]:
    """Rows as JSON arrays, each column made JSON-safe."""
    out = list(map(list, rows))
    # One C-level pass over the value types decides whether any value needs
    # the per-value rule at all; rows of plain JSON scalars (the common
    # case) are done after the ``list`` conversion.
    if _JSON_TYPES.issuperset(map(type, itertools.chain.from_iterable(out))):
        return out
    return [[jsonify_value(value) for value in row] for row in out]


#: One encoder for every message.  ``check_circular=False``: messages are
#: built here or parsed from JSON, never self-referential, and the per-list
#: marker bookkeeping is a third of the cost of encoding a row.
_ENCODER = json.JSONEncoder(
    separators=(",", ":"), default=repr, check_circular=False
)


def encode_payload(message: dict) -> bytes:
    """The message as compact UTF-8 JSON (no prefix, no newline)."""
    try:
        text = _ENCODER.encode(message)
    except RecursionError:
        # Circular or merely deep?  The checking encoder says which, with
        # the error it always raised (``ValueError`` for a cycle).
        text = json.dumps(message, separators=(",", ":"), default=repr)
    return text.encode("utf-8")


def _framed(parts: List[bytes]) -> List[bytes]:
    """``parts`` (one payload) behind their length prefix.

    The length is the sum of the part lengths, so an oversize payload is
    refused before any of it is written.
    """
    length = sum(map(len, parts))
    if length > MAX_FRAME:
        raise ResourceExhausted(
            f"frame of {length} bytes exceeds MAX_FRAME ({MAX_FRAME})",
            reason="oversize", limit=MAX_FRAME,
        )
    return [length.to_bytes(_PREFIX_LEN, "big"), *parts]


def encode_frame(message: dict) -> bytes:
    """The message as one length-prefixed frame."""
    return b"".join(_framed([encode_payload(message)]))


def encode_line(message: dict) -> bytes:
    """The message as one newline-terminated JSON line."""
    return encode_payload(message) + b"\n"


class EncodedRows(tuple):
    """A ``rows`` value already in wire form.

    A tuple of ``bytes`` parts whose concatenation is the JSON array that
    :func:`encode_payload` would have produced for the same rows.
    """

    __slots__ = ()


def value_fragment(value: Any) -> str:
    """The JSON text of one row value: the wire rule, stated once."""
    return json.dumps(jsonify_value(value))


#: Rows per part of an encoded relation: large enough that the per-part
#: overhead vanishes, small enough that no relation-sized string is built.
_ROWS_PER_PART = 1024


@functools.lru_cache(maxsize=None)
def _row_joiner(arity: int) -> Callable[[Sequence[str], Sequence[tuple]], str]:
    """``(fragments, id rows) -> "[a,b],[c,d]"`` compiled for one arity.

    The same unrolling as ``relational.symbols._row_codec``: one f-string
    per row instead of a generator frame and a join per row.
    """
    names = [f"s{i}" for i in range(arity)]
    target = "".join(f"{name}, " for name in names) or "_"
    body = ",".join(f"{{fragments[{name}]}}" for name in names)
    source = (
        "def join_rows(fragments, rows):\n"
        f"    return ','.join([f'[{body}]' for {target} in rows])\n"
    )
    namespace: dict = {}
    exec(compile(source, f"<repro-protocol:arity{arity}>", "exec"), namespace)  # noqa: S102
    return namespace["join_rows"]


def encode_id_rows(symbols, rows: Sequence[tuple], arity: int) -> EncodedRows:
    """Rows of symbol ids as their wire form, through per-symbol fragments.

    ``symbols`` is the rows' ``SymbolTable``; its memo of
    :func:`value_fragment` is extended to the largest id in ``rows`` and no
    further.  No value is decoded and no per-row object outlives its part.
    """
    fragments = symbols.memo(
        value_fragment,
        1 + max(itertools.chain.from_iterable(rows), default=-1),
    )
    join = _row_joiner(arity)
    parts = [b"["]
    for start in range(0, len(rows), _ROWS_PER_PART):
        if start:
            parts.append(b",")
        parts.append(
            join(fragments, rows[start:start + _ROWS_PER_PART]).encode("utf-8")
        )
    parts.append(b"]")
    return EncodedRows(parts)


def encode_value_rows(rows: Iterable[Tuple[Any, ...]]) -> EncodedRows:
    """Rows of raw values as their wire form (the reference encoding)."""
    return EncodedRows((encode_payload(jsonify_rows(rows)),))


def encode_response(message: dict, framed: bool) -> List[bytes]:
    """One response as the ``bytes`` parts to write, in order.

    Equal, concatenated, to :func:`encode_frame` / :func:`encode_line` of
    the same message with its ``rows`` as a list of lists.  When ``rows``
    is an :class:`EncodedRows` the envelope around it still goes through
    :func:`encode_payload` and the rows are spliced in as bytes.
    """
    rows = message.get("rows")
    if isinstance(rows, EncodedRows):
        keys = list(message)
        at = keys.index("rows")
        head = encode_payload({key: message[key] for key in keys[:at]})
        tail = encode_payload({key: message[key] for key in keys[at + 1:]})
        parts = [
            head[:-1] + (b',"rows":' if at else b'"rows":'), *rows,
            b"," + tail[1:] if len(tail) > 2 else tail[1:],
        ]
    else:
        parts = [encode_payload(message)]
    if framed:
        return _framed(parts)
    parts.append(b"\n")
    return parts


def decode_frame(data: bytes) -> dict:
    """Parse one frame's payload bytes (without the prefix)."""
    return decode_payload(data)


def decode_payload(data: bytes) -> dict:
    try:
        message = json.loads(data)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed JSON payload: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"expected a JSON object, got {type(message).__name__}"
        )
    return message


async def read_frame(
    reader: asyncio.StreamReader, first_byte: bytes = b""
) -> Optional[Tuple[dict, int]]:
    """Read one framed message; None on clean EOF at a frame boundary.

    ``first_byte`` is the already-consumed mode-detection byte of the
    length prefix (the connection's first frame only).  Returns the parsed
    message and the total bytes consumed (prefix included).
    """
    try:
        prefix = first_byte + await reader.readexactly(
            _PREFIX_LEN - len(first_byte)
        )
    except asyncio.IncompleteReadError as exc:
        if not exc.partial and not first_byte:
            return None
        raise ProtocolError("connection closed mid-frame") from None
    length = int.from_bytes(prefix, "big")
    if length > MAX_FRAME:
        raise ResourceExhausted(
            f"declared frame length {length} exceeds MAX_FRAME ({MAX_FRAME})",
            reason="oversize", limit=MAX_FRAME,
        )
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-frame") from None
    return decode_payload(payload), _PREFIX_LEN + length


async def read_line(
    reader: asyncio.StreamReader, first_byte: bytes = b""
) -> Optional[Tuple[dict, int]]:
    """Read one line-mode message; None on clean EOF."""
    line = await reader.readline()
    if not line and not first_byte:
        return None
    raw = first_byte + line
    data = raw.strip()
    if not data:
        return {}, len(raw)
    if len(data) > MAX_FRAME:
        raise ResourceExhausted(
            "line exceeds MAX_FRAME", reason="oversize", limit=MAX_FRAME,
        )
    return decode_payload(data), len(raw)
