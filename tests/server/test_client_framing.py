"""``BlockingClient`` response framing against a scripted socket.

The client reads the length prefix from whatever one ``recv`` returns, then
receives the rest of a large frame straight into one buffer of the declared
length.  However the bytes are cut up in transit — a byte at a time, across
the prefix, a frame and a half at once — every response must come out
whole, and what belongs to the next response must still be there for it.
"""

import pytest

from repro.server.client import BlockingClient
from repro.server.protocol import ProtocolError, encode_frame, encode_line


class ScriptedSocket:
    """A socket whose receive side hands out ``data`` in ``chunk`` bytes."""

    def __init__(self, data: bytes, chunk: int) -> None:
        self._data = memoryview(data)
        self._chunk = chunk
        self.sent = b""

    def _take(self, limit: int) -> memoryview:
        taken = self._data[:min(limit, self._chunk)]
        self._data = self._data[len(taken):]
        return taken

    def recv(self, limit: int) -> bytes:
        return bytes(self._take(limit))

    def recv_into(self, buffer) -> int:
        taken = self._take(len(buffer))
        buffer[:len(taken)] = taken
        return len(taken)

    def sendall(self, data: bytes) -> None:
        self.sent += data

    def close(self) -> None:
        pass


def client_over(sock, framed=True) -> BlockingClient:
    client = BlockingClient.__new__(BlockingClient)
    client._framed = framed
    client._retry = None
    client._buffer = b""
    client._next_id = 0
    client._sock = sock
    return client


#: Three responses as one server would pipeline them: a small one, one far
#: larger than a single 64 kB ``recv``, and a small one right behind it.
RESPONSES = [
    {"ok": True, "pong": True, "id": 1},
    {"ok": True, "rows": [[i, f"n{i}é"] for i in range(8_000)], "id": 2},
    {"ok": True, "rows": [], "count": 0, "id": 3},
]


@pytest.mark.parametrize("chunk", [1, 7, 65536, 1 << 30])
def test_responses_survive_any_fragmentation(chunk):
    stream = b"".join(encode_frame(response) for response in RESPONSES)
    assert len(encode_frame(RESPONSES[1])) > 2 * 65536
    client = client_over(ScriptedSocket(stream, chunk))
    for expected in RESPONSES:
        assert client._read_response() == expected
    assert client._buffer == b""


def test_surplus_behind_a_small_frame_is_kept_for_the_next_response():
    stream = encode_frame(RESPONSES[0]) + encode_frame(RESPONSES[2])
    client = client_over(ScriptedSocket(stream, 1 << 30))
    assert client._read_response() == RESPONSES[0]
    assert client._buffer == encode_frame(RESPONSES[2])
    assert client._read_response() == RESPONSES[2]


@pytest.mark.parametrize("chunk", [1, 7, 65536])
def test_a_connection_closed_mid_frame_is_a_protocol_error(chunk):
    frame = encode_frame(RESPONSES[1])
    client = client_over(ScriptedSocket(frame[:len(frame) // 2], chunk))
    with pytest.raises(ProtocolError):
        client._read_response()


@pytest.mark.parametrize("chunk", [7, 65536])
def test_line_mode_reads_one_line_per_response(chunk):
    stream = b"".join(encode_line(response) for response in RESPONSES)
    client = client_over(ScriptedSocket(stream, chunk), framed=False)
    for expected in RESPONSES:
        assert client._read_response() == expected
