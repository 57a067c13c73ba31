"""Property tests: snapshot isolation under concurrent readers and a writer.

The serving contract is snapshot isolation: any read served from an MVCC
snapshot equals what a sequential evaluation of the same program observes
at that committed version — never a torn in-between state — no matter how
many reader threads race the writer's incremental fixpoint.  The oracle is
built first by replaying the same mutation batches sequentially and
recording the ``path`` relation after each commit; then reader threads
hammer acquire/read/release against a live session while a writer thread
replays the batches, and every observation ``(version, rows)`` must equal
the oracle at exactly that version.

Runs across the physical executors (pushdown and vectorized), the
raw-value store and the JIT, since each exercises a different storage
write path under the same MVCC layer.

The second half holds the *maintained order* to the same standard: a
snapshot result derives its canonical row order from the previous ordered
version instead of sorting (see :mod:`repro.incremental.snapshots`), and
after every step of a random insert/retract sequence every ordered access
must equal a from-scratch :func:`~repro.api.result.ordered_rows` of the
decoded rows — whatever the codec, the column types, the read cadence, the
strategy that produced the version, and whether the delta was merged or the
view rebuilt.

The third half holds the *wire encoding* to the reference functions: the
bytes the server writes for any read — interned or raw storage, framed or
line mode, arity 0-4, full reads (built, then memoised), pages, ``limit=0``,
offsets past the end, before and after mutation batches that bring new
symbols — equal ``encode_frame`` / ``encode_line`` of the plain response
built with ``jsonify_rows(result.rows(offset, limit))``.
"""

import json
import socket
import threading
import time
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyses.micro import build_transitive_closure_program
from repro.api import result as result_module
from repro.api.database import Database
from repro.api.result import ordered_rows
from repro.core.config import EngineConfig
from repro.datalog.dsl import Program
from repro.datalog.literals import Atom
from repro.datalog.terms import Variable
from repro.incremental import IncrementalSession
from repro.relational.symbols import SymbolTable
from repro.server import BlockingClient, ServerThread, protocol
from repro.server.protocol import (
    EncodedRows,
    encode_frame,
    encode_id_rows,
    encode_line,
    encode_payload,
    encode_response,
    encode_value_rows,
    jsonify_rows,
    jsonify_value,
    value_fragment,
)

EDGES = [(1, 2), (2, 3), (3, 4), (4, 5)]

#: (inserts, retracts) per committed batch, exercising growth, DRed
#: retraction and re-insertion.
BATCHES = [
    ({"edge": [(5, 6)]}, None),
    ({"edge": [(6, 7), (7, 8)]}, None),
    (None, {"edge": [(2, 3)]}),
    ({"edge": [(2, 3)]}, None),
    (None, {"edge": [(1, 2), (4, 5)]}),
    ({"edge": [(8, 9), (9, 1)]}, None),
]

READERS = 4

CONFIGS = [
    pytest.param(lambda: EngineConfig.interpreted().with_(
        executor="pushdown"), id="pushdown"),
    pytest.param(lambda: EngineConfig.interpreted(), id="vectorized"),
    pytest.param(lambda: EngineConfig.interpreted().with_(
        executor="pushdown", interning=False), id="pushdown-raw"),
    pytest.param(lambda: EngineConfig.jit("lambda"), id="jit-lambda"),
]


def sequential_oracle(make_config):
    """``{version: frozenset(path rows)}`` from a sequential replay."""
    session = IncrementalSession(
        build_transitive_closure_program(EDGES), make_config()
    )
    session.enable_snapshots()
    expected = {0: frozenset(session.fetch("path"))}
    for version, (inserts, retracts) in enumerate(BATCHES, start=1):
        session.apply(inserts, retracts)
        expected[version] = frozenset(session.fetch("path"))
    return expected


@pytest.mark.parametrize("make_config", CONFIGS)
def test_every_concurrent_read_equals_a_committed_version(make_config):
    expected = sequential_oracle(make_config)

    session = IncrementalSession(
        build_transitive_closure_program(EDGES), make_config()
    )
    manager = session.enable_snapshots()

    done = threading.Event()
    observations = []
    observed_lock = threading.Lock()
    failures = []

    def reader():
        local = []
        try:
            while not done.is_set():
                snapshot = manager.acquire()
                try:
                    local.append(
                        (snapshot.version, snapshot.decoded_rows("path"))
                    )
                finally:
                    manager.release(snapshot.version)
        except Exception as exc:  # surfaced after join
            failures.append(exc)
        with observed_lock:
            observations.extend(local)

    def writer():
        try:
            for inserts, retracts in BATCHES:
                session.apply(inserts, retracts)
                time.sleep(0.002)  # widen the interleaving window
        except Exception as exc:
            failures.append(exc)
        finally:
            done.set()

    threads = [threading.Thread(target=reader) for _ in range(READERS)]
    threads.append(threading.Thread(target=writer))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures

    assert observations, "readers never completed a single read"
    for version, rows in observations:
        assert version in expected, f"read a never-committed version {version}"
        assert rows == expected[version], (
            f"read at version {version} saw a torn state: "
            f"{sorted(rows ^ expected[version])[:5]} differ"
        )

    # Final state converged and GC kept only the latest version.
    final = manager.latest()
    assert final.version == len(BATCHES)
    assert final.decoded_rows("path") == expected[len(BATCHES)]
    manager.collect()
    assert manager.live_versions() == (len(BATCHES),)
    assert manager.pin_count() == 0


# -- the maintained order ---------------------------------------------------------

edges_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=7),
              st.integers(min_value=0, max_value=7)),
    min_size=1, max_size=16,
)
mutations_strategy = st.lists(
    st.tuples(
        st.booleans(),  # True = retract (when possible), False = insert
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1, max_size=12,
)

#: Node labellings: comparable ints, comparable strs, and a mix that makes
#: rows incomparable (the ``repr``-keyed order decides).
DOMAINS = {
    "int": lambda node: node,
    "str": lambda node: f"n{node}",
    "mixed": lambda node: node if node % 2 else f"n{node}",
}
#: Which versions get read: all of them; only every third (the delta spans
#: unread versions); all, plus a republished unchanged state in between.
CADENCES = ("every", "third", "republish")


def proper_edges(edges):
    """The drawn edges minus self-loops (never empty)."""
    return [edge for edge in edges if edge[0] != edge[1]] or [(0, 1)]


@contextmanager
def snapshot_connection(program, forced, config=None):
    """A connection with MVCC snapshots on, closed with its database.

    ``forced`` derives across any delta, so eight-node graphs reach the
    merge as often as the 60k-row relations it is sized for; otherwise the
    module's own threshold decides (and mostly rebuilds at this scale).
    """
    with pytest.MonkeyPatch.context() as patch:
        if forced:
            patch.setattr(result_module, "_MERGE_MAX_DELTA_SHARE", float("inf"))
        with Database(program, config) as database:
            conn = database.connect()
            conn.session.enable_snapshots()
            yield conn


def apply_mutation(conn, live, label, mutation):
    """One insert or retract on ``edge``; False when it is a no-op draw."""
    retract, a, b = mutation
    if retract and live:
        victim = sorted(live)[(a * 8 + b) % len(live)]
        conn.retract_facts("edge", [tuple(map(label, victim))])
        live.discard(victim)
    elif a != b:
        conn.insert_facts("edge", [(label(a), label(b))])
        live.add((a, b))
    else:
        return False
    return True


def assert_ordered_like_scratch(result, decoded_rows, page_seed):
    """Every ordered access of a *fresh* ``result`` against the oracle.

    Pages first: they run on the undecoded order; ``to_list`` memoises the
    decoded view, and ``rows()`` then serves from the memo.
    """
    expected = list(ordered_rows(decoded_rows))
    size = len(expected)
    for step in range(3):
        offset = (page_seed * 7 + step * 5) % (size + 2)
        limit = (page_seed + step) % 5
        assert list(result.rows(offset=offset, limit=limit)) == (
            expected[offset:offset + limit]
        )
    assert result.first() == (expected[0] if expected else None)
    assert result.to_list() == expected
    assert list(result.rows()) == expected
    assert list(result.rows(offset=1, limit=3)) == expected[1:4]


@pytest.mark.parametrize("forced", [False, True], ids=["threshold", "merge"])
@pytest.mark.parametrize("cadence", CADENCES)
@pytest.mark.parametrize("domain", sorted(DOMAINS))
@pytest.mark.parametrize("interning", [True, False], ids=["interned", "raw"])
@settings(max_examples=5, deadline=None)
@given(edges=edges_strategy, mutations=mutations_strategy)
def test_maintained_order_equals_scratch_order(
    interning, domain, cadence, forced, edges, mutations
):
    label = DOMAINS[domain]
    edges = proper_edges(edges)
    program = build_transitive_closure_program(
        [(label(a), label(b)) for a, b in edges]
    )
    config = EngineConfig.interpreted().with_(interning=interning)
    with snapshot_connection(program, forced, config) as conn:
        session = conn.session
        live = set(edges)
        assert_ordered_like_scratch(
            conn.query_snapshot("path"), session.fetch("path"), 0
        )
        for step, mutation in enumerate(mutations, start=1):
            if not apply_mutation(conn, live, label, mutation):
                continue
            if cadence == "third" and step % 3:
                continue
            assert_ordered_like_scratch(
                conn.query_snapshot("path"), session.fetch("path"), step
            )
            if cadence == "republish":
                session.publish_snapshot()
                assert_ordered_like_scratch(
                    conn.query_snapshot("path"), session.fetch("path"), step
                )


def build_unreachable_program(edges):
    """tc plus a negated stratum: every mutation takes the recompute fallback."""
    program = build_transitive_closure_program(edges, name="unreachable")
    x, y = Variable("x"), Variable("y")
    program.add_rule(Atom("node", (x,)), [Atom("edge", (x, y))])
    program.add_rule(Atom("node", (y,)), [Atom("edge", (x, y))])
    program.add_rule(
        Atom("unreachable", (x, y)),
        [Atom("node", (x,)), Atom("node", (y,)), ~Atom("path", (x, y))],
    )
    return program


@pytest.mark.parametrize("forced", [False, True], ids=["threshold", "merge"])
@pytest.mark.parametrize("domain", sorted(DOMAINS))
@settings(max_examples=5, deadline=None)
@given(edges=edges_strategy, mutations=mutations_strategy)
def test_order_is_maintained_across_recompute_fallbacks(
    domain, forced, edges, mutations
):
    label = DOMAINS[domain]
    edges = proper_edges(edges)
    program = build_unreachable_program(
        [(label(a), label(b)) for a, b in edges]
    )
    with snapshot_connection(program, forced) as conn:
        session = conn.session
        live = set(edges)
        for relation in ("path", "unreachable"):
            assert_ordered_like_scratch(
                conn.query_snapshot(relation), session.fetch(relation), 0
            )
        for step, mutation in enumerate(mutations, start=1):
            if not apply_mutation(conn, live, label, mutation):
                continue
            assert conn.last_report.strategy == "recompute"
            for relation in ("path", "unreachable"):
                assert_ordered_like_scratch(
                    conn.query_snapshot(relation), session.fetch(relation),
                    step,
                )


@pytest.mark.parametrize("forced", [False, True], ids=["threshold", "merge"])
@settings(max_examples=10, deadline=None)
@given(edges=edges_strategy, mutations=mutations_strategy)
def test_order_is_maintained_across_restore_fixpoint(forced, edges, mutations):
    """A checkpoint install swaps the whole state in; the next read derives
    from whatever was ordered last, across the swap, in either direction."""
    edges = proper_edges(edges)
    program = build_transitive_closure_program(edges)
    with snapshot_connection(program, forced) as conn:
        session = conn.session
        storage = session.storage
        saved = {
            name: (set(storage.tuples(name)), set(storage.base_rows(name)))
            for name in ("edge", "path")
        }
        saved_rows = session.fetch("path")
        live = set(edges)
        for step, mutation in enumerate(mutations, start=1):
            if apply_mutation(conn, live, lambda node: node, mutation):
                assert_ordered_like_scratch(
                    conn.query_snapshot("path"), session.fetch("path"), step
                )
        session.restore_fixpoint(saved)
        assert session.fetch("path") == saved_rows
        assert_ordered_like_scratch(
            conn.query_snapshot("path"), saved_rows, len(mutations)
        )


@pytest.mark.parametrize("forced", [False, True], ids=["threshold", "merge"])
@settings(max_examples=10, deadline=None)
@given(edges=edges_strategy, mutations=mutations_strategy)
def test_a_pinned_result_pages_identically_while_later_versions_derive_from_it(
    forced, edges, mutations
):
    edges = proper_edges(edges)
    program = build_transitive_closure_program(edges)
    with snapshot_connection(program, forced) as conn:
        session = conn.session
        pinned = conn.query_snapshot("path")
        pages = [list(pinned.rows(offset=offset, limit=4))
                 for offset in range(0, pinned.count() + 4, 4)]
        ordered = pinned._ordered()
        before = list(ordered)
        live = set(edges)
        for step, mutation in enumerate(mutations[:3], start=1):
            if apply_mutation(conn, live, lambda node: node, mutation):
                assert_ordered_like_scratch(
                    conn.query_snapshot("path"), session.fetch("path"), step
                )
        assert pinned._ordered() is ordered and list(ordered) == before
        assert pages == [list(pinned.rows(offset=offset, limit=4))
                         for offset in range(0, pinned.count() + 4, 4)]


@pytest.mark.parametrize("forced", [False, True], ids=["threshold", "merge"])
@settings(max_examples=10, deadline=None)
@given(edges=edges_strategy, mutations=mutations_strategy)
def test_a_late_ordering_old_pin_reads_right_and_leaves_the_newer_base(
    forced, edges, mutations
):
    edges = proper_edges(edges)
    program = build_transitive_closure_program(edges)
    with snapshot_connection(program, forced) as conn:
        session = conn.session
        manager = session.snapshots
        old = conn.query_snapshot("path")  # pinned now, ordered last
        old_rows = session.fetch("path")
        live = set(edges)
        for mutation in mutations:
            apply_mutation(conn, live, lambda node: node, mutation)
        new = conn.query_snapshot("path")
        assert_ordered_like_scratch(new, session.fetch("path"), 1)
        carrier = manager.order_carrier("path", new.snapshot_version)
        base_rows, base_ordered = carrier.base()
        assert base_rows is manager.latest().rows_of("path")
        # The old pin orders now — from the *newer* base, backwards.
        assert_ordered_like_scratch(old, old_rows, 2)
        kept_rows, kept_ordered = carrier.base()
        assert kept_rows is base_rows and kept_ordered is base_ordered


# -- the wire encoding ------------------------------------------------------------
#
# The server writes a query response without ever building the response the
# reference functions encode: rows go from symbol ids to bytes through the
# table's fragment memo, an unbounded read is encoded once per version, and
# the envelope is spliced around the result.  Whatever it does, the bytes on
# the socket must be ``encode_frame`` / ``encode_line`` of the plain dict
# built with ``jsonify_rows(result.rows(offset, limit))``.

NAN = float("nan")

#: Values JSON can carry: these also arrive in mutation batches, so they
#: extend the fragment table mid-stream.
json_values = st.one_of(
    st.integers(min_value=-10**20, max_value=10**20),
    st.text(max_size=5),
    st.sampled_from([
        "", '"', "\\", '\\"', "\n\t\r\x00\x1f\x7f", " ", "é",
        "\U0001F600", "\ud800", "null", "[1,2]",
    ]),
    st.sampled_from([NAN, float("inf"), float("-inf"), 2.5, -0.0, 1e300]),
    st.none(),
    st.booleans(),
)
#: ... plus values that take the ``repr`` fallback (initial facts only).
stored_values = st.one_of(
    json_values,
    st.tuples(st.integers(0, 3), st.text(max_size=2)),
    st.frozensets(st.integers(0, 3), max_size=2),
)


def rows_of(arity, values, max_size):
    return st.lists(st.tuples(*[values] * arity), max_size=max_size)


@st.composite
def served_relations(draw):
    """``(arity, initial rows, [(retract?, rows) ...])``."""
    arity = draw(st.integers(min_value=0, max_value=4))
    initial = draw(rows_of(arity, stored_values, 12))
    batches = draw(st.lists(
        st.tuples(st.booleans(), rows_of(arity, json_values, 4)),
        max_size=3,
    ))
    return arity, initial, batches


class RawWire:
    """One raw connection: requests out, response bytes back, unparsed."""

    def __init__(self, host, port, framed):
        self.framed = framed
        self.sock = socket.create_connection((host, port), timeout=30)
        self.buffer = b""

    def _fill(self):
        chunk = self.sock.recv(65536)
        assert chunk, "server closed the connection"
        self.buffer += chunk

    def exchange(self, message):
        encode = encode_frame if self.framed else encode_line
        self.sock.sendall(encode(message))
        if self.framed:
            while len(self.buffer) < 4:
                self._fill()
            size = 4 + int.from_bytes(self.buffer[:4], "big")
            while len(self.buffer) < size:
                self._fill()
        else:
            while b"\n" not in self.buffer:
                self._fill()
            size = self.buffer.index(b"\n") + 1
        response, self.buffer = self.buffer[:size], self.buffer[size:]
        return response

    def close(self):
        self.sock.close()


def reference_bytes(server, message, framed):
    """What the reference functions write for ``message`` right now."""
    relation = message["relation"]
    version = server.snapshots.latest_version()
    result = server._result_cache[(relation, version)].result
    response = {
        "ok": True, "relation": relation,
        "rows": jsonify_rows(result.rows(
            offset=message.get("offset", 0), limit=message.get("limit"),
        )),
        "count": result.count(), "snapshot_version": version,
    }
    if "id" in message:
        response["id"] = message["id"]
    return (encode_frame if framed else encode_line)(response)


def read_requests(count, seed):
    """Full reads (twice: built, then memoised), pages, the edges."""
    full = {"op": "query", "relation": "r"}
    pages = [
        {"offset": (seed * 7 + step * 3) % (count + 2),
         "limit": (seed + step * 2) % 6}
        for step in range(3)
    ]
    bounded = pages + [
        {"offset": 0, "limit": 0},
        {"offset": count + 5, "limit": 3},
        {"offset": count + 5},
        {"offset": 0, "limit": count + 7},
    ]
    messages = [dict(full, **page) for page in bounded[:2]]  # pages first
    messages += [full, dict(full, id=seed), dict(full, id={"rows": None})]
    messages += [dict(full, id=index, **page)
                 for index, page in enumerate(bounded[2:])]
    return messages


@pytest.mark.parametrize("framed", [True, False], ids=["framed", "line"])
@pytest.mark.parametrize("interning", [True, False], ids=["interned", "raw"])
@settings(max_examples=15, deadline=None)
@given(relation=served_relations())
def test_served_bytes_equal_the_reference_encoding(interning, framed, relation):
    arity, initial, batches = relation
    program = Program("served")
    program.relation("r", arity=arity).add_facts(initial)
    config = EngineConfig().with_(interning=interning)
    with Database(program, config) as database, \
            ServerThread(database) as thread:
        wire = RawWire(thread.host, thread.port, framed)
        try:
            with BlockingClient(thread.host, thread.port) as writer:
                for step in range(len(batches) + 1):
                    if step:
                        retract, rows = batches[step - 1]
                        mutate = writer.retract if retract else writer.insert
                        mutate("r", rows)
                    count = writer.request(
                        {"op": "query", "relation": "r", "limit": 0}
                    )["count"]
                    for message in read_requests(count, step):
                        assert wire.exchange(message) == reference_bytes(
                            thread.server, message, framed
                        ), (step, message)
        finally:
            wire.close()


@settings(max_examples=200, deadline=None)
@given(arity=st.integers(0, 4), data=st.data())
def test_id_rows_encode_like_the_values_they_stand_for(arity, data):
    rows = data.draw(rows_of(arity, stored_values, 40))
    table = SymbolTable()
    ids = table.intern_rows(rows)
    with pytest.MonkeyPatch.context() as patch:
        # Parts of 3 rows: the joints between parts are exercised too.
        patch.setattr(protocol, "_ROWS_PER_PART", 3)
        encoded = encode_id_rows(table, ids, arity)
    assert isinstance(encoded, EncodedRows)
    used = 1 + max((symbol for row in ids for symbol in row), default=-1)
    assert len(table.memo(value_fragment, 0)) == used  # and no further
    decoded = table.resolve_rows(ids)
    assert b"".join(encoded) == encode_payload(jsonify_rows(decoded))
    assert b"".join(encode_value_rows(decoded)) == b"".join(encoded)


envelope_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=2),
        st.dictionaries(st.sampled_from(["rows", "k"]), inner, max_size=2),
    ),
    max_leaves=4,
)


@pytest.mark.parametrize("framed", [True, False], ids=["framed", "line"])
@settings(max_examples=200, deadline=None)
@given(
    before=st.dictionaries(st.sampled_from(["ok", "relation", "a"]),
                           envelope_values, max_size=3),
    after=st.dictionaries(st.sampled_from(["count", "id", "b"]),
                          envelope_values, max_size=3),
    rows=rows_of(2, json_values, 5),
)
def test_the_splice_equals_encoding_the_whole_message(
    framed, before, after, rows
):
    """Rows at the first, a middle or the last key; nested ``"rows"`` keys
    and ``null`` values around them; empty relations."""
    plain = dict(before, rows=jsonify_rows(rows), **after)
    spliced = dict(before, rows=encode_value_rows(rows), **after)
    assert list(plain) == list(spliced)
    reference = (encode_frame if framed else encode_line)(plain)
    assert b"".join(encode_response(spliced, framed)) == reference
    assert b"".join(encode_response(plain, framed)) == reference


@settings(max_examples=200, deadline=None)
@given(rows=rows_of(3, stored_values, 8))
def test_the_reference_functions_apply_the_wire_rule_value_by_value(rows):
    """``jsonify_rows`` / ``encode_payload`` are what everything above is
    held to, so they are held to their definitions: the per-value rule on
    every column, ``json.dumps`` with compact separators and the ``repr``
    fallback (compared by ``repr``: ``nan != nan``, ``True == 1``)."""
    expected = [[jsonify_value(value) for value in row] for row in rows]
    assert repr(jsonify_rows(rows)) == repr(expected)
    assert repr(jsonify_rows(iter(rows))) == repr(expected)
    message = {"ok": True, "rows": expected, "extra": frozenset(rows[:1])}
    assert encode_payload(message) == json.dumps(
        message, separators=(",", ":"), default=repr
    ).encode("utf-8")


def test_a_circular_message_is_still_a_value_error():
    message = {"ok": True}
    message["self"] = message
    with pytest.raises(ValueError, match="Circular reference"):
        encode_payload(message)
