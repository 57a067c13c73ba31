"""Crash-point property: recovery from *any* WAL prefix is exact.

The durability contract is that a crash at any byte of the log loses only
un-acknowledged work: recovering from a WAL truncated at byte ``L`` must
yield bit-for-bit the state a never-crashed process had after the last
record wholly contained in those ``L`` bytes — same decoded rows in every
relation, same replay count, never a row from the torn suffix.

The oracle is a plain in-memory database replaying the same batch prefix.
Rows are strings so the comparison crosses the interned
:class:`~repro.relational.symbols.SymbolTable` in both directions: a
recovery that misaligned symbol ids would decode to different values and
fail the equality even if the encoded row sets happened to match.

The truncation sweep is exhaustive (every byte offset) for the
interpreted engine, and at every record boundary (±1 byte, catching
off-by-one framing bugs) for both executors, the raw-value store and the
JIT — the WAL bytes are engine-independent, so the cheap sweep covers
the scanner and the matrix covers replay through each execution mode.
"""

import os

import pytest

from repro.analyses.micro import build_transitive_closure_program
from repro.api.database import Database
from repro.core.config import EngineConfig
from repro.durability import DurabilityConfig
from repro.durability.recover import RecoveryError
from repro.durability.wal import _HEADER_LEN

SEED_EDGES = [("n1", "n2"), ("n2", "n3"), ("n3", "n4")]

#: (inserts, retracts) batches — one WAL record each.  Retractions of
#: earlier inserts and re-inserts of retracted rows keep the replayed
#: fixpoint repair honest; fresh strings per batch grow the symbol table
#: so every record carries a non-empty symbol delta.
BATCHES = [
    ({"edge": [("n4", "n5"), ("n5", "n6")]}, None),
    ({"edge": [("n6", "n7")]}, {"edge": [("n1", "n2")]}),
    ({"edge": [("n1", "n2"), ("n7", "n8")]}, None),
    (None, {"edge": [("n5", "n6")]}),
    ({"edge": [("n2", "n9"), ("n9", "n4")]}, {"edge": [("n3", "n4")]}),
]

RELATIONS = ("edge", "path")

ENGINE_MATRIX = [
    pytest.param(
        EngineConfig.interpreted().with_(executor="pushdown"), id="pushdown"
    ),
    pytest.param(EngineConfig(), id="vectorized"),
    pytest.param(
        EngineConfig.interpreted().with_(interning=False), id="interpreted-raw"
    ),
    pytest.param(EngineConfig.jit("lambda"), id="jit-lambda"),
]


def durable_config(directory):
    # Thresholds high enough that no checkpoint ever triggers: every
    # committed batch must survive on the WAL alone.
    return DurabilityConfig(
        dir=directory, fsync="off", checkpoint_on_close=False,
        checkpoint_every_records=10**9, checkpoint_every_bytes=1 << 40,
    )


def capture(conn):
    return {
        relation: frozenset(conn.query(relation).rows())
        for relation in RELATIONS
    }


def write_crashed_wal(directory, config):
    """Run the full workload durably; the returned bytes are the 'crashed'
    process's WAL (never checkpointed, never cleanly collapsed)."""
    database = Database(
        build_transitive_closure_program(SEED_EDGES), config,
        durability=durable_config(directory),
    )
    with database.connect() as conn:
        for inserts, retracts in BATCHES:
            conn.apply(inserts=inserts, retracts=retracts)
    database.close()
    with open(os.path.join(directory, "wal.log"), "rb") as handle:
        return handle.read()


def oracle_states():
    """State after each batch prefix, from a never-crashed plain database."""
    database = Database(
        build_transitive_closure_program(SEED_EDGES),
        EngineConfig(executor="pushdown"),
    )
    with database.connect() as conn:
        states = [capture(conn)]
        for inserts, retracts in BATCHES:
            conn.apply(inserts=inserts, retracts=retracts)
            states.append(capture(conn))
    database.close()
    return states


def record_boundaries(wal_bytes):
    """Byte offset of every intact record boundary, header included."""
    offsets = [_HEADER_LEN]
    offset = _HEADER_LEN
    while offset < len(wal_bytes):
        length = int.from_bytes(wal_bytes[offset:offset + 4], "big")
        offset += 8 + length
        offsets.append(offset)
    return offsets


def recover_prefix(parent, tag, config, wal_bytes, length):
    """Open a database over the first ``length`` WAL bytes; return the
    decoded state and how many records recovery replayed."""
    directory = os.path.join(parent, f"crash-{tag}")
    os.makedirs(directory)
    with open(os.path.join(directory, "wal.log"), "wb") as handle:
        handle.write(wal_bytes[:length])
    database = Database(
        build_transitive_closure_program(SEED_EDGES), config,
        durability=durable_config(directory),
    )
    with database.connect() as conn:
        state = capture(conn)
        report = conn.durability.last_recovery
    database.close()
    return state, report


@pytest.fixture(scope="module")
def oracle():
    return oracle_states()


@pytest.fixture(scope="module")
def wal_bytes(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("durability-origin"))
    return write_crashed_wal(directory, EngineConfig.interpreted())


def complete_records(boundaries, length):
    """How many records fit wholly inside a ``length``-byte prefix."""
    return sum(1 for offset in boundaries[1:] if offset <= length)


class TestCrashPoints:
    def test_the_workload_produced_one_record_per_batch(self, wal_bytes):
        boundaries = record_boundaries(wal_bytes)
        assert len(boundaries) - 1 == len(BATCHES)
        assert boundaries[-1] == len(wal_bytes)

    def test_every_byte_prefix_recovers_the_oracle_state(
        self, tmp_path, oracle, wal_bytes
    ):
        """Exhaustive sweep: every truncation offset from the end of the
        header to the full file, interpreted engine."""
        boundaries = record_boundaries(wal_bytes)
        mismatches = []
        for length in range(_HEADER_LEN, len(wal_bytes) + 1):
            expected_records = complete_records(boundaries, length)
            state, report = recover_prefix(
                str(tmp_path), f"byte-{length}",
                EngineConfig.interpreted(), wal_bytes, length,
            )
            if state != oracle[expected_records]:
                mismatches.append((length, "state"))
            if report.replayed_records != expected_records:
                mismatches.append((length, "replayed"))
            if (length not in boundaries) != report.torn:
                mismatches.append((length, "torn-flag"))
        assert not mismatches, f"divergent crash points: {mismatches[:10]}"

    @pytest.mark.parametrize("config", ENGINE_MATRIX)
    def test_record_boundaries_recover_exactly_in_every_engine(
        self, tmp_path, oracle, config
    ):
        """Every record boundary (±1 byte) across the engine matrix.  The
        durable writer AND the recovering reader both run ``config``, so
        the WAL bytes themselves come from each engine's own commit path.
        """
        origin = str(tmp_path / "origin")
        os.makedirs(origin)
        wal_bytes = write_crashed_wal(origin, config)
        boundaries = record_boundaries(wal_bytes)
        assert len(boundaries) - 1 == len(BATCHES)
        lengths = set()
        for offset in boundaries:
            lengths.update(
                length for length in (offset - 1, offset, offset + 1)
                if _HEADER_LEN <= length <= len(wal_bytes)
            )
        for length in sorted(lengths):
            expected_records = complete_records(boundaries, length)
            state, report = recover_prefix(
                str(tmp_path), f"edge-{length}", config, wal_bytes, length,
            )
            assert state == oracle[expected_records], (
                f"truncation at byte {length} diverged from the oracle"
            )
            assert report.replayed_records == expected_records

    def test_truncation_inside_the_header_fails_loudly(
        self, tmp_path, wal_bytes
    ):
        """A header-short WAL cannot silently pass as empty: the header is
        written before any record is acknowledged, so a short one means
        the file is not a WAL at all."""
        directory = str(tmp_path / "crash-header")
        os.makedirs(directory)
        with open(os.path.join(directory, "wal.log"), "wb") as handle:
            handle.write(wal_bytes[:_HEADER_LEN - 3])
        with pytest.raises(RecoveryError, match="unreadable WAL"):
            Database(
                build_transitive_closure_program(SEED_EDGES),
                durability=durable_config(directory),
            ).connect()
