"""Crash-restart of a durable server whose program arrived as *text*.

Symbol ids are allocated in fact order, and the checkpoint's symbol-prefix
guard compares that prefix on every restart — so the order in which the
parser hands over facts of two interleaved relations is part of the
on-disk contract.  A server child is killed without any shutdown
(``os._exit`` after the last acknowledged write: no close, no checkpoint);
the directory must reopen warm, replay the tail, and answer exactly what a
database that never crashed answers.
"""

import os
import subprocess
import sys
import textwrap

from repro import Database, DurabilityConfig, EngineConfig

SOURCE = "path(X, Y) :- edge(X, Y).\npath(X, Z) :- path(X, Y), edge(Y, Z).\n" + "".join(
    f"edge({i}, {i + 1}).\nlabel({i}, 'n{i}').\n" for i in range(40)
)

CHILD = textwrap.dedent("""
    import os, sys
    from repro import Database, DurabilityConfig
    from repro.server import BlockingClient, ServerThread

    source, directory = sys.argv[1], sys.argv[2]
    durability = DurabilityConfig(dir=directory, checkpoint_every_records=3)
    with ServerThread(Database(source, durability=durability)) as server:
        with BlockingClient(server.host, server.port) as client:
            client.insert("edge", [[40, 41], [41, 0]])
            client.insert("label", [[40, "n40"]])
            client.retract("edge", [[3, 4]])            # third record: checkpoint
            client.insert("label", [[41, "forty-one"]])  # the tail to replay
            os._exit(9)                                  # SIGKILL, in effect
""")


def test_sigkilled_textual_server_reopens_warm(tmp_path):
    directory = str(tmp_path / "state")
    child = subprocess.run(
        [sys.executable, "-c", CHILD, SOURCE, directory],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, timeout=120,
    )
    assert child.returncode == 9

    with Database(SOURCE, durability=DurabilityConfig(dir=directory)) as database:
        conn = database.connect()
        report = conn.durability.last_recovery
        assert report.warm
        assert (report.checkpoint_records, report.replayed_records) == (3, 1)

        oracle = Database(SOURCE, EngineConfig(executor="pushdown")).connect()
        oracle.insert_facts("edge", [(40, 41), (41, 0)])
        oracle.insert_facts("label", [(40, "n40")])
        oracle.retract_facts("edge", [(3, 4)])
        oracle.insert_facts("label", [(41, "forty-one")])
        for relation in ("edge", "label", "path"):
            assert conn.query(relation).to_set() == oracle.query(relation).to_set()
        # Same ids, not just same rows: the parsed prefix, then the deltas.
        assert list(conn.session.storage.symbols.values()) == list(
            oracle.session.storage.symbols.values()
        )
        conn.self_check()
